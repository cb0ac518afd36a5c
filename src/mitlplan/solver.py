"""Maximal reachability probability on the product MDP.

`value_iteration` runs synchronous Bellman sweeps from the zero function
(so iterates increase monotonically toward the maximal probability of
reaching an accepting state), and `extract_policy` takes the greedy argmax
with a fixed tie-breaking order.  `_backup` is the one Bellman backup.
Each of `value_iteration`, `extract_policy` and `policy_evaluation`
gathers the CSR rows it reads once (`_gather`) and backs up only those:
the rows of the live states (outcome code 0), every action of each for
the first two and the row its policy follows for the last.  An absorbing
state's value is 0.0 (an accepting state earns its reward on entry, a
sink cannot reach acceptance: the Prob0 states of Baier & Katoen,
10.6.1), and its action index 0, exactly as a backup of its unit
self-loops would give, so values, sweeps, residuals and policies are
those of a sweep over every row.  The tests keep that sweep as the
reference (`tests/_oracles.py::full_value_iteration`), check the sweeps
against a scalar loop (`bellman_sweep_loop`) and the values against an
independent finite-horizon oracle, `brute_force_reach`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .formula import DEFAULT_MAX_ITER, DEFAULT_TOL
from .product_mdp import STAY_ACTION, ProductMdp


class SolverError(ValueError):
    pass


class ValueIterationResult(NamedTuple):
    values: np.ndarray
    iterations: int
    residual: float
    converged: bool


def value_iteration(m: ProductMdp, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> ValueIterationResult:
    """Iterate V <- max_a (R + sum P V) until the max-norm residual drops
    below tol.  Only live states are backed up; an absorbing state's value
    stays 0.0."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    is_live = m.outcome_code == 0
    live = np.flatnonzero(is_live)
    kernel = _gather(m, np.repeat(is_live, m.n_actions))
    values = np.zeros(m.n_states)
    for it in range(1, max_iter + 1):
        new_values = _backup(values, *kernel).reshape(
            -1, m.n_actions).max(axis=1)
        residual = float(np.abs(new_values - values[live]).max(initial=0.0))
        values[live] = new_values
        if residual < tol:
            return ValueIterationResult(values, it, residual, True)
    return ValueIterationResult(values, max_iter, residual, False)


def satisfaction_probability(m: ProductMdp, values: np.ndarray) -> float:
    """Value reported to users: 1 if the initial state is already
    accepting, else the computed reach probability."""
    if m.accepting[m.z0]:
        return 1.0
    return float(values[m.z0])


class Policy(NamedTuple):
    """Deterministic stationary policy: one action index per state;
    absorbing states carry the reserved stay action."""

    action_index: np.ndarray
    actions: tuple[str, ...]
    absorbing: np.ndarray

    def action_name(self, z: int) -> str:
        if self.absorbing[z]:
            return STAY_ACTION
        return self.actions[self.action_index[z]]

    def rows(self) -> np.ndarray:
        """The CSR row the policy follows at each state."""
        n_states = len(self.action_index)
        return len(self.actions) * np.arange(n_states) + self.action_index


def _gather(m: ProductMdp, row_mask: np.ndarray):
    """The CSR rows where `row_mask` holds, in order, as `_backup` reads
    them: their rewards, where each starts in the gathered edges, and
    those edges' probabilities and successors."""
    lengths = np.diff(m.row_ptr)
    edge_mask = np.repeat(row_mask, lengths)
    lengths = lengths[row_mask]
    return (m.reward_row[row_mask], np.cumsum(lengths) - lengths,
            m.probs[edge_mask], m.cols[edge_mask])


def _backup(values, reward, starts, probs, cols) -> np.ndarray:
    """R + P V, one entry per CSR row; row r's entries start at starts[r]."""
    return reward + np.add.reduceat(probs * values[cols], starts)


def extract_policy(m: ProductMdp, values: np.ndarray) -> Policy:
    """Greedy policy; ties go to the first action in the model's fixed
    action order.  An absorbing state keeps action index 0."""
    is_live = m.outcome_code == 0
    q = _backup(values, *_gather(m, np.repeat(is_live, m.n_actions)))
    action_index = np.zeros(m.n_states, dtype=np.int64)
    action_index[is_live] = np.argmax(q.reshape(-1, m.n_actions), axis=1)
    return Policy(action_index, m.actions, m.absorbing.copy())


def policy_evaluation(m: ProductMdp, policy: Policy, tol: float = 1e-12,
                      max_iter: int = 200_000) -> np.ndarray:
    """Value of a fixed policy by linear iteration (no maximization); each
    sweep backs up only the CSR rows the policy follows at live states."""
    live = np.flatnonzero(m.outcome_code == 0)
    row_mask = np.zeros(len(m.row_ptr) - 1, dtype=bool)
    row_mask[policy.rows()[live]] = True
    kernel = _gather(m, row_mask)
    values = np.zeros(m.n_states)
    for _ in range(max_iter):
        new_values = _backup(values, *kernel)
        residual = np.abs(new_values - values[live]).max(initial=0.0)
        values[live] = new_values
        if residual < tol:
            return values
    raise SolverError("policy evaluation did not converge")
