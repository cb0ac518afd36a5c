"""Maximal reachability probability on the product MDP.

`value_iteration` runs synchronous Bellman sweeps from the zero function
(so iterates increase monotonically toward the maximal probability of
reaching an accepting state), and `extract_policy` takes the greedy argmax
with a fixed tie-breaking order.  `_backup` is the one Bellman backup:
`q_values` applies it to every CSR row for value iteration and policy
extraction, and policy evaluation to the rows its policy follows.  The
tests check the sweeps against a scalar loop (`tests/_oracles.py::
bellman_sweep_loop`) and the values against an independent finite-horizon
oracle, `tests/_oracles.py::brute_force_reach`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .formula import DEFAULT_MAX_ITER, DEFAULT_TOL
from .game_model import concat_ranges
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
    below tol.  An absorbing state's rows are unit self-loops with no
    reward, so its value stays 0.0 exactly."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    values = np.zeros(m.n_states)
    for it in range(1, max_iter + 1):
        new_values = q_values(m, values).max(axis=1)
        residual = float(np.abs(new_values - values).max())
        values = new_values
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


def q_values(m: ProductMdp, values: np.ndarray) -> np.ndarray:
    """Q(z, a) = R(z, a) + sum_z' P(z' | z, a) V(z'), one row per state."""
    q = _backup(values, m.reward_row, m.row_ptr[:-1], m.probs, m.cols)
    return q.reshape(m.n_states, m.n_actions)


def _backup(values, reward, starts, probs, cols) -> np.ndarray:
    """R + P V, one entry per CSR row; row r's entries start at starts[r]."""
    return reward + np.add.reduceat(probs * values[cols], starts)


def extract_policy(m: ProductMdp, values: np.ndarray) -> Policy:
    """Greedy policy; ties go to the first action in the model's fixed
    action order."""
    q = q_values(m, values)
    return Policy(np.argmax(q, axis=1).astype(np.int64), m.actions,
                  m.absorbing.copy())


def policy_evaluation(m: ProductMdp, policy: Policy, tol: float = 1e-12,
                      max_iter: int = 200_000) -> np.ndarray:
    """Value of a fixed policy by linear iteration (no maximization); each
    sweep backs up only the CSR rows the policy follows, gathered once."""
    rows = policy.rows()
    lengths = np.diff(m.row_ptr)[rows]
    starts = np.cumsum(lengths) - lengths
    edges = concat_ranges(m.row_ptr[rows], lengths)
    kernel = (m.reward_row[rows], starts, m.probs[edges], m.cols[edges])
    values = np.zeros(m.n_states)
    for _ in range(max_iter):
        new_values = _backup(values, *kernel)
        if np.abs(new_values - values).max() < tol:
            return new_values
        values = new_values
    raise SolverError("policy evaluation did not converge")
