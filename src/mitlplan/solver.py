"""Maximal reachability probability on the product MDP.

`value_iteration` runs synchronous Bellman sweeps from the zero function
(so iterates increase monotonically toward the maximal probability of
reaching an accepting state), `extract_policy` takes the greedy argmax
with a fixed tie-breaking order, and `brute_force_reach` is an independent
finite-horizon oracle that shares no code with the sweep kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import bellman_sweep_numpy
from .product_mdp import STAY_ACTION, ProductMdp


class SolverError(ValueError):
    pass


@dataclass
class ValueIterationResult:
    values: np.ndarray
    iterations: int
    residual: float
    converged: bool

    @property
    def initial_value(self) -> float:
        return float(self.values[0])


def value_iteration(m: ProductMdp, tol: float = 1e-10,
                    max_iter: int = 100_000) -> ValueIterationResult:
    """Iterate V <- max_a (R + sum P V) until the max-norm residual drops
    below tol; values stay pinned to zero on absorbing states."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    values = np.zeros(m.n_states)
    residual = float("inf")
    for it in range(1, max_iter + 1):
        values, residual = bellman_sweep_numpy(
            m.row_ptr, m.cols, m.probs, m.reward_row, m.absorbing, values,
            m.n_actions)
        if residual < tol:
            return ValueIterationResult(values, it, residual, True)
    return ValueIterationResult(values, max_iter, residual, False)


def satisfaction_probability(m: ProductMdp, values: np.ndarray) -> float:
    """Value reported to users: 1 if the initial state is already
    accepting, else the computed reach probability."""
    if m.accepting[m.z0]:
        return 1.0
    return float(values[m.z0])


@dataclass
class Policy:
    """Deterministic stationary policy: one action index per state;
    absorbing states carry the reserved stay action."""

    action_index: np.ndarray
    actions: tuple[str, ...]
    absorbing: np.ndarray

    def action_name(self, z: int) -> str:
        if self.absorbing[z]:
            return STAY_ACTION
        return self.actions[self.action_index[z]]


def q_values(m: ProductMdp, values: np.ndarray) -> np.ndarray:
    contrib = m.probs * values[m.cols]
    q = m.reward_row + np.add.reduceat(contrib, m.row_ptr[:-1])
    return q.reshape(m.n_states, m.n_actions)


def extract_policy(m: ProductMdp, values: np.ndarray) -> Policy:
    """Greedy policy; ties go to the first action in the model's fixed
    action order."""
    q = q_values(m, values)
    return Policy(np.argmax(q, axis=1).astype(np.int64), m.actions,
                  m.absorbing.copy())


def policy_evaluation(m: ProductMdp, policy: Policy, tol: float = 1e-12,
                      max_iter: int = 200_000) -> np.ndarray:
    """Value of a fixed policy by linear iteration (no maximization)."""
    rows = np.arange(m.n_states) * m.n_actions + policy.action_index
    values = np.zeros(m.n_states)
    for _ in range(max_iter):
        new_values = q_values(m, values).ravel()[rows]
        new_values[m.absorbing] = 0.0
        if np.abs(new_values - values).max() < tol:
            return new_values
        values = new_values
    raise SolverError("policy evaluation did not converge")


def brute_force_reach(m: ProductMdp, horizon: int) -> np.ndarray:
    """Independent oracle: exact maximal probability of entering an
    accepting state within `horizon` steps, by plain backward induction
    over the edge list (no shared sweep kernel, no early stopping)."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    n = m.n_states
    n_rows = n * m.n_actions
    edge_row = np.repeat(np.arange(n_rows), np.diff(m.row_ptr))
    enter_reward = m.accepting[m.cols].astype(np.float64)
    w = np.zeros(n)
    for _ in range(horizon):
        gain = m.probs * (enter_reward + w[m.cols])
        q = np.bincount(edge_row, weights=gain, minlength=n_rows)
        w = q.reshape(n, m.n_actions).max(axis=1)
        w[m.absorbing] = 0.0
    return w
