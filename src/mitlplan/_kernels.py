"""Hot numeric kernels: Bellman sweeps and batch rollouts.

The solver and the simulator run the vectorized numpy kernels
(``*_numpy``).  Each has a scalar loop kernel (``*_loop``) in plain Python
beside it: the reference the numpy kernels are tested against, equal in
values and sweep counts for the Bellman sweep and decision for decision
for the rollouts.

Rollouts draw from splitmix64 streams (Steele, Lea & Flood, OOPSLA 2014).
A stream adds the golden gamma to its state per draw and outputs the mix
of the new state.  Stream i of a batch starts from the mix of
``seed + (i + 1) * gamma``: without that mix, stream i + 1 would be
stream i one draw later.  `splitmix_init` and `splitmix_next` work on
Python integers, for `walk`, the one scalar rollout that `rollout` and the
loop kernel share; the numpy kernel runs the same arithmetic on uint64
arrays, one lane per rollout.  Batch stream 0 is therefore the stream of
a single rollout with the same seed.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = 0xFFFFFFFFFFFFFFFF
_INV53 = 1.0 / float(1 << 53)


# ---------------------------------------------------------------------------
# splitmix64
# ---------------------------------------------------------------------------

def _mix64(z):
    """splitmix64's output function, on a Python int or a uint64 array."""
    z = ((z ^ (z >> 30)) * _MIX1) & _U64
    z = ((z ^ (z >> 27)) * _MIX2) & _U64
    return z ^ (z >> 31)


def splitmix_init(seed: int, index: int = 0) -> int:
    """Start state of stream `index` of `seed`."""
    return _mix64((int(seed) + (index + 1) * _GOLDEN) & _U64)


def splitmix_next(state: int) -> tuple[float, int]:
    """Next uniform in [0,1) and the advanced state."""
    state = (state + _GOLDEN) & _U64
    return (_mix64(state) >> 11) * _INV53, state


# ---------------------------------------------------------------------------
# Bellman sweep
# ---------------------------------------------------------------------------

def bellman_sweep_numpy(row_ptr, cols, probs, reward_row, absorbing, values,
                        n_actions):
    """One synchronous sweep; returns (new values, max-norm residual)."""
    contrib = probs * values[cols]
    q = reward_row + np.add.reduceat(contrib, row_ptr[:-1])
    new_values = q.reshape(-1, n_actions).max(axis=1)
    new_values[absorbing] = 0.0
    residual = float(np.abs(new_values - values).max())
    return new_values, residual


def bellman_sweep_loop(row_ptr, cols, probs, reward_row, absorbing, values,
                       n_actions):
    """Scalar reference for `bellman_sweep_numpy`."""
    n = values.shape[0]
    new_values = np.empty_like(values)
    residual = 0.0
    for z in range(n):
        if absorbing[z]:
            new_values[z] = 0.0
            continue
        best = -1.0
        for a in range(n_actions):
            r = z * n_actions + a
            q = reward_row[r]
            for k in range(row_ptr[r], row_ptr[r + 1]):
                q += probs[k] * values[cols[k]]
            if q > best:
                best = q
        new_values[z] = best
        diff = abs(best - values[z])
        if diff > residual:
            residual = diff
    return new_values, float(residual)


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------
# Outcome codes: 0 step-limit, 1 accept, 2 sink.

def sample_successor(cols, probs, u: float) -> int:
    """The successor of a CSR row that the uniform `u` selects: the first
    whose cumulative probability exceeds `u`, else the last."""
    acc = 0.0
    for c, p in zip(cols.tolist(), probs.tolist()):
        acc += p
        if u < acc:
            return c
    return int(cols[-1])


def walk(row_ptr, cols, probs, policy_row, accepting, sink, z, state,
         max_steps) -> tuple[int, list[int]]:
    """One rollout from state z that follows CSR row ``policy_row[z]`` at
    each state and draws from the splitmix64 stream at `state`: its outcome
    code and the states it visits, z first."""
    visited = [z]
    while True:
        if accepting[z]:
            return 1, visited
        if sink[z]:
            return 2, visited
        if len(visited) > max_steps:
            return 0, visited
        u, state = splitmix_next(state)
        r = policy_row[z]
        row = slice(row_ptr[r], row_ptr[r + 1])
        z = sample_successor(cols[row], probs[row], u)
        visited.append(z)


def rollout_batch_loop(row_ptr, cols, probs, policy_row, accepting, sink,
                       z0, n_rollouts, seed, max_steps):
    """Scalar reference for `rollout_batch_numpy`."""
    outcomes = np.zeros(n_rollouts, dtype=np.int8)
    for i in range(n_rollouts):
        outcomes[i], _ = walk(row_ptr, cols, probs, policy_row, accepting,
                              sink, z0, splitmix_init(seed, i), max_steps)
    return outcomes


def rollout_batch_numpy(row_ptr, cols, probs, policy_row, accepting, sink,
                        z0, n_rollouts, seed, max_steps):
    """Lockstep vectorized rollouts; decision-identical to the loop kernel."""
    n_rows = len(row_ptr) - 1
    lengths = np.diff(row_ptr)
    max_len = int(lengths.max())
    # per-row cumulative probabilities, padded wide so a comparison count
    # yields the sampled offset
    cum_global = np.cumsum(probs)
    base = np.concatenate(([0.0], cum_global))[row_ptr[:-1]]
    edge_row = np.repeat(np.arange(n_rows), lengths)
    edge_pos = np.arange(len(probs)) - row_ptr[edge_row]
    cum2d = np.full((n_rows, max_len), 2.0)
    cum2d[edge_row, edge_pos] = cum_global - base[edge_row]

    states = np.full(n_rollouts, z0, dtype=np.int64)
    outcomes = np.zeros(n_rollouts, dtype=np.int8)
    rng_state = _mix64(np.uint64(int(seed) & _U64)
                       + np.arange(1, n_rollouts + 1, dtype=np.uint64)
                       * np.uint64(_GOLDEN))
    active = np.ones(n_rollouts, dtype=bool)
    for t in range(max_steps + 1):
        acc_now = active & accepting[states]
        outcomes[acc_now] = 1
        sink_now = active & sink[states]
        outcomes[sink_now] = 2
        active &= ~(acc_now | sink_now)
        if t == max_steps or not active.any():
            break
        rng_state = rng_state + np.uint64(_GOLDEN)
        u = (_mix64(rng_state) >> 11).astype(np.float64) * _INV53
        rows = policy_row[states[active]]
        offsets = (cum2d[rows] <= u[active, None]).sum(axis=1)
        offsets = np.minimum(offsets, lengths[rows] - 1)
        states[active] = cols[row_ptr[rows] + offsets]
    return outcomes


# ---------------------------------------------------------------------------
# Binomial confidence interval
# ---------------------------------------------------------------------------

_Z95 = 1.959963984540054


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """Wilson score 95% interval for `hits` successes in `n` trials.

    Unlike the normal interval it does not collapse to a point at 0 or n
    hits.  Its ends are exactly 0.0 at 0 hits and 1.0 at n hits, where the
    closed form leaves a rounding residue of about 1e-19.
    """
    z2 = _Z95 * _Z95
    centre = (hits + z2 / 2) / (n + z2)
    half = _Z95 / (n + z2) * math.sqrt(hits * (n - hits) / n + z2 / 4)
    low = 0.0 if hits == 0 else max(centre - half, 0.0)
    high = 1.0 if hits == n else min(centre + half, 1.0)
    return low, high
