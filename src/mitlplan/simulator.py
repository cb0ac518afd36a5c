"""Policy rollouts through the product and empirical success estimation.

Rollouts sample successors from the product kernel with a splitmix64
stream, so a (model, policy, seed, max_steps) quadruple always reproduces
the same trajectory byte for byte.  A stream adds the golden gamma to its
state per draw and outputs the mix of the new state (Steele, Lea & Flood,
OOPSLA 2014).  Stream i of a batch starts from the mix of
``seed + (i + 1) * gamma``: without that mix, stream i + 1 would be stream
i one draw later.  `splitmix_init` and `splitmix_next` work on Python
integers, for `rollout`, the one scalar rollout: a memo walk over the
model's `log_state` and `log_row`, so a step draws once, reads the policy
once and bisects a list of running sums.  `rollout_batch_numpy` runs the
same arithmetic on uint64 arrays, one lane per live rollout.  The tests
check both decision for decision against `tests/_oracles.py::walk`, a walk
over the CSR arrays; batch stream 0 is the stream of `rollout` with the
same seed.  The batch samples a successor by a binary search of the
running sums of the row the policy follows (`threshold_table`), whose
last entry is inf, so the search stops inside the row and a flat table
of successors beside the sums gives the next state in one gather.  A
step allocates a few arrays of one entry per lane.  The model keeps the
table of the last policy `estimate_success` ran, keyed by the contents
of its rows, and its default step budget (`default_max_steps`).  A
rollout stops at the first state whose `ProductMdp.outcome_code` is not
0, or when its step budget runs out, and reports the name `OUTCOMES`
gives the code of the state it stops at.  Code 2 marks exactly the
states from which acceptance is unreachable, so a rollout that has lost
stops as `sink` at the first such state it enters.  `simulate` writes
log i with `rollout` on `stream_seed(seed, i)`, whose stream 0 is stream
i of the seed, so log i replays rollout i of `estimate_success`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np

from .formula import Record
from .game_model import concat_ranges
from .product_mdp import OUTCOMES, ProductMdp

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_U = np.uint64(_GOLDEN)
_MIX1_U = np.uint64(_MIX1)
_MIX2_U = np.uint64(_MIX2)
_INV53 = 1.0 / float(1 << 53)
_Z95 = 1.959963984540054

# rollouts per batch of `estimate_success`: its per-lane arrays take a
# few MB at most
_CHUNK = 1 << 16


def _mix64(z: int) -> int:
    """splitmix64's output function on a Python int."""
    z = ((z ^ (z >> 30)) * _MIX1) & _U64
    z = ((z ^ (z >> 27)) * _MIX2) & _U64
    return z ^ (z >> 31)


def _mix64_lanes(z: np.ndarray) -> np.ndarray:
    """`_mix64` on a uint64 array, in place: its products wrap modulo
    2**64 by themselves."""
    z ^= z >> 30
    z *= _MIX1_U
    z ^= z >> 27
    z *= _MIX2_U
    z ^= z >> 31
    return z


def splitmix_init(seed: int, index: int = 0) -> int:
    """Start state of stream `index` of `seed`."""
    return _mix64((int(seed) + (index + 1) * _GOLDEN) & _U64)


def stream_seed(seed: int, index: int) -> int:
    """The seed whose stream 0 is stream `index` of `seed`: ``rollout``
    on it replays rollout `index` of ``estimate_success`` on `seed`."""
    return (int(seed) + index * _GOLDEN) & _U64


def splitmix_next(state: int) -> tuple[float, int]:
    """Next uniform in [0,1) and the advanced state."""
    state = (state + _GOLDEN) & _U64
    return (_mix64(state) >> 11) * _INV53, state


class Trajectory(Record):
    """One rollout; each log builds one, so its fields are plain stores."""

    __slots__ = ("outcome", "state_indices", "actions", "lines")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    # the field records `dataclasses.replace` reads: the benchmark's tests
    # copy a trajectory with it
    __dataclass_fields__ = {
        name: SimpleNamespace(name=name, init=True, _field_type=None)
        for name in __slots__}

    def __init__(self, outcome: str, state_indices: list[int],
                 actions: list[str], lines: list[str] | None = None):
        self.outcome = outcome              # an entry of `OUTCOMES`
        self.state_indices = state_indices
        self.actions = actions
        self.lines = [] if lines is None else lines

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"

    @property
    def steps(self) -> int:
        return len(self.actions)


def default_max_steps(m: ProductMdp) -> int:
    """Step budget after which the bus-style missions are fully classified:
    every event clock is capped, and windows expire within their bounds.
    Computed once per model."""
    if m._max_steps is None:
        trunc = m.sta.trunc
        m._max_steps = (max((T for _, T in trunc.events), default=0)
                        + max((T for _, T in trunc.windows), default=0) + 8)
    return m._max_steps


def threshold_table(row_ptr, cols, probs, policy_row):
    """The search table of `rollout_batch_numpy` for the policy rows:
    the flat running sums, the flat successors beside them, and the row
    width.

    Row z of the table holds the running sums of the row that the policy
    follows at state z, added left to right as `ProductMdp.log_row` adds
    them, so they are bit for bit its sums.  The row's last entry, and
    every entry after it up to ``width = 2**k - 1``, is inf, so no draw
    passes it.  Row z of the successors holds the columns of that CSR row
    at the same offsets, and 0 after them."""
    starts = row_ptr[policy_row]
    lengths = row_ptr[policy_row + 1] - starts
    n_states = len(lengths)
    width = (1 << int(lengths.max()).bit_length()) - 1
    table = np.zeros((n_states, width))
    flat = table.ravel()
    row_starts = width * np.arange(n_states)
    entries = concat_ranges(row_starts, lengths)
    edges = concat_ranges(starts, lengths)
    flat[entries] = probs[edges]
    flat[row_starts + lengths - 1] = np.inf
    np.cumsum(table, axis=1, out=table)
    succ = np.zeros(n_states * width, dtype=cols.dtype)
    succ[entries] = cols[edges]
    return flat, succ, width


def rollout_batch_numpy(table, code, z0, n_rollouts, seed, max_steps):
    """Outcome codes of `n_rollouts` lockstep rollouts from z0, rollout i
    on stream ``splitmix_init(seed, i)``: decision for decision those of
    the memo walk `rollout` and of the test reference `walk`.

    `table` is ``threshold_table(row_ptr, cols, probs, policy_row)`` and
    `code` the `ProductMdp.outcome_code` of each state.  Both walks take
    the first entry whose running sum exceeds u, else the row's last; a
    table row is nondecreasing and ends in inf, so that entry's offset is
    the count of sums ``<= u``, which a binary search over the row finds
    and which never passes the row's last entry.  Only live lanes are
    kept, and draw k of a lane is the mix of its stream's start plus k
    gammas, so a finished lane leaves nothing to advance."""
    flat, succ, width = table
    outcomes = np.zeros(n_rollouts, dtype=np.int8)
    lanes = np.arange(n_rollouts)
    states = np.full(n_rollouts, z0, dtype=np.int64)
    stream = _mix64_lanes(np.uint64(int(seed) & _U64)
                          + np.arange(1, n_rollouts + 1, dtype=np.uint64)
                          * _GOLDEN_U)
    for t in range(max_steps + 1):
        now = code[states]
        done = now != 0
        if done.any():
            outcomes[lanes[done]] = now[done]
            live = ~done
            lanes, states, stream = lanes[live], states[live], stream[live]
        if t == max_steps or not len(lanes):
            break
        draw = _mix64_lanes(stream + np.uint64((t + 1) * _GOLDEN & _U64))
        u = (draw >> 11).astype(np.float64) * _INV53
        pos = states * width
        step = (width + 1) // 2
        while step > 1:
            pos += step * (flat.take(pos + (step - 1)) <= u)
            step //= 2
        # the last level, of step 1, probes pos itself
        pos += flat.take(pos) <= u
        states = succ.take(pos)
    return outcomes


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


def rollout(m: ProductMdp, policy, seed: int, max_steps: int | None = None
            ) -> Trajectory:
    """Sample one trajectory following `policy` from the initial state:
    each step takes the first successor of the policy's row whose running
    sum exceeds the draw, else the row's last.  Only states of outcome
    code 0 (`ProductMdp.log_state`) take an action; none is absorbing."""
    if max_steps is None:
        max_steps = default_max_steps(m)
    state = splitmix_init(seed)
    z = m.z0
    code, z_text, _ = m.log_state(z)
    visited, actions, lines = [z], [], [z_text]
    action_index, action_names = policy.action_index, policy.actions
    while not code and len(visited) <= max_steps:
        u, state = splitmix_next(state)
        a = action_index.item(z)
        cols, sums = m.log_row(z * m.n_actions + a)
        z = cols[min(bisect_right(sums, u), len(cols) - 1)]
        code, nxt_text, occurred = m.log_state(z)
        a_name = action_names[a]
        visited.append(z)
        actions.append(a_name)
        lines.append(f"--{a_name}--> ({z_text}, {a_name})")
        lines.append(f"--e={{{occurred}}}--> {nxt_text}")
        z_text = nxt_text
    outcome = OUTCOMES[code]
    lines.append(f"terminal: {outcome}")
    return Trajectory(outcome, visited, actions, lines)


class SuccessEstimate(Record):
    __slots__ = ("rate", "ci_low", "ci_high", "successes", "samples",
                 "outcomes")

    def __init__(self, rate: float, ci_low: float, ci_high: float,
                 successes: int, samples: int, outcomes: dict | None = None):
        self._set(rate, ci_low, ci_high, successes, samples,
                  {} if outcomes is None else outcomes)


def estimate_success(m: ProductMdp, policy, n: int, seed: int,
                     max_steps: int | None = None) -> SuccessEstimate:
    """Fraction of n independent rollouts ending in acceptance, with a
    Wilson score 95% confidence interval.  Rollout i follows stream
    ``splitmix_init(seed, i)``.  The rollouts run in batches of at most
    `_CHUNK`, so memory does not grow with n: the batch from rollout
    `first` on starts its streams at ``stream_seed(seed, first)``.  The
    batches share one search table, which the model keeps for the next
    call until a policy with other rows replaces it."""
    if n < 1:
        raise ValueError("need at least one rollout")
    if max_steps is None:
        max_steps = default_max_steps(m)
    rows = policy.rows()
    memo = m._batch_table
    if memo is None or not np.array_equal(memo[0], rows):
        memo = m._batch_table = (
            rows, threshold_table(m.row_ptr, m.cols, m.probs, rows))
    table = memo[1]
    counts = np.zeros(3, dtype=np.int64)
    for first in range(0, n, _CHUNK):
        outcomes = rollout_batch_numpy(
            table, m.outcome_code, m.z0, min(_CHUNK, n - first),
            stream_seed(seed, first), max_steps)
        counts += np.bincount(outcomes, minlength=3)
    tally = dict(zip(OUTCOMES, counts.tolist()))
    successes = tally["accept"]
    return SuccessEstimate(successes / n, *wilson_interval(successes, n),
                           successes, n, tally)
