"""Policy rollouts through the product and empirical success estimation.

Rollouts sample successors from the product kernel with a splitmix64
stream, so a (model, policy, seed, max_steps) quadruple always reproduces
the same trajectory byte for byte.  Batch estimation runs the numpy rollout
kernel; its stream 0 is the stream of `rollout` with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import rollout_batch_numpy, splitmix_init, walk, wilson_interval
from .product_mdp import ProductMdp, describe_spec_state


# the outcome of each of the kernels' outcome codes
_OUTCOMES = ("step-limit", "accept", "sink")


@dataclass
class Trajectory:
    outcome: str                      # "accept" | "sink" | "step-limit"
    state_indices: list[int]
    actions: list[str]
    lines: list[str] = field(default_factory=list)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"

    @property
    def steps(self) -> int:
        return len(self.actions)


def _state_text(ps) -> str:
    return f"({ps.game.brief()}, {describe_spec_state(ps.spec)})"


def default_max_steps(m: ProductMdp) -> int:
    """Step budget after which the bus-style missions are fully classified:
    every event clock is capped, and windows expire within their bounds."""
    points = m.sta.points
    max_win = max((T for name, T in m.sta.trunc.points if name not in points),
                  default=0)
    return max(points.values(), default=0) + max_win + 8


def _policy_rows(m: ProductMdp, policy) -> np.ndarray:
    """The CSR row that `policy` follows at each state."""
    return m.n_actions * np.arange(m.n_states) + policy.action_index


def rollout(m: ProductMdp, policy, seed: int, max_steps: int | None = None
            ) -> Trajectory:
    """Sample one trajectory following `policy` from the initial state."""
    if max_steps is None:
        max_steps = default_max_steps(m)
    code, visited = walk(m.row_ptr, m.cols, m.probs, _policy_rows(m, policy),
                         m.accepting, m.sink, m.z0, splitmix_init(seed),
                         max_steps)
    actions = [policy.action_name(z) for z in visited[:-1]]
    z_text = _state_text(m.states[m.z0])
    lines = [z_text]
    for a_name, nxt in zip(actions, visited[1:]):
        ps = m.states[nxt]
        nxt_text = _state_text(ps)
        lines.append(f"--{a_name}--> ({z_text}, {a_name})")
        lines.append(f"--e={{{','.join(sorted(ps.game.occurred))}}}--> "
                     f"{nxt_text}")
        z_text = nxt_text
    outcome = _OUTCOMES[code]
    lines.append(f"terminal: {outcome}")
    return Trajectory(outcome, visited, actions, lines)


@dataclass
class SuccessEstimate:
    rate: float
    ci_low: float
    ci_high: float
    successes: int
    samples: int
    outcomes: dict = field(default_factory=dict)


def estimate_success(m: ProductMdp, policy, n: int, seed: int,
                     max_steps: int | None = None) -> SuccessEstimate:
    """Fraction of n independent rollouts ending in acceptance, with a
    Wilson score 95% confidence interval.  Rollout i follows stream
    ``splitmix_init(seed, i)``."""
    if n < 1:
        raise ValueError("need at least one rollout")
    if max_steps is None:
        max_steps = default_max_steps(m)
    outcomes = rollout_batch_numpy(m.row_ptr, m.cols, m.probs,
                                   _policy_rows(m, policy), m.accepting,
                                   m.sink, m.z0, n, seed, max_steps)
    successes = int((outcomes == 1).sum())
    tally = {
        "accept": successes,
        "sink": int((outcomes == 2).sum()),
        "step-limit": int((outcomes == 0).sum()),
    }
    return SuccessEstimate(successes / n, *wilson_interval(successes, n),
                           successes, n, tally)
