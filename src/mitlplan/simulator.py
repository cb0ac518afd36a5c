"""Policy rollouts through the product and empirical success estimation.

Rollouts sample successors from the product kernel with a splitmix64
stream, so a (model, policy, seed, max_steps) quadruple always reproduces
the same trajectory byte for byte.  Batch estimation runs the numpy rollout
kernel; its stream 0 is the stream of `rollout` with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import (
    rollout_batch_numpy,
    sample_successor,
    splitmix_init,
    splitmix_next,
    wilson_interval,
)
from .product_mdp import ProductMdp, describe_spec_state


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


def _absorption_class(m: ProductMdp, z: int) -> str | None:
    if m.accepting[z]:
        return "accept"
    if m.sink[z]:
        return "sink"
    return None


def default_max_steps(m: ProductMdp) -> int:
    """Step budget after which the bus-style missions are fully classified:
    every event clock is capped, and windows expire within their bounds."""
    points = getattr(m.sta, "points", {})
    max_t = max(points.values(), default=0)
    trunc = getattr(m.sta, "trunc", None)
    max_win = 0
    if trunc is not None:
        max_win = max((T for name, T in trunc.points
                       if name not in points), default=0)
    return max_t + max_win + 8


def rollout(m: ProductMdp, policy, seed: int, max_steps: int | None = None
            ) -> Trajectory:
    """Sample one trajectory following `policy` from the initial state."""
    if max_steps is None:
        max_steps = default_max_steps(m)
    state = splitmix_init(seed)
    z = m.z0
    indices = [z]
    actions: list[str] = []
    z_text = _state_text(m.states[z])
    lines = [z_text]
    outcome = "step-limit"
    for t in range(max_steps + 1):
        cls = _absorption_class(m, z)
        if cls is not None:
            outcome = cls
            break
        if t == max_steps:
            break
        a_name = policy.action_name(z)
        if a_name not in m.actions:
            raise ValueError(f"policy action {a_name!r} undefined at state {z}")
        a = m.action_index(a_name)
        u, state = splitmix_next(state)
        nxt = sample_successor(*m.row(z, a), u)
        ps = m.states[nxt]
        nxt_text = _state_text(ps)
        lines.append(f"--{a_name}--> ({z_text}, {a_name})")
        lines.append(f"--e={{{','.join(sorted(ps.game.occurred))}}}--> "
                     f"{nxt_text}")
        actions.append(a_name)
        indices.append(nxt)
        z, z_text = nxt, nxt_text
    lines.append(f"terminal: {outcome}")
    return Trajectory(outcome, indices, actions, lines)


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
    policy_row = m.n_actions * np.arange(m.n_states) + policy.action_index
    outcomes = rollout_batch_numpy(m.row_ptr, m.cols, m.probs, policy_row,
                                   m.accepting, m.sink, m.z0, n, seed,
                                   max_steps)
    successes = int((outcomes == 1).sum())
    tally = {
        "accept": successes,
        "sink": int((outcomes == 2).sum()),
        "step-limit": int((outcomes == 0).sum()),
    }
    return SuccessEstimate(successes / n, *wilson_interval(successes, n),
                           successes, n, tally)
