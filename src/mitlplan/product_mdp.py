"""Product of a game model with a truncated stochastic timed automaton.

States pair a game state with an automaton state.  For a robot action a,
the successor weight of (s', h') is P(s' | s, a, e) * p where e is the
event part of s''s label and p the automaton's probability for consuming
that label.  Accepting product states (automaton accepted) and sink states
(clock truncation fired or the automaton rejected) are absorbing with a
unit self-loop per action; reaching an accepting state earns reward one,
so the optimal expected total reward is the maximal satisfaction
probability.

Only states reachable from the initial state are materialized, in a fixed
breadth-first order with sorted successor enumeration, so state indices
are deterministic for a given model.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .game_model import Game, GameState, env_subsets
from .stochastic_ta import StaState, TruncatedSta


class ProductError(ValueError):
    pass


STAY_ACTION = "stay"


@dataclass(frozen=True)
class ProductState:
    game: GameState
    spec: StaState


class ProductMdp:
    """Explicit reachable product with CSR transition storage.

    Row r = z * n_actions + a holds the successor distribution of state z
    under action a.  `accepting` and `sink` are disjoint absorbing classes;
    values are pinned to zero there (reward is earned on entry).
    """

    def __init__(self, game, sta, states, z0, actions, row_ptr, cols, probs,
                 accepting, sink):
        self.game = game
        self.sta = sta
        self.states: list[ProductState] = states
        self.z0 = z0
        self.actions = tuple(actions)
        self.n_actions = len(self.actions)
        self.row_ptr = row_ptr
        self.cols = cols
        self.probs = probs
        self.accepting = accepting
        self.sink = sink
        self.absorbing = accepting | sink
        self.reward_row = self._reward_rows()

    def _reward_rows(self) -> np.ndarray:
        acc = self.accepting[self.cols] * self.probs
        sums = np.add.reduceat(acc, self.row_ptr[:-1])
        # a row of an accepting state keeps reward 0: reward needs z not in F
        state_of_row = np.repeat(np.arange(len(self.states)), self.n_actions)
        sums[self.absorbing[state_of_row]] = 0.0
        return sums

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_edges(self) -> int:
        return len(self.cols)

    def row(self, z: int, a: int) -> tuple[np.ndarray, np.ndarray]:
        r = z * self.n_actions + a
        sl = slice(self.row_ptr[r], self.row_ptr[r + 1])
        return self.cols[sl], self.probs[sl]

    def successors(self, z: int, a: int):
        cols, probs = self.row(z, a)
        return list(zip(cols.tolist(), probs.tolist()))

    def action_index(self, name: str) -> int:
        return self.actions.index(name)

    def reward(self, z: int, a: int, z2: int) -> float:
        return 1.0 if (not self.absorbing[z]) and self.accepting[z2] else 0.0

    def validate(self, tol: float = 1e-10):
        row_sums = np.add.reduceat(self.probs, self.row_ptr[:-1])
        bad = np.argmax(np.abs(row_sums - 1.0))
        if abs(row_sums[bad] - 1.0) > tol:
            raise ProductError(
                f"row {bad} sums to {row_sums[bad]!r}")
        for z, ps in enumerate(self.states):
            if ps.spec.sink or self.sta.is_rejecting(ps.spec):
                continue
            if ps.game.pending != ps.spec.pending:
                raise ProductError(
                    f"pending mismatch at state {z}: game "
                    f"{sorted(ps.game.pending)} vs spec {sorted(ps.spec.pending)}")

    def stats(self, horizon: int | None = None) -> dict:
        out = {
            "states": self.n_states,
            "edges": self.n_edges,
            "accepting": int(self.accepting.sum()),
            "sink": int(self.sink.sum()),
            "note": "reachable product with fused environment turns; "
                    "counts are construction dependent",
        }
        if horizon is not None:
            out["sink_mass_horizon"] = horizon
            out["sink_mass"] = self.sink_mass(horizon)
        return out

    def sink_mass(self, horizon: int) -> float:
        """Probability of sitting in a sink state after `horizon` steps
        under the uniformly random policy."""
        n = self.n_states
        src = np.repeat(np.arange(n * self.n_actions), np.diff(self.row_ptr))
        src //= self.n_actions
        d = np.zeros(n)
        d[self.z0] = 1.0
        for _ in range(horizon):
            w = self.probs * d[src] / self.n_actions
            d = np.bincount(self.cols, weights=w, minlength=n)
        return float(d[self.sink].sum())

    def to_text(self, header: str = "") -> str:
        lines = ["# product-mdp"]
        if header:
            lines.append(f"# {header}")
        lines.append(f"# states {self.n_states} actions {self.n_actions} "
                     f"edges {self.n_edges}")
        lines.append(f"init {self.z0}")
        for z, ps in enumerate(self.states):
            tags = []
            if self.accepting[z]:
                tags.append("accepting")
            if self.sink[z]:
                tags.append("sink")
            spec = describe_spec_state(ps.spec)
            lines.append(f"state {z} {ps.game.brief()} {spec} {' '.join(tags)}".rstrip())
        for z in range(self.n_states):
            for a, name in enumerate(self.actions):
                for z2, p in self.successors(z, a):
                    lines.append(f"trans {z} {name} {z2} : {p!r}")
        return "\n".join(lines) + "\n"

    def to_dot(self, max_states: int = 200) -> str:
        if self.n_states > max_states:
            raise ProductError(
                f"refusing DOT export beyond {max_states} states")
        lines = ["digraph product {", "  rankdir=LR;"]
        for z in range(self.n_states):
            shape = ("doublecircle" if self.accepting[z]
                     else "box" if self.sink[z] else "circle")
            lines.append(f'  z{z} [shape={shape}];')
        for z in range(self.n_states):
            if self.absorbing[z]:
                continue
            for a, name in enumerate(self.actions):
                for z2, p in self.successors(z, a):
                    lines.append(f'  z{z} -> z{z2} [label="{name}:{p:.4g}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def describe_spec_state(q: StaState) -> str:
    if q.sink:
        return "(sink)"
    loc = q.config if isinstance(q.config, (int, str)) else q.config[0]
    loc = f"q{loc}" if isinstance(loc, int) else str(loc)
    clocks = ",".join(str(c) for c in q.clocks)
    pend = "{" + ",".join(sorted(q.pending)) + "}"
    return f"({loc}, [{clocks}], {pend})"


def build_product(game: Game, tsta: TruncatedSta,
                  cap: int = 2_000_000) -> ProductMdp:
    """Forward-reachable product construction.

    The automaton consumes the label of the successor game state with a
    unit advance; the initial automaton state consumes the initial label
    with zero elapsed time and probability one.
    """
    if set(game.events) != set(tsta.event_names):
        raise ProductError(
            f"event sets differ: game {sorted(game.events)} vs "
            f"automaton {sorted(tsta.event_names)}")
    s0 = game.initial
    q0, p0 = tsta.initial(game.label(s0))
    if p0 != 1.0:
        raise ProductError("initial label claims an external event")
    z0 = ProductState(s0, q0)
    index: dict[ProductState, int] = {z0: 0}
    states: list[ProductState] = [z0]
    rows: list[list[tuple[int, float]]] = []
    frontier = deque([0])
    expanded = 0

    def state_id(ps: ProductState) -> int:
        j = index.get(ps)
        if j is None:
            if len(states) >= cap:
                raise ProductError(f"product exceeded {cap} states")
            j = len(states)
            index[ps] = j
            states.append(ps)
            frontier.append(j)
        return j

    while frontier:
        z = frontier.popleft()
        ps = states[z]
        expanded += 1
        if tsta.is_absorbing(ps.spec):
            for _ in game.actions:
                rows.append([(z, 1.0)])
            continue
        for action in game.actions:
            acc: dict[int, float] = {}
            for e in env_subsets(ps.game.pending):
                for s2, pg in game.transitions(ps.game, action, e):
                    q2, pq = tsta.step(ps.spec, game.label(s2))
                    p = pg * pq
                    if p <= 0.0:
                        continue
                    j = state_id(ProductState(s2, q2))
                    acc[j] = acc.get(j, 0.0) + p
            if not acc:
                raise ProductError(
                    f"state {z} action {action!r} has no successors")
            rows.append(sorted(acc.items()))

    n_actions = len(game.actions)
    n_rows = len(states) * n_actions
    assert len(rows) == n_rows
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    for r, row in enumerate(rows):
        row_ptr[r + 1] = row_ptr[r] + len(row)
    cols = np.empty(row_ptr[-1], dtype=np.int64)
    probs = np.empty(row_ptr[-1], dtype=np.float64)
    for r, row in enumerate(rows):
        base = row_ptr[r]
        for k, (j, p) in enumerate(row):
            cols[base + k] = j
            probs[base + k] = p
    accepting = np.zeros(len(states), dtype=bool)
    sink = np.zeros(len(states), dtype=bool)
    for z, ps in enumerate(states):
        if ps.spec.sink or tsta.is_rejecting(ps.spec):
            sink[z] = True
        elif tsta.is_accepting(ps.spec):
            accepting[z] = True
    return ProductMdp(game, tsta, states, 0, game.actions,
                      row_ptr, cols, probs, accepting, sink)


def model_hash(formula_text: str, env_text: str, trunc) -> str:
    """Stable content hash binding a formula, environment, and truncation."""
    h = hashlib.sha256()
    h.update(formula_text.encode())
    h.update(b"\x00")
    h.update(env_text.encode())
    h.update(b"\x00")
    h.update(str(trunc).encode())
    return h.hexdigest()[:16]
