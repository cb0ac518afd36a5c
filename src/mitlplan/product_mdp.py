"""Product of a game model with a truncated stochastic timed automaton.

States pair a game state with an automaton state.  For a robot action a,
the successor weight of (s', h') is P(s' | s, a, e) * p where e is the
event part of s''s label and p the automaton's probability for consuming
that label.  Accepting product states (automaton accepted) and sink states
(clock truncation fired or the automaton rejected) are absorbing with a
unit self-loop per action; reaching an accepting state earns reward one,
so the optimal expected total reward is the maximal satisfaction
probability.

Only states reachable from the initial state are materialized.  Their
numbering is a contract that policy, value and product files rely on:
breadth-first discovery from the initial state (index 0), a state's
successors discovered in action order, then outcome order (`env_subsets`),
then the order of the game's transition rows; each CSR row lists its
successors by increasing index, a successor reached more than once
carrying the sum of its weights in discovery order.

`build_product` keeps that numbering with whole-array steps.  The game is
compiled once to integer tables (`Game.compiled`) and the automaton is
stepped once per (state, label) pair (`StepTable`).  The search then
expands one breadth-first layer at a time: every successor of the layer
is packed into an int64 key ``sta_id * n_game + game_id``, looked up
among the sorted keys of the known states, and the new keys get indices
in order of first occurrence.  States are stored as the two id arrays
`game_of` and `spec_of`; `ProductMdp.states` decodes a `ProductState`
on access.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .game_model import (
    CompiledGame,
    Game,
    GameState,
    concat_ranges,
    event_mask,
)
from .stochastic_ta import StaState, StepTable, TruncatedSta


class ProductError(ValueError):
    pass


STAY_ACTION = "stay"
# largest deviation of a row sum from one that `validate` accepts
ROW_SUM_TOL = 1e-10
# `to_dot` refuses products with more states than this
DOT_MAX_STATES = 200


@dataclass(frozen=True)
class ProductState:
    game: GameState
    spec: StaState


class ProductStates(Sequence):
    """The states of a product, each decoded from its game and automaton
    ids when it is read."""

    def __init__(self, m: ProductMdp):
        self._m = m

    def __len__(self) -> int:
        return len(self._m.game_of)

    def __getitem__(self, z: int) -> ProductState:
        m = self._m
        return ProductState(m.compiled.states[m.game_of[z]],
                            m.spec_states[m.spec_of[z]])


class ProductMdp:
    """Explicit reachable product with CSR transition storage.

    State z pairs game state ``compiled.states[game_of[z]]`` with automaton
    state ``spec_states[spec_of[z]]``.  Row r = z * n_actions + a holds the
    successor distribution of state z under action a.  `accepting` and
    `sink` are disjoint absorbing classes; values are pinned to zero there
    (reward is earned on entry).
    """

    def __init__(self, game, sta, compiled: CompiledGame, spec_states,
                 game_of, spec_of, z0, actions, row_ptr, cols, probs,
                 accepting, sink):
        self.game = game
        self.sta = sta
        self.compiled = compiled
        self.spec_states = tuple(spec_states)
        self.game_of = game_of
        self.spec_of = spec_of
        self.states = ProductStates(self)
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
        state_of_row = np.repeat(np.arange(self.n_states), self.n_actions)
        sums[self.absorbing[state_of_row]] = 0.0
        return sums

    @property
    def n_states(self) -> int:
        return len(self.game_of)

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

    def validate(self):
        row_sums = np.add.reduceat(self.probs, self.row_ptr[:-1])
        bad = np.argmax(np.abs(row_sums - 1.0))
        if abs(row_sums[bad] - 1.0) > ROW_SUM_TOL:
            raise ProductError(
                f"row {bad} sums to {row_sums[bad]!r}")
        # pending sets as bit masks over the compiled game's events
        game_pending = self.compiled.pending
        spec_pending = np.array([event_mask(self.compiled.events, q.pending)
                                 for q in self.spec_states], dtype=np.int64)
        # sinks, the truncation sink and rejecting locations, are exempt
        mismatch = np.flatnonzero(
            ~self.sink
            & (game_pending[self.game_of] != spec_pending[self.spec_of]))
        if mismatch.size:
            z = int(mismatch[0])
            ps = self.states[z]
            raise ProductError(
                f"pending mismatch at state {z}: game "
                f"{sorted(ps.game.pending)} vs spec {sorted(ps.spec.pending)}")

    def to_text(self, header: str = "") -> str:
        lines = ["# product-mdp"]
        if header:
            lines.append(f"# {header}")
        lines.append(f"# states {self.n_states} actions {self.n_actions} "
                     f"edges {self.n_edges}")
        lines.append(f"init {self.z0}")
        game_text = [s.brief() for s in self.compiled.states]
        spec_text = [describe_spec_state(q) for q in self.spec_states]
        for z, (g, q, acc, sink) in enumerate(zip(
                self.game_of.tolist(), self.spec_of.tolist(),
                self.accepting.tolist(), self.sink.tolist())):
            lines.append(f"state {z} {game_text[g]} {spec_text[q]}"
                         + " accepting" * acc + " sink" * sink)
        row_of_edge = np.repeat(np.arange(len(self.row_ptr) - 1),
                                np.diff(self.row_ptr))
        for r, z2, p in zip(row_of_edge.tolist(), self.cols.tolist(),
                            self.probs.tolist()):
            z, a = divmod(r, self.n_actions)
            lines.append(f"trans {z} {self.actions[a]} {z2} : {p!r}")
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        if self.n_states > DOT_MAX_STATES:
            raise ProductError(
                f"refusing DOT export beyond {DOT_MAX_STATES} states")
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
    clocks = ",".join(str(c) for c in q.clocks)
    pend = "{" + ",".join(sorted(q.pending)) + "}"
    return f"(q{q.config}, [{clocks}], {pend})"


def build_product(game: Game, tsta: TruncatedSta,
                  cap: int = 2_000_000) -> ProductMdp:
    """Forward-reachable product construction, numbered as the module
    docstring states.

    The automaton consumes the label of the successor game state with a
    unit advance; the initial automaton state consumes the initial label
    with zero elapsed time and probability one.
    """
    if set(game.events) != set(tsta.event_names):
        raise ProductError(
            f"event sets differ: game {sorted(game.events)} vs "
            f"automaton {sorted(tsta.event_names)}")
    g = game.compiled()
    q0, p0 = tsta.initial(g.labels[g.label_of[0]])
    if p0 != 1.0:
        raise ProductError("initial label claims an external event")
    table = StepTable(tsta, g.labels)
    table.intern(q0)
    n_game = len(g.states)
    n_actions = len(game.actions)
    index = _KeyIndex()
    game_of = [np.zeros(1, dtype=np.int64)]
    spec_of = [np.zeros(1, dtype=np.int64)]
    cols: list[np.ndarray] = []
    probs: list[np.ndarray] = []
    row_len: list[np.ndarray] = []
    lo, hi = 0, 1
    while lo < hi:
        # expand states lo..hi-1, the last ones numbered
        z = np.arange(lo, hi)
        live = ~table.absorbing[spec_of[-1]]
        row, s2, q2, p = _live_successors(g, table, n_actions, z[live],
                                          game_of[-1][live],
                                          spec_of[-1][live])
        succ, new_keys = index.number(q2 * n_game + s2, hi)
        if hi + len(new_keys) > cap:
            raise ProductError(f"product exceeded {cap} states")
        game_of.append(new_keys % n_game)
        spec_of.append(new_keys // n_game)
        # absorbing states keep a unit self-loop under every action
        dead = z[~live]
        row = np.concatenate([row, _rows(dead, n_actions)])
        succ = np.concatenate([succ, np.repeat(dead, n_actions)])
        p = np.concatenate([p, np.ones(len(dead) * n_actions)])
        order = np.lexsort((succ, row))
        row, succ, p = _sum_repeats(row[order], succ[order], p[order])
        counts = np.bincount(row - lo * n_actions,
                             minlength=(hi - lo) * n_actions)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            bad, a = divmod(lo * n_actions + int(empty[0]), n_actions)
            raise ProductError(
                f"state {bad} action {game.actions[a]!r} has no successors")
        cols.append(succ)
        probs.append(p)
        row_len.append(counts)
        lo, hi = hi, hi + len(new_keys)

    game_of = np.concatenate(game_of)
    spec_of = np.concatenate(spec_of)
    row_ptr = np.zeros(len(game_of) * n_actions + 1, dtype=np.int64)
    np.cumsum(np.concatenate(row_len), out=row_ptr[1:])
    return ProductMdp(game, tsta, g, table.states, game_of, spec_of, 0,
                      game.actions, row_ptr, np.concatenate(cols),
                      np.concatenate(probs), table.accepting[spec_of],
                      table.sink[spec_of])


def _rows(z: np.ndarray, n_actions: int) -> np.ndarray:
    """The CSR rows of states z, action by action."""
    return (z[:, None] * n_actions + np.arange(n_actions)).ravel()


def _live_successors(g, table: StepTable, n_actions: int, z, gz, qz):
    """The successors with positive weight of states z, which pair game
    states gz with automaton states qz, in discovery order: their CSR rows,
    game ids, automaton ids and weights."""
    game_row = _rows(gz, n_actions)
    start = g.row_ptr[game_row]
    count = g.row_ptr[game_row + 1] - start
    entry = concat_ranges(start, count)
    s2 = g.succ[entry]
    q2, pq = table.step(np.repeat(np.repeat(qz, n_actions), count),
                        g.label_of[s2])
    p = g.prob[entry] * pq
    keep = p > 0.0
    row = np.repeat(_rows(z, n_actions), count)
    return row[keep], s2[keep], q2[keep], p[keep]


class _KeyIndex:
    """Product state indices by packed key, as sorted keys and the index
    of each.  It starts with the initial state: key 0 (automaton id 0,
    game id 0) has index 0."""

    def __init__(self):
        self.keys = np.zeros(1, dtype=np.int64)
        self.z = np.zeros(1, dtype=np.int64)

    def number(self, key: np.ndarray, next_z: int):
        """The index of each key, numbering unknown keys from `next_z` in
        order of first occurrence; also returns those keys in that order."""
        at = np.searchsorted(self.keys, key)
        found = self.keys[np.minimum(at, len(self.keys) - 1)] == key
        z = np.empty(len(key), dtype=np.int64)
        z[found] = self.z[at[found]]
        new, first, inverse = np.unique(key[~found], return_index=True,
                                        return_inverse=True)
        rank = np.empty(len(new), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(new))
        z[~found] = next_z + rank[inverse]
        at = np.searchsorted(self.keys, new)
        self.keys = np.insert(self.keys, at, new)
        self.z = np.insert(self.z, at, next_z + rank)
        return z, new[np.argsort(first)]


def _sum_repeats(row, col, p):
    """Merge runs of equal (row, col) entries of the sorted arrays into one
    entry, adding their weights left to right as a loop would."""
    first = np.ones(len(row), dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
    if first.all():
        return row, col, p
    head = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    pos = np.arange(len(row)) - head[run]
    total = p[head]
    for k in range(1, int(pos.max()) + 1):
        at = pos == k
        total[run[at]] += p[at]
    return row[head], col[head], total


def model_hash(formula_text: str, env_text: str, trunc) -> str:
    """Stable content hash binding a formula, environment, and truncation."""
    h = hashlib.sha256()
    h.update(formula_text.encode())
    h.update(b"\x00")
    h.update(env_text.encode())
    h.update(b"\x00")
    h.update(str(trunc).encode())
    return h.hexdigest()[:16]
