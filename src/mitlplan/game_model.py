"""Two-player turn-based probabilistic game models.

The robot picks an action, the environment resolves a subset of the still
pending external events, and the successor state is drawn from the kernel
for that (state, action, outcome) triple.  States are factored into the
robot component, the pending-event set, and the events that fired on entry
(the latter feeds the labeling: the label of a successor reached with
outcome e must show exactly e among the external events).

A game is the integer tables of its reachable states (`Game`), compiled
from one of two models: the grid world with slip dynamics and bouncing
walls (`build_gridworld`), and a generic explicit game read from a text
file (`load_game`).
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .formula import (
    DistributionSpec,
    FormulaError,
    Record,
    env_subsets,
    mask_subsets,
    parse_distribution,
)


class GameError(ValueError):
    pass


class GameState(NamedTuple):
    robot: object
    pending: frozenset[str]
    occurred: frozenset[str]

    def brief(self) -> str:
        occ = "{" + ",".join(sorted(self.occurred)) + "}"
        pend = "{" + ",".join(sorted(self.pending)) + "}"
        return f"({self.robot}, {occ}, {pend})"


class Game(Record):
    """A game as the integer tables of its reachable states.

    State ids are internal: the initial state has id 0, and nothing else
    may depend on the numbering.  `load_game` numbers states in
    breadth-first discovery order; `build_gridworld` numbers them by cell
    and event masks.  Row ``s * len(actions) + a`` of the CSR arrays lists
    the successors of state s under action a: for each outcome e in
    `env_subsets` order, the kernel's successors for (s, a, e) in their
    order.  Its entries are positive and each row sums to one; a successor
    reached with outcome e has pending set ``s.pending - e`` and a label
    that shows exactly e among the events, so distinct outcomes reach
    distinct states.  A row lists each successor once; `load_game` folds
    a destination repeated for one outcome.  The loader or the config of
    each game makes these hold; `load_game` checks only the labels.
    `label_of` maps state ids to label ids, and `succ` holds state ids.
    A game equals only itself.
    """

    __slots__ = ("actions", "events", "states", "labels", "label_of",
                 "row_ptr", "succ", "prob")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, actions: tuple[str, ...], events: tuple[str, ...],
                 states: Sequence[GameState],
                 labels: tuple[frozenset[str], ...], label_of: np.ndarray,
                 row_ptr: np.ndarray, succ: np.ndarray, prob: np.ndarray):
        self._set(actions, events, states, labels, label_of, row_ptr, succ,
                  prob)

    @property
    def initial(self) -> GameState:
        return self.states[0]

    def enumerate_states(self) -> list[GameState]:
        return list(self.states)


def concat_ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """start[i], ..., start[i] + count[i] - 1 for each i in turn: the
    entries of CSR rows with those starts and lengths."""
    offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count,
                                                count)
    return np.repeat(start, count) + offset


KERNEL_TOL = 1e-12
# most states a game or a product may have; a grid of 1.44 M states
# already peaks at 1.57 GB in a `plan` process
MAX_STATES = 2_000_000


# ---------------------------------------------------------------------------
# Grid world
# ---------------------------------------------------------------------------

GRID_ACTIONS = ("N", "W", "E", "S")

_DIRS = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0)}
_LEFT = {"N": "W", "W": "S", "S": "E", "E": "N"}
_RIGHT = {"N": "E", "E": "S", "S": "W", "W": "N"}


class GridWorldConfig(Record):
    __slots__ = ("width", "height", "start", "stations", "events", "slip")

    def __init__(self, width: int, height: int, start: tuple[int, int],
                 stations: tuple[tuple[str, tuple[int, int]], ...],
                 events: tuple[tuple[str, DistributionSpec], ...],
                 slip: tuple[float, float, float] = (0.8, 0.1, 0.1)):
        if width < 1 or height < 1:
            raise GameError("grid dimensions must be positive")
        for cell in [start] + [c for _, c in stations]:
            x, y = cell
            if not (0 <= x < width and 0 <= y < height):
                raise GameError(f"cell {cell} outside the {width}x{height} grid")
        # written so that a nan or an infinity fails it
        if not (all(p >= 0 for p in slip)
                and abs(sum(slip) - 1.0) <= KERNEL_TOL):
            raise GameError(f"slip probabilities {slip} must be >= 0 and sum to 1")
        names = {name for name, _ in events}
        for atom, _ in stations:
            if atom in names:
                raise GameError(f"station {atom!r} is named like an event")
        self._set(width, height, start, stations, events, slip)

    def canonical_text(self) -> str:
        lines = [
            f"width = {self.width}",
            f"height = {self.height}",
            f"start = ({self.start[0]},{self.start[1]})",
        ]
        for atom, (x, y) in sorted(self.stations):
            lines.append(f"stations.{atom} = ({x},{y})")
        for name, d in sorted(self.events):
            lines.append(f"events.{name} = {d}")
        lines.append("slip = {},{},{}".format(*map(repr, self.slip)))
        return "\n".join(lines) + "\n"


def parse_gridworld_config(text: str) -> GridWorldConfig:
    """Key-value grid description; see canonical_text for the layout.
    `stations.*` keys may repeat, the others may not."""
    fields: dict[str, str] = {}
    stations = []
    events = {}
    start = (0, 0)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GameError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("stations."):
            stations.append((key[len("stations."):], _parse_cell(value, lineno)))
        elif key not in ("width", "height", "start", "slip") \
                and not key.startswith("events."):
            raise GameError(f"line {lineno}: unknown key {key!r}")
        elif key in fields:
            raise GameError(f"line {lineno}: repeated key {key!r}")
        else:
            fields[key] = value
            if key == "start":
                start = _parse_cell(value, lineno)
            elif key.startswith("events."):
                try:
                    events[key[len("events."):]] = parse_distribution(value)
                except FormulaError as exc:
                    raise GameError(f"line {lineno}: {exc}") from None
    try:
        width, height = fields["width"], fields["height"]
    except KeyError as exc:
        raise GameError(f"missing grid key {exc.args[0]!r}") from None
    width, height = _number("width", width, int), _number("height", height, int)
    slip = (0.8, 0.1, 0.1)
    if "slip" in fields:
        parts = fields["slip"].split(",")
        if len(parts) != 3:
            raise GameError("slip needs three components: forward,left,right")
        slip = tuple(_number("slip", p, float) for p in parts)
    return GridWorldConfig(width, height, start, tuple(stations),
                           tuple(events.items()), slip)


def _number(key, text, kind):
    try:
        return kind(text)
    except ValueError:
        raise GameError(f"grid key {key!r}: bad number {text!r}") from None


def _parse_cell(text, lineno):
    m = re.match(r"^\(?\s*(\d+)\s*,\s*(\d+)\s*\)?$", text.strip())
    if not m:
        raise GameError(f"line {lineno}: bad cell {text!r}")
    return (int(m.group(1)), int(m.group(2)))


def build_gridworld(cfg: GridWorldConfig) -> Game:
    """The slip-motion grid of `cfg` as tables, compiled from arrays.

    The robot moves the intended way with probability slip[0], and to the
    left or right of it with slip[1] or slip[2]; hitting a wall stays.  A
    state is a cell ``x * height + y`` and a (pending, occurred) pair of
    event masks.  The motion table over cells x actions is crossed with the
    table of mask pairs, which depends only on the number of events.  Every
    cell x pair is reachable from the start: outcomes lead from pair 0 (all
    pending, none occurred) to every pair whatever the motion; the grid is
    4-connected; and forward, left and right sum to 1, so for each
    direction some action moves that way with positive probability.  So
    state id i is ``pair * n_cells + cell`` minus the start's, modulo the
    state count, and the start has id 0.  Each row lists the successors of
    the state-at-a-time kernel in `tests/_oracles.py`, in its order, with
    the same probabilities.  A grid of more than `MAX_STATES` states raises
    `GameError` before anything is built.  Nothing else is checked, because
    the config leaves nothing to fail: a row holds the slip parts, folded,
    zeros dropped, so its entries are positive and sum to 1 up to rounding;
    with no station named like an event, a label shows exactly the
    occurred events, which are the outcome; and a successor's pending mask
    is its pair's by construction.  The pending masks serve only to decode
    `GameState`s.
    """
    events = tuple(name for name, _ in cfg.events)
    n_cells, n_actions = cfg.width * cfg.height, len(GRID_ACTIONS)
    names = tuple(sorted(set(events)))
    # 3^k mask pairs: each event is pending, just occurred, or occurred
    n_states = n_cells * 3 ** len(names)
    if n_states > MAX_STATES:
        raise GameError(f"{cfg.width}x{cfg.height} grid with {len(names)} "
                        f"events has {n_states} states, more than {MAX_STATES}")
    sets = mask_subsets(names)
    move_cell, move_prob, move_len = _motion_table(cfg)
    pair_pending, pair_occurred, out_ptr, out_len, out_pair = (
        _event_mask_table(sets))

    start = cfg.start[0] * cfg.height + cfg.start[1]    # pair 0
    pair, cell = np.divmod((np.arange(n_states) + start) % n_states,
                           n_cells)
    pending, occurred = pair_pending[pair], pair_occurred[pair]
    states = _GridStates(cfg.height, cell, pending, occurred, sets)

    # labels: one id per (station label, occurred events), reached or not;
    # station labels in order of the first mention of their cell
    station_at: dict[tuple[int, int], frozenset[str]] = {}
    for atom, at in cfg.stations:
        station_at[at] = station_at.get(at, frozenset()) | {atom}
    base_index = {frozenset(): 0}
    station = np.zeros(n_cells, dtype=np.int64)
    for (x, y), base in station_at.items():
        station[x * cfg.height + y] = base_index.setdefault(
            base, len(base_index))
    labels = tuple(base | events for base in base_index for events in sets)
    label_of = station[cell] << len(names) | occurred

    # rows: one block per (state, action, outcome), which holds the
    # motion row of the (cell, action); filled one motion slot at a time
    n_rows = n_states * n_actions
    move_row = (cell[:, None] * n_actions + np.arange(n_actions)).ravel()
    row_outs = out_len[np.repeat(pair, n_actions)]
    block_row = np.repeat(np.arange(n_rows), row_outs)
    block_out = concat_ranges(out_ptr[np.repeat(pair, n_actions)], row_outs)
    block_move = move_row[block_row]
    block_len = move_len[block_move]
    block_start = np.cumsum(block_len) - block_len
    block_pair = out_pair[block_out] * n_cells
    succ = np.empty(block_start[-1] + block_len[-1], dtype=np.int64)
    prob = np.empty(len(succ))
    for k in range(move_cell.shape[1]):
        has = np.flatnonzero(block_len > k)
        at = block_start[has] + k
        succ[at] = (block_pair[has] + move_cell[block_move[has], k]
                    - start) % n_states
        prob[at] = move_prob[block_move[has], k]
    row_ptr = np.concatenate(([0], np.cumsum(move_len[move_row] * row_outs)))
    return Game(GRID_ACTIONS, events, states, labels, label_of, row_ptr,
                succ, prob)


def _motion_table(cfg: GridWorldConfig):
    """The successor cell distribution of every (cell, action), wall
    bounces folded in, in row ``cell * n_actions + a``:
    up to three successor cells by increasing id, padded with -1, their
    probabilities, and how many there are."""
    n_cells = cfg.width * cfg.height
    x, y = np.divmod(np.arange(n_cells), cfg.height)
    dest = []
    for a in GRID_ACTIONS:
        for direction in (a, _LEFT[a], _RIGHT[a]):
            dx, dy = _DIRS[direction]
            nx, ny = x + dx, y + dy
            inside = ((0 <= nx) & (nx < cfg.width)
                      & (0 <= ny) & (ny < cfg.height))
            dest.append(np.where(inside, nx * cfg.height + ny,
                                 x * cfg.height + y))
    dest = np.stack(dest, axis=1).reshape(-1, 3)
    prob = np.tile(np.array(cfg.slip, dtype=np.float64), (len(dest), 1))
    live = prob != 0.0
    # a part that lands where an earlier part did adds its mass to that
    # one, forward, left, right in turn
    for k in (1, 2):
        for j in range(k):
            fold = live[:, j] & live[:, k] & (dest[:, j] == dest[:, k])
            prob[fold, j] += prob[fold, k]
            live[fold, k] = False
    dest[~live] = -1
    prob[~live] = 0.0
    order = np.argsort(np.where(live, dest, n_cells), axis=1, kind="stable")
    return (np.take_along_axis(dest, order, axis=1),
            np.take_along_axis(prob, order, axis=1), live.sum(axis=1))


def _event_mask_table(sets):
    """The (pending, occurred) mask pairs reachable from (all, none), which
    is pair 0, as two mask arrays, and the successors of each pair in
    `env_subsets` outcome order, as CSR arrays (start, length) over the
    successor pair ids."""
    index = {(len(sets) - 1, 0): 0}
    pairs = [(len(sets) - 1, 0)]
    out_len: list[int] = []
    out_pair: list[int] = []
    mask_of = {events: mask for mask, events in enumerate(sets)}
    for pending, _ in pairs:        # grows while it is walked
        outcomes = [mask_of[e] for e in env_subsets(sets[pending])]
        for e in outcomes:
            nxt = (pending & ~e, e)
            out_pair.append(index.setdefault(nxt, len(pairs)))
            if out_pair[-1] == len(pairs):
                pairs.append(nxt)
        out_len.append(len(outcomes))
    pending, occurred = np.array(pairs, dtype=np.int64).T
    out_len = np.array(out_len, dtype=np.int64)
    return (pending, occurred, np.cumsum(out_len) - out_len, out_len,
            np.array(out_pair, dtype=np.int64))


class _GridStates(Sequence):
    """The states of a compiled grid, each decoded to a `GameState` when it
    is first read, and kept."""

    def __init__(self, height, cell, pending, occurred, sets):
        self._height = height
        self._cell = cell
        self._pending = pending
        self._occurred = occurred
        self._sets = sets
        self._decoded: list[GameState | None] = [None] * len(cell)

    def __len__(self) -> int:
        return len(self._decoded)

    def __getitem__(self, i) -> GameState:
        s = self._decoded[i]
        if s is None:
            x, y = divmod(int(self._cell[i]), self._height)
            s = self._decoded[i] = GameState(
                (x, y), self._sets[self._pending[i]],
                self._sets[self._occurred[i]])
        return s


# ---------------------------------------------------------------------------
# Explicit games
# ---------------------------------------------------------------------------

def _derive_pending(kernel, events, init_name) -> dict[str, frozenset[str]]:
    """The pending set of each state the kernel reaches from `init_name`;
    a state reached with two, or an outcome no longer pending, is an error."""
    by_src: dict[str, list] = {}
    for (src, _a, e), rows in kernel.items():
        by_src.setdefault(src, []).append((e, rows))
    pending = {init_name: frozenset(events)}
    frontier = [init_name]
    while frontier:
        name = frontier.pop()
        for e, rows in by_src.get(name, ()):
            if not e <= pending[name]:
                raise GameError(
                    f"transition from {name!r} uses outcome {sorted(e)} "
                    f"with events already occurred")
            nxt = pending[name] - e
            for dst, _p in rows:
                if dst in pending:
                    if pending[dst] != nxt:
                        raise GameError(
                            f"state {dst!r} reachable with conflicting "
                            f"pending sets")
                else:
                    pending[dst] = nxt
                    frontier.append(dst)
    return pending


def _compile_explicit(actions, events, init_name, labels, kernel) -> Game:
    """The states the kernel reaches from `init_name` as tables, numbered
    breadth first: a state's successors are found action by action, outcome
    by outcome (`env_subsets`), then in the order of the kernel's rows,
    where a repeated destination adds its weight to its first entry."""
    pending = _derive_pending(kernel, events, init_name)
    event_set = set(events)
    if labels[init_name] & event_set:
        raise GameError("initial label may not contain external events")

    def state(name) -> GameState:
        return GameState(name, pending[name], labels[name] & event_set)

    index = {init_name: 0}
    names = [init_name]
    succ: list[int] = []
    prob: list[float] = []
    row_ptr = [0]
    for name in names:      # grows while it is walked: breadth first
        outcomes = env_subsets(pending[name])
        for a in actions:
            for e in outcomes:
                rows = kernel.get((name, a, e))
                if rows is None:
                    raise GameError(
                        f"no transitions for ({name!r}, {a!r}, {sorted(e)})")
                folded: dict[str, float] = {}
                for dst, p in rows:
                    folded[dst] = folded.get(dst, 0.0) + p
                for dst, p in folded.items():
                    j = index.setdefault(dst, len(names))
                    if j == len(names):
                        names.append(dst)
                    shown = labels[dst] & event_set
                    if shown != e:
                        raise GameError(
                            f"label of {state(dst).brief()} shows "
                            f"{sorted(shown)}, outcome was {sorted(e)}")
                    succ.append(j)
                    prob.append(p)
            row_ptr.append(len(succ))
    label_index: dict[frozenset[str], int] = {}
    label_of = [label_index.setdefault(labels[name], len(label_index))
                for name in names]
    return Game(actions, events, tuple(map(state, names)),
                tuple(label_index), np.array(label_of, dtype=np.int64),
                np.array(row_ptr, dtype=np.int64),
                np.array(succ, dtype=np.int64), np.array(prob))


def load_game(text: str) -> Game:
    """Parse the explicit game format.

    Directives::

        states s0 s1 ...
        actions go stay ...
        events b1 b2 ...
        init s0
        label s1: b1 atA
        trans s0 go {b1} -> s1 : 0.5

    Each probability lies in (0, 1], checked at its line, and every
    declared (state, action, outcome) row must sum to one; labels of
    successors must show exactly the outcome among the event propositions.
    A name is declared once, a state labelled at most once, and `init` and
    `label` name declared states.
    """
    # declared names, in order
    names: dict[str, None] = {}
    actions: dict[str, None] = {}
    events: dict[str, None] = {}
    init_name = None
    labels: dict[str, frozenset[str]] = {}
    kernel: dict[tuple, list] = {}
    declared = {"states": names, "actions": actions, "events": events}
    trans_re = re.compile(
        r"^trans\s+(\S+)\s+(\S+)\s+\{(.*?)\}\s*->\s*(\S+)\s*:\s*(\S+)\s*$")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *words = line.split()
        if head in declared:
            for name in words:
                if name in declared[head]:
                    raise GameError(f"line {lineno}: {name!r} declared twice")
                declared[head][name] = None
        elif head == "init":
            if len(words) != 1:
                raise GameError(f"line {lineno}: expected 'init <state>'")
            init_name = words[0]
        elif head == "label":
            rest = line[len("label"):].strip()
            state, _, props = rest.partition(":")
            state = state.strip()
            if state in labels:
                raise GameError(f"line {lineno}: {state!r} labelled twice")
            labels[state] = frozenset(props.split())
        elif head == "trans":
            m = trans_re.match(line)
            if not m:
                raise GameError(f"line {lineno}: bad trans line")
            src, act, e_s, dst, p_s = m.groups()
            e = frozenset(x.strip() for x in e_s.split(",") if x.strip())
            try:
                p = float(p_s)
                if not 0.0 < p <= 1.0:      # a nan fails too
                    raise ValueError
            except ValueError:
                raise GameError(f"line {lineno}: bad probability {p_s!r}") from None
            kernel.setdefault((src, act, e), []).append((dst, p))
        else:
            raise GameError(f"line {lineno}: unknown directive {head!r}")

    if init_name is None:
        raise GameError("missing init state")
    for nm in [init_name, *labels]:
        if nm not in names:
            raise GameError(f"undeclared state {nm!r} in init or label")
    for name in names:
        labels.setdefault(name, frozenset())
    for (src, act, e), rows in kernel.items():
        for nm in [src] + [d for d, _ in rows]:
            if nm not in names:
                raise GameError(f"undeclared state {nm!r} in transitions")
        if act not in actions:
            raise GameError(f"undeclared action {act!r}")
        for ev in e:
            if ev not in events:
                raise GameError(f"undeclared event {ev!r}")
        total = sum(p for _, p in rows)
        if abs(total - 1.0) > KERNEL_TOL:
            raise GameError(
                f"row ({src!r}, {act!r}, {set(e) or '{}'}) sums to {total!r}")
    return _compile_explicit(tuple(sorted(actions)), tuple(events),
                             init_name, labels, kernel)
