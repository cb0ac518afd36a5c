"""Two-player turn-based probabilistic game models.

The robot picks an action, the environment resolves a subset of the still
pending external events, and the successor state is drawn from the kernel
for that (state, action, outcome) triple.  States are factored into the
robot component, the pending-event set, and the events that fired on entry
(the latter feeds the labeling: the label of a successor reached with
outcome e must show exactly e among the external events).

Two concrete models: the grid world with slip dynamics and bouncing walls,
and a generic explicit game read from a text file.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .formula import DistributionSpec, FormulaError, parse_distribution


class GameError(ValueError):
    pass


@dataclass(frozen=True)
class GameState:
    robot: object
    pending: frozenset[str]
    occurred: frozenset[str]

    def brief(self) -> str:
        occ = "{" + ",".join(sorted(self.occurred)) + "}"
        pend = "{" + ",".join(sorted(self.pending)) + "}"
        return f"({self.robot}, {occ}, {pend})"


def env_subsets(pending) -> list[frozenset[str]]:
    names = sorted(pending)
    out = []
    for mask in range(1 << len(names)):
        out.append(frozenset(n for i, n in enumerate(names) if mask >> i & 1))
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


def event_mask(names, events) -> int:
    """`events` as a bit mask in which bit i stands for names[i]."""
    return sum(1 << i for i, name in enumerate(names) if name in events)


@dataclass(frozen=True, eq=False)
class CompiledGame:
    """The reachable states of a game as integer tables.

    State ids are internal: the initial state has id 0, and nothing else
    may depend on the numbering.  `Game._compile` numbers states in
    breadth-first discovery order; the grid compile numbers them by its
    own search, which is not that order.  Row ``s * n_actions + a`` of the
    CSR arrays lists the successors of state s under action a: for each
    outcome e in `env_subsets` order, the rows of `Game.transitions` in
    their order.
    """

    states: Sequence[GameState]          # state id -> state
    labels: tuple[frozenset[str], ...]   # label id -> label
    label_of: np.ndarray                 # state id -> label id
    events: tuple[str, ...]              # bit i of an event mask: events[i]
    pending: np.ndarray                  # state id -> pending events' mask
    row_ptr: np.ndarray
    succ: np.ndarray                     # successor state ids
    prob: np.ndarray


def concat_ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """start[i], ..., start[i] + count[i] - 1 for each i in turn: the
    entries of CSR rows with those starts and lengths."""
    offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count,
                                                count)
    return np.repeat(start, count) + offset


def _row_sum_error(s: GameState, action: str, e, total: float) -> GameError:
    return GameError(f"kernel row ({s.brief()}, {action}, {set(e) or '{}'}) "
                     f"sums to {total!r}")


def _label_error(s2: GameState, shown, e) -> GameError:
    return GameError(f"label of {s2.brief()} shows {sorted(shown)}, "
                     f"outcome was {sorted(e)}")


def _pending_error(s2: GameState, rest) -> GameError:
    return GameError(f"pending of {s2.brief()} is not {sorted(rest)}")


KERNEL_TOL = 1e-12


class Game:
    """Interface for the product construction and the validators."""

    actions: tuple[str, ...]
    events: tuple[str, ...]
    initial: GameState
    _compiled: CompiledGame | None = None

    def label(self, s: GameState) -> frozenset[str]:
        raise NotImplementedError

    def transitions(self, s: GameState, action: str, e: frozenset[str]):
        """Successor distribution for (s, action, outcome e), as an ordered
        list of (GameState, probability) with positive probabilities."""
        raise NotImplementedError

    def enumerate_states(self) -> list[GameState]:
        return list(self.compiled().states)

    def validate(self):
        """Exhaustively check kernel normalization, labeling consistency,
        and pending monotonicity over all reachable (s, a, e) triples."""
        self.compiled()

    def compiled(self) -> CompiledGame:
        """The reachable game as integer tables, built and validated on
        the first call and cached on the game."""
        if self._compiled is None:
            self._compiled = self._compile()
        return self._compiled

    def _compile(self) -> CompiledGame:
        events = set(self.events)
        index = {self.initial: 0}
        states = [self.initial]
        label_index: dict[frozenset[str], int] = {}
        label_of = []
        shown = []          # the events each state's label shows

        def add_label(s):
            label = self.label(s)
            label_of.append(label_index.setdefault(label, len(label_index)))
            shown.append(label & events)

        add_label(self.initial)
        succ: list[int] = []
        prob: list[float] = []
        row_len: list[int] = []
        for s in states:        # grows while it is walked: breadth first
            outcomes = env_subsets(s.pending)
            for a in self.actions:
                start = len(succ)
                for e in outcomes:
                    rows = self.transitions(s, a, e)
                    total = sum(p for _, p in rows)
                    if abs(total - 1.0) > KERNEL_TOL:
                        raise _row_sum_error(s, a, e, total)
                    rest = s.pending - e
                    for s2, p in rows:
                        if p <= 0.0:
                            raise GameError("non-positive transition probability")
                        j = index.get(s2)
                        if j is None:
                            j = index[s2] = len(states)
                            states.append(s2)
                            add_label(s2)
                        if shown[j] != e:
                            raise _label_error(s2, shown[j], e)
                        if s2.pending != rest:
                            raise _pending_error(s2, rest)
                        succ.append(j)
                        prob.append(p)
                row_len.append(len(succ) - start)
        row_ptr = np.zeros(len(row_len) + 1, dtype=np.int64)
        np.cumsum(row_len, out=row_ptr[1:])
        names = tuple(sorted(events))
        return CompiledGame(
            states=tuple(states), labels=tuple(label_index),
            label_of=np.array(label_of, dtype=np.int64), events=names,
            pending=np.array([event_mask(names, s.pending) for s in states],
                             dtype=np.int64),
            row_ptr=row_ptr, succ=np.array(succ, dtype=np.int64),
            prob=np.array(prob, dtype=np.float64))


# ---------------------------------------------------------------------------
# Grid world
# ---------------------------------------------------------------------------

GRID_ACTIONS = ("N", "W", "E", "S")

_DIRS = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0)}
_LEFT = {"N": "W", "W": "S", "S": "E", "E": "N"}
_RIGHT = {"N": "E", "E": "S", "S": "W", "W": "N"}


@dataclass(frozen=True)
class GridWorldConfig:
    width: int
    height: int
    start: tuple[int, int]
    stations: tuple[tuple[str, tuple[int, int]], ...]
    events: tuple[tuple[str, DistributionSpec], ...]
    slip: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise GameError("grid dimensions must be positive")
        for cell in [self.start] + [c for _, c in self.stations]:
            x, y = cell
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise GameError(f"cell {cell} outside the {self.width}x{self.height} grid")
        if any(p < 0 for p in self.slip) or abs(sum(self.slip) - 1.0) > 1e-12:
            raise GameError(f"slip probabilities {self.slip} must be >= 0 and sum to 1")

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
    """Key-value grid description; see canonical_text for the layout."""
    fields: dict[str, str] = {}
    stations = []
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GameError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("stations."):
            stations.append((key[len("stations."):], _parse_cell(value, lineno)))
        elif key.startswith("events."):
            try:
                events.append((key[len("events."):], parse_distribution(value)))
            except FormulaError as exc:
                raise GameError(f"line {lineno}: {exc}") from None
        else:
            fields[key] = value
    try:
        width, height = fields["width"], fields["height"]
    except KeyError as exc:
        raise GameError(f"missing grid key {exc.args[0]!r}") from None
    width, height = _number("width", width, int), _number("height", height, int)
    start = _parse_cell(fields.get("start", "(0,0)"), 0)
    slip = (0.8, 0.1, 0.1)
    if "slip" in fields:
        parts = fields["slip"].split(",")
        if len(parts) != 3:
            raise GameError("slip needs three components: forward,left,right")
        slip = tuple(_number("slip", p, float) for p in parts)
    return GridWorldConfig(width, height, start, tuple(stations),
                           tuple(events), slip)


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


class GridWorld(Game):
    """Slip-motion grid: intended direction with probability slip[0],
    perpendicular left/right with slip[1]/slip[2]; hitting a wall stays."""

    def __init__(self, cfg: GridWorldConfig):
        self.cfg = cfg
        self.actions = GRID_ACTIONS
        self.events = tuple(name for name, _ in cfg.events)
        self.station_at = {cell: atom for atom, cell in cfg.stations}
        self.initial = GameState(cfg.start, frozenset(self.events),
                                 frozenset())
        if self.label(self.initial) & set(self.events):
            raise GameError("initial label may not contain external events")
        self._motion_cache: dict = {}

    def base_label(self, cell) -> frozenset[str]:
        atoms = [atom for c, atom in self.station_at.items() if c == cell]
        return frozenset(atoms)

    def label(self, s: GameState) -> frozenset[str]:
        return self.base_label(s.robot) | s.occurred

    def motion(self, cell, action):
        """Successor cell distribution, wall bounces folded in."""
        key = (cell, action)
        got = self._motion_cache.get(key)
        if got is not None:
            return got
        accum: dict[tuple[int, int], float] = {}
        for direction, p in ((action, self.cfg.slip[0]),
                             (_LEFT[action], self.cfg.slip[1]),
                             (_RIGHT[action], self.cfg.slip[2])):
            if p == 0.0:
                continue
            dx, dy = _DIRS[direction]
            nx, ny = cell[0] + dx, cell[1] + dy
            if not (0 <= nx < self.cfg.width and 0 <= ny < self.cfg.height):
                nx, ny = cell
            accum[(nx, ny)] = accum.get((nx, ny), 0.0) + p
        result = sorted(accum.items())
        self._motion_cache[key] = result
        return result

    def transitions(self, s, action, e):
        if action not in self.actions:
            raise GameError(f"unknown action {action!r}")
        if not e <= s.pending:
            raise GameError(f"environment outcome {sorted(e)} not enabled")
        pending = s.pending - e
        return [(GameState(cell, pending, frozenset(e)), p)
                for cell, p in self.motion(s.robot, action)]

    def _compile(self) -> CompiledGame:
        """`Game._compile` on whole arrays.

        A state is a cell ``x * height + y`` and a (pending, occurred) pair
        of event masks.  The motion table over cells x actions is crossed
        with the table of mask pairs, which depends only on the number of
        events, and one breadth-first pass over the two keeps the states
        reachable from the start.  Ids follow that pass, a layer at a time
        in increasing order of ``pair * n_cells + cell``.  Each row lists
        the successors `Game._compile` lists, in its order, with the same
        probabilities, and every check of `Game._compile` runs over all
        entries at once.
        """
        cfg = self.cfg
        n_cells, n_actions = cfg.width * cfg.height, len(self.actions)
        names = tuple(sorted(set(self.events)))
        sets = [frozenset(n for i, n in enumerate(names) if mask >> i & 1)
                for mask in range(1 << len(names))]
        move_cell, move_prob, move_len = self._motion_table()
        pair_pending, pair_occurred, out_ptr, out_len, out_pair, out_e = (
            _event_mask_table(sets))

        # the search, over the successor cells of all actions and the
        # successor pairs of all outcomes
        cell_next = move_cell[move_cell >= 0]
        cell_len = move_len.reshape(n_cells, n_actions).sum(axis=1)
        cell_ptr = np.cumsum(cell_len) - cell_len
        n_full = len(pair_pending) * n_cells
        layer = np.array([cfg.start[0] * cfg.height + cfg.start[1]])  # pair 0
        seen = np.zeros(n_full, dtype=bool)
        seen[layer] = True
        layers = [layer]
        while layer.size:
            pair, cell = np.divmod(layer, n_cells)
            cell2 = cell_next[concat_ranges(cell_ptr[cell], cell_len[cell])]
            pair = np.repeat(pair, cell_len[cell])
            reached = np.zeros(n_full, dtype=bool)
            reached[out_pair[concat_ranges(out_ptr[pair], out_len[pair])]
                    * n_cells + np.repeat(cell2, out_len[pair])] = True
            layer = np.flatnonzero(reached & ~seen)
            seen[layer] = True
            layers.append(layer)
        full_id = np.concatenate(layers)
        state_of = np.full(n_full, -1, dtype=np.int64)
        state_of[full_id] = np.arange(len(full_id))
        pair, cell = np.divmod(full_id, n_cells)
        pending, occurred = pair_pending[pair], pair_occurred[pair]
        states = _GridStates(cfg.height, cell, pending, occurred, sets)

        # labels: one id per (station label, occurred events), reached or not
        base_index = {frozenset(): 0}
        station = np.zeros(n_cells, dtype=np.int64)
        for x, y in self.station_at:
            station[x * cfg.height + y] = base_index.setdefault(
                self.base_label((x, y)), len(base_index))
        labels = tuple(base | events for base in base_index for events in sets)
        label_of = station[cell] << len(names) | occurred
        shown = np.array([event_mask(names, label) for label in labels],
                         dtype=np.int64)[label_of]          # by state

        # rows: one block per (state, action, outcome), which holds the
        # motion row of the (cell, action); filled one motion slot at a time
        n_rows = len(full_id) * n_actions
        move_row = (cell[:, None] * n_actions + np.arange(n_actions)).ravel()
        row_outs = out_len[np.repeat(pair, n_actions)]
        block_row = np.repeat(np.arange(n_rows), row_outs)
        block_out = concat_ranges(out_ptr[np.repeat(pair, n_actions)],
                                  row_outs)
        block_move = move_row[block_row]
        block_len = move_len[block_move]
        block_start = np.cumsum(block_len) - block_len
        block_pair = out_pair[block_out] * n_cells
        succ = np.empty(block_start[-1] + block_len[-1], dtype=np.int64)
        prob = np.empty(len(succ))
        for k in range(move_cell.shape[1]):
            has = np.flatnonzero(block_len > k)
            at = block_start[has] + k
            succ[at] = state_of[block_pair[has]
                                + move_cell[block_move[has], k]]
            prob[at] = move_prob[block_move[has], k]
        row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(move_len[move_row] * row_outs, out=row_ptr[1:])

        # the checks of `Game._compile`, entry by entry
        total = np.add.reduceat(prob, block_start)
        bad = np.flatnonzero(np.abs(total - 1.0) > KERNEL_TOL)
        if bad.size:
            b = bad[0]
            s, a = divmod(int(block_row[b]), n_actions)
            raise _row_sum_error(states[s], self.actions[a],
                                 sets[out_e[block_out[b]]], float(total[b]))
        if not (prob > 0.0).all():
            raise GameError("non-positive transition probability")
        e = np.repeat(out_e[block_out], block_len)
        bad = np.flatnonzero(shown[succ] != e)
        if bad.size:
            j = succ[bad[0]]
            raise _label_error(states[j], sets[shown[j]], sets[e[bad[0]]])
        rest = np.repeat(pending[block_row // n_actions] & ~out_e[block_out],
                         block_len)
        bad = np.flatnonzero(pending[succ] != rest)
        if bad.size:
            raise _pending_error(states[succ[bad[0]]], sets[rest[bad[0]]])
        return CompiledGame(states=states, labels=labels, label_of=label_of,
                            events=names, pending=pending, row_ptr=row_ptr,
                            succ=succ, prob=prob)

    def _motion_table(self):
        """`motion` of every (cell, action), in row ``cell * n_actions + a``:
        up to three successor cells by increasing id, padded with -1, their
        probabilities, and how many there are."""
        cfg = self.cfg
        n_cells = cfg.width * cfg.height
        x, y = np.divmod(np.arange(n_cells), cfg.height)
        dest = []
        for a in self.actions:
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
        # one, forward, left, right in turn, as `motion` sums them
        for k in (1, 2):
            for j in range(k):
                fold = live[:, j] & live[:, k] & (dest[:, j] == dest[:, k])
                prob[fold, j] += prob[fold, k]
                live[fold, k] = False
        dest[~live] = -1
        prob[~live] = 0.0
        order = np.argsort(np.where(live, dest, n_cells), axis=1,
                           kind="stable")
        return (np.take_along_axis(dest, order, axis=1),
                np.take_along_axis(prob, order, axis=1), live.sum(axis=1))


def _event_mask_table(sets):
    """The (pending, occurred) mask pairs reachable from (all, none), which
    is pair 0, as two mask arrays, and the successors of each pair in
    `env_subsets` outcome order, as CSR arrays (start, length) over the
    successor pair ids and the outcome masks."""
    index = {(len(sets) - 1, 0): 0}
    pairs = [(len(sets) - 1, 0)]
    out_len: list[int] = []
    out_pair: list[int] = []
    out_e: list[int] = []
    mask_of = {events: mask for mask, events in enumerate(sets)}
    for pending, _ in pairs:        # grows while it is walked
        outcomes = [mask_of[e] for e in env_subsets(sets[pending])]
        for e in outcomes:
            nxt = (pending & ~e, e)
            out_pair.append(index.setdefault(nxt, len(pairs)))
            if out_pair[-1] == len(pairs):
                pairs.append(nxt)
            out_e.append(e)
        out_len.append(len(outcomes))
    pending, occurred = np.array(pairs, dtype=np.int64).T
    out_len = np.array(out_len, dtype=np.int64)
    return (pending, occurred, np.cumsum(out_len) - out_len, out_len,
            np.array(out_pair, dtype=np.int64),
            np.array(out_e, dtype=np.int64))


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


def build_gridworld(cfg: GridWorldConfig) -> GridWorld:
    g = GridWorld(cfg)
    g.validate()
    return g


# ---------------------------------------------------------------------------
# Explicit games
# ---------------------------------------------------------------------------

class ExplicitGame(Game):
    def __init__(self, names, actions, events, init_name, labels, kernel):
        self.state_names = list(names)
        self.actions = tuple(actions)
        self.events = tuple(events)
        self._labels = labels
        self._kernel = kernel
        self._pending = self._derive_pending(init_name)
        self.initial = self._mk(init_name)
        if self._labels[init_name] & set(self.events):
            raise GameError("initial label may not contain external events")
        self.validate()

    def _derive_pending(self, init_name) -> dict[str, frozenset[str]]:
        pending = {init_name: frozenset(self.events)}
        frontier = [init_name]
        while frontier:
            name = frontier.pop()
            for (src, _a, e), rows in self._kernel.items():
                if src != name:
                    continue
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

    def _mk(self, name) -> GameState:
        occurred = self._labels[name] & set(self.events)
        return GameState(name, self._pending[name], occurred)

    def label(self, s):
        return frozenset(self._labels[s.robot])

    def transitions(self, s, action, e):
        rows = self._kernel.get((s.robot, action, e))
        if rows is None:
            raise GameError(
                f"no transitions for ({s.robot!r}, {action!r}, {sorted(e)})")
        return [(self._mk(dst), p) for dst, p in rows]


def load_game(text: str) -> ExplicitGame:
    """Parse the explicit game format.

    Directives::

        states s0 s1 ...
        actions go stay ...
        events b1 b2 ...
        init s0
        label s1: b1 atA
        trans s0 go {b1} -> s1 : 0.5

    Every declared (state, action, outcome) row must sum to one; labels of
    successors must show exactly the outcome among the event propositions.
    """
    names: list[str] = []
    actions: list[str] = []
    events: list[str] = []
    init_name = None
    labels: dict[str, frozenset[str]] = {}
    kernel: dict[tuple, list] = {}
    trans_re = re.compile(
        r"^trans\s+(\S+)\s+(\S+)\s+\{(.*?)\}\s*->\s*(\S+)\s*:\s*(\S+)\s*$")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if head == "states":
            names.extend(line.split()[1:])
        elif head == "actions":
            actions.extend(line.split()[1:])
        elif head == "events":
            events.extend(line.split()[1:])
        elif head == "init":
            init_name = line.split()[1]
        elif head == "label":
            rest = line[len("label"):].strip()
            state, _, props = rest.partition(":")
            labels[state.strip()] = frozenset(props.split())
        elif head == "trans":
            m = trans_re.match(line)
            if not m:
                raise GameError(f"line {lineno}: bad trans line")
            src, act, e_s, dst, p_s = m.groups()
            e = frozenset(x.strip() for x in e_s.split(",") if x.strip())
            try:
                p = float(p_s)
            except ValueError:
                raise GameError(f"line {lineno}: bad probability {p_s!r}") from None
            kernel.setdefault((src, act, e), []).append((dst, p))
        else:
            raise GameError(f"line {lineno}: unknown directive {head!r}")

    if init_name is None:
        raise GameError("missing init state")
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
        if abs(total - 1.0) > 1e-12:
            raise GameError(
                f"row ({src!r}, {act!r}, {set(e) or '{}'}) sums to {total!r}")
    actions = sorted(actions)
    return ExplicitGame(names, actions, events, init_name, labels, kernel)
