"""Two-player turn-based probabilistic game models.

The robot picks an action, the environment resolves a subset of the still
pending external events, and the successor state is drawn from the kernel
for that (state, action, outcome) triple.  States are factored into the
robot component, an optional environment component, the pending-event set,
and the events that fired on entry (the latter feeds the labeling: the
label of a successor reached with outcome e must show exactly e among the
external events).

Two concrete models: the grid world with slip dynamics and bouncing walls,
and a generic explicit game read from a text file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .formula import DistributionSpec, FormulaError, parse_distribution


class GameError(ValueError):
    pass


@dataclass(frozen=True)
class GameState:
    robot: object
    env: object
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


@dataclass(frozen=True, eq=False)
class CompiledGame:
    """The reachable states of a game as integer tables.

    State ids follow breadth-first discovery from the initial state (id 0).
    Row ``s * n_actions + a`` of the CSR arrays lists the successors of
    state s under action a: for each outcome e in `env_subsets` order, the
    rows of `Game.transitions` in their order.
    """

    states: tuple[GameState, ...]
    labels: tuple[frozenset[str], ...]   # label id -> label
    label_of: np.ndarray                 # state id -> label id
    row_ptr: np.ndarray
    succ: np.ndarray                     # successor state ids
    prob: np.ndarray


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
                        raise GameError(
                            f"kernel row ({s.brief()}, {a}, {set(e) or '{}'}) "
                            f"sums to {total!r}")
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
                            raise GameError(
                                f"label of {s2.brief()} shows "
                                f"{sorted(shown[j])}, outcome was {sorted(e)}")
                        if s2.pending != rest:
                            raise GameError(
                                f"pending of {s2.brief()} is not {sorted(rest)}")
                        succ.append(j)
                        prob.append(p)
                row_len.append(len(succ) - start)
        row_ptr = np.zeros(len(row_len) + 1, dtype=np.int64)
        np.cumsum(row_len, out=row_ptr[1:])
        return CompiledGame(tuple(states), tuple(label_index),
                            np.array(label_of, dtype=np.int64), row_ptr,
                            np.array(succ, dtype=np.int64),
                            np.array(prob, dtype=np.float64))


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
        width = int(fields["width"])
        height = int(fields["height"])
    except KeyError as exc:
        raise GameError(f"missing grid key {exc.args[0]!r}") from None
    start = _parse_cell(fields.get("start", "(0,0)"), 0)
    slip = (0.8, 0.1, 0.1)
    if "slip" in fields:
        parts = fields["slip"].split(",")
        if len(parts) != 3:
            raise GameError("slip needs three components: forward,left,right")
        slip = tuple(float(p) for p in parts)
    return GridWorldConfig(width, height, start, tuple(stations),
                           tuple(events), slip)


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
        self.initial = GameState(cfg.start, None, frozenset(self.events),
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
        return [(GameState(cell, None, pending, frozenset(e)), p)
                for cell, p in self.motion(s.robot, action)]


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
        return GameState(name, None, self._pending[name], occurred)

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
