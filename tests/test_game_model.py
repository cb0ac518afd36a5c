import random

import numpy as np
import pytest

from mitlplan import game_model
from mitlplan.formula import EventSet, Geometric, env_subsets, parse
from mitlplan.game_model import (
    MAX_STATES,
    GameError,
    GameState,
    GridWorldConfig,
    build_gridworld,
    concat_ranges,
    load_game,
    parse_gridworld_config,
)

from _oracles import ReferenceGrid, compile_one_at_a_time
from conftest import DATA, THREE_BUS, grid_config


@pytest.fixture(scope="module")
def grid():
    return ReferenceGrid(grid_config(
        (("b1", Geometric(0.8)), ("b2", Geometric(0.3)))))


def label_of(game, s):
    ids = {t: i for i, t in enumerate(game.states)}
    return game.labels[game.label_of[ids[s]]]


def test_grid_basics(grid):
    game = grid.game
    assert game.actions == grid.actions == ("N", "W", "E", "S")
    assert game.events == grid.events == ("b1", "b2")
    assert game.initial == grid.initial
    assert game.initial.robot == (0, 0)
    assert game.initial.pending == {"b1", "b2"}
    assert label_of(game, game.initial) == frozenset() == \
        grid.label(grid.initial)


def test_grid_station_labels(grid):
    s = GameState((0, 3), frozenset(), frozenset())
    assert label_of(grid.game, s) == grid.label(s) == {"b3"}
    s2 = GameState((0, 3), frozenset(), frozenset({"b1"}))
    assert label_of(grid.game, s2) == grid.label(s2) == {"b3", "b1"}


def test_grid_motion_interior(grid):
    dist = dict(grid.motion((1, 1), "E"))
    assert dist == {(2, 1): 0.8, (1, 2): pytest.approx(0.1), (1, 0): pytest.approx(0.1)}


def test_grid_wall_bounce_folds_mass(grid):
    # east wall: intended move stays put with the forward mass
    dist = dict(grid.motion((3, 1), "E"))
    assert dist[(3, 1)] == pytest.approx(0.8)
    assert dist[(3, 2)] == pytest.approx(0.1)
    assert dist[(3, 0)] == pytest.approx(0.1)
    # corner: forward and one slip both bounce
    corner = dict(grid.motion((0, 0), "S"))
    assert corner[(0, 0)] == pytest.approx(0.9)
    assert corner[(1, 0)] == pytest.approx(0.1)


def test_grid_rows_sum_to_one(grid):
    for x in range(4):
        for y in range(4):
            for a in grid.actions:
                assert sum(p for _, p in grid.motion((x, y), a)) == \
                    pytest.approx(1.0, abs=1e-12)


def test_deterministic_slip_singleton():
    cfg = GridWorldConfig(4, 4, (0, 0), (("b3", (0, 3)),),
                          (("b1", Geometric(0.5)),), (1.0, 0.0, 0.0))
    g = ReferenceGrid(cfg)
    assert g.motion((1, 1), "N") == [((1, 2), 1.0)]


def test_grid_transitions_track_outcomes(grid):
    rows = grid.transitions(grid.initial, "E", frozenset({"b1"}))
    assert sum(p for _, p in rows) == pytest.approx(1.0)
    for s2, _ in rows:
        assert s2.occurred == {"b1"}
        assert s2.pending == {"b2"}
        assert grid.label(s2) & set(grid.events) == {"b1"}


def test_grid_validate_passes(grid):
    # the reference compile checks every successor's label
    assert len(compile_one_at_a_time(grid).states) == 16 * 9


def test_enabled_env_actions(grid):
    assert env_subsets({"b1", "b2"}) == [
        frozenset(), frozenset({"b1"}), frozenset({"b2"}),
        frozenset({"b1", "b2"})]
    assert env_subsets(set()) == [frozenset()]
    assert len(env_subsets({"b1"})) == 2


def test_pending_monotone(grid):
    for e in env_subsets(grid.initial.pending):
        for s2, _ in grid.transitions(grid.initial, "N", e):
            assert s2.pending <= grid.initial.pending
            assert (s2.pending == grid.initial.pending) == (not e)


def test_config_validation():
    # the grid compile checks nothing: each of these is caught here
    nan, inf = float("nan"), float("inf")
    cases = [
        (lambda: GridWorldConfig(0, 4, (0, 0), (), ()),
         "grid dimensions must be positive"),
        (lambda: GridWorldConfig(4, 4, (5, 0), (), ()),
         "cell (5, 0) outside the 4x4 grid"),
        (lambda: GridWorldConfig(4, 4, (0, 0), (("b3", (4, 4)),), ()),
         "cell (4, 4) outside the 4x4 grid"),
        (lambda: GridWorldConfig(4, 4, (0, 0), (), (), (0.5, 0.2, 0.2)),
         "slip probabilities (0.5, 0.2, 0.2) must be >= 0 and sum to 1"),
        (lambda: GridWorldConfig(3, 3, (1, 1), (), (), (-0.1, 0.6, 0.5)),
         "slip probabilities (-0.1, 0.6, 0.5) must be >= 0 and sum to 1"),
        (lambda: GridWorldConfig(3, 3, (1, 1), (), (), (nan, 0.5, 0.5)),
         "slip probabilities (nan, 0.5, 0.5) must be >= 0 and sum to 1"),
        (lambda: GridWorldConfig(3, 3, (1, 1), (), (), (inf, 0.0, 0.0)),
         "slip probabilities (inf, 0.0, 0.0) must be >= 0 and sum to 1"),
        (lambda: GridWorldConfig(4, 4, (0, 0), (("b1", (2, 2)),), TWO_EVENTS),
         "station 'b1' is named like an event"),
        (lambda: GridWorldConfig(4, 4, (2, 2), (("s", (0, 0)), ("b2", (2, 2))),
                                 TWO_EVENTS),
         "station 'b2' is named like an event"),
    ]
    for make, message in cases:
        with pytest.raises(GameError) as exc:
            make()
        assert str(exc.value) == message


def test_parse_grid_config_roundtrip():
    text = (DATA / "case1.grid").read_text()
    cfg = parse_gridworld_config(text)
    assert cfg.width == 4 and cfg.height == 4
    assert dict(cfg.stations) == {"b3": (0, 3), "b4": (3, 0)}
    assert dict(cfg.events)["b1"] == Geometric(0.8)
    again = parse_gridworld_config(cfg.canonical_text())
    assert again == cfg


# ---------------------------------------------------------------------------
# the array compile of a grid against the state-at-a-time compile
# ---------------------------------------------------------------------------

def assert_same_compile(got, want, key=lambda s: s):
    """`got` and `want` hold the same states, labels and rows, up to the
    state ids and the order of the actions; `key` maps a state of `got`
    to the state of `want` it stands for."""
    n = len(want.states)
    assert got.events == want.events
    assert key(got.states[0]) == want.states[0]
    assert len(got.states) == n
    got_id = {key(s): i for i, s in enumerate(got.states)}
    assert set(got_id) == set(want.states)
    perm = np.array([got_id[s] for s in want.states])   # want id -> got id
    assert ([got.labels[i] for i in got.label_of[perm]]
            == [want.labels[i] for i in want.label_of])
    # the rows of `got` in the order of the rows of `want`
    assert sorted(got.actions) == sorted(want.actions)
    act = np.array([got.actions.index(a) for a in want.actions])
    rows = (perm[:, None] * len(act) + act).ravel()
    count = np.diff(got.row_ptr)[rows]
    assert np.array_equal(count, np.diff(want.row_ptr))
    entry = concat_ranges(got.row_ptr[rows], count)
    assert np.array_equal(got.succ[entry], perm[want.succ])
    assert got.prob[entry].tobytes() == want.prob.tobytes()


def config_with_events(text, formula):
    cfg = parse_gridworld_config(text)
    return GridWorldConfig(cfg.width, cfg.height, cfg.start, cfg.stations,
                           tuple(EventSet.from_formula(parse(formula)).entries),
                           cfg.slip)


def random_grid_config(seed):
    rng = random.Random(seed)
    width, height = rng.randint(1, 5), rng.randint(1, 5)
    cells = [(x, y) for x in range(width) for y in range(height)]
    events = tuple((f"b{i}", Geometric(0.5)) for i in range(rng.randint(1, 3)))
    stations = tuple((f"s{i}", rng.choice(cells))
                     for i in range(rng.randint(0, 3)))
    slip = rng.choice(((0.8, 0.1, 0.1), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                       (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.9, 0.1, 0.0),
                       (0.81, 0.09, 0.1), (0.7, 0.2, 0.1)))
    return GridWorldConfig(width, height, rng.choice(cells), stations,
                           events, slip)


TWO_EVENTS = (("b1", Geometric(0.8)), ("b2", Geometric(0.3)))
COMPILE_CASES = {
    "case1": lambda: parse_gridworld_config((DATA / "case1.grid").read_text()),
    "case2": lambda: parse_gridworld_config((DATA / "case2.grid").read_text()),
    "three-bus": lambda: config_with_events(
        (DATA / "three_bus.grid").read_text(), THREE_BUS),
    "no-slip": lambda: parse_gridworld_config(
        (DATA / "no_slip.grid").read_text()),
    "1x1": lambda: GridWorldConfig(1, 1, (0, 0), (("s", (0, 0)),),
                                   TWO_EVENTS),
    "1x5-corridor": lambda: GridWorldConfig(1, 5, (0, 2), (("s", (0, 4)),),
                                            TWO_EVENTS),
    "no-slip-start-on-wall": lambda: GridWorldConfig(
        4, 3, (3, 1), (("s", (0, 0)),), TWO_EVENTS, (1.0, 0.0, 0.0)),
    "slip-0.9-0.1-0": lambda: GridWorldConfig(
        3, 4, (1, 1), (("s", (2, 3)),), TWO_EVENTS, (0.9, 0.1, 0.0)),
    "station-on-start": lambda: GridWorldConfig(
        3, 3, (1, 2), (("s", (1, 2)), ("t", (0, 0))), TWO_EVENTS),
    "two-stations-on-a-cell": lambda: GridWorldConfig(
        3, 3, (0, 0), (("s", (2, 2)), ("t", (1, 0)), ("u", (2, 2))),
        TWO_EVENTS),
    "three-events": lambda: GridWorldConfig(
        3, 2, (0, 1), (("s", (2, 0)),),
        TWO_EVENTS + (("a0", Geometric(0.5)),), (0.7, 0.2, 0.1)),
    **{f"random-{seed}": (lambda seed=seed: random_grid_config(seed))
       for seed in range(12)},
}


@pytest.mark.parametrize("case", COMPILE_CASES)
def test_array_compile_matches_game_compile(case):
    grid = ReferenceGrid(COMPILE_CASES[case]())
    assert_same_compile(grid.game, compile_one_at_a_time(grid))


def test_grid_reaches_every_cell_and_event_pair():
    # the array compile numbers all cells x 3^k (pending, occurred) pairs
    # without a search; `compile_one_at_a_time` searches and must find as
    # many
    rng = random.Random(5)
    shapes = [(1, 1), (1, 6), (6, 1), (1, 2), (2, 2), (3, 4), (5, 3)]
    slips = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
             (0.0, 0.5, 0.5), (0.5, 0.5, 0.0), (0.8, 0.1, 0.1)]
    for i in range(40):
        width, height = shapes[i % len(shapes)]
        k = i % 4
        cells = [(x, y) for x in range(width) for y in range(height)]
        stations = tuple((f"s{j}", rng.choice(cells))
                         for j in range(rng.randint(0, 2)))
        events = tuple((f"b{j}", Geometric(0.5)) for j in range(k))
        cfg = GridWorldConfig(width, height, rng.choice(cells), stations,
                              events, rng.choice(slips))
        grid = ReferenceGrid(cfg)
        n = len(grid.game.states)
        assert n == width * height * 3 ** k, cfg
        assert n == len(compile_one_at_a_time(grid).states), cfg


def test_grid_size_is_checked_before_anything_is_built(monkeypatch):
    # a grid of exactly MAX_STATES states gets as far as its first table,
    # and nothing larger does; none of them is built here
    class Reached(Exception):
        pass

    def reached(cfg):
        raise Reached

    monkeypatch.setattr(game_model, "_motion_table", reached)
    assert 2000 * 1000 == MAX_STATES
    with pytest.raises(Reached):
        build_gridworld(GridWorldConfig(2000, 1000, (0, 0), (), ()))
    four = tuple((f"b{i}", Geometric(0.5)) for i in range(4))
    for cfg, message in [
            (GridWorldConfig(2001, 1000, (0, 0), (), ()),
             "2001x1000 grid with 0 events has 2001000 states, more than "
             "2000000"),
            (GridWorldConfig(158, 158, (0, 0), (), four),
             "158x158 grid with 4 events has 2022084 states, more than "
             "2000000")]:
        with pytest.raises(GameError) as exc:
            build_gridworld(cfg)
        assert str(exc.value) == message


def test_grid_states_decode_once():
    grid = build_gridworld(COMPILE_CASES["case1"]())
    states = grid.states
    assert states[5] is states[5]
    assert grid.enumerate_states() == list(states)
    with pytest.raises(IndexError):
        states[len(states)]


def explicit_text(grid, states):
    """`grid` written out as an explicit game over `states`, state i
    named ``s<i>``."""
    name = {s: f"s{i}" for i, s in enumerate(states)}
    lines = [f"states {' '.join(name.values())}",
             f"actions {' '.join(grid.actions)}",
             f"events {' '.join(grid.events)}",
             f"init {name[grid.initial]}"]
    for s in states:
        lines.append(f"label {name[s]}: {' '.join(sorted(grid.label(s)))}")
        for a in grid.actions:
            for e in env_subsets(s.pending):
                for s2, p in grid.transitions(s, a, e):
                    lines.append(f"trans {name[s]} {a} {{{','.join(sorted(e))}}}"
                                 f" -> {name[s2]} : {p!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", COMPILE_CASES)
def test_explicit_compile_matches_game_compile(case):
    grid = ReferenceGrid(COMPILE_CASES[case]())
    want = compile_one_at_a_time(grid)
    got = load_game(explicit_text(grid, want.states))

    def key(s):     # the grid state that s<i> stands for
        return GameState(want.states[int(s.robot[1:])].robot, s.pending,
                         s.occurred)

    assert_same_compile(got, want, key)


# ---------------------------------------------------------------------------
# explicit games
# ---------------------------------------------------------------------------

def test_load_toy_game():
    g = load_game((DATA / "toy.game").read_text())
    assert g.actions == ("go", "wait")
    assert g.events == ("b",)
    assert g.initial.robot == "h0"
    assert g.initial.pending == {"b"}
    assert g.initial is g.states[0]
    assert len(g.row_ptr) == len(g.states) * len(g.actions) + 1
    assert (np.diff(g.row_ptr) > 0).all()


def test_load_game_bad_row_sum():
    text = """
states s0 s1
actions a
events
init s0
label s0:
label s1:
trans s0 a {} -> s0 : 0.5
trans s0 a {} -> s1 : 0.49
trans s1 a {} -> s1 : 1.0
"""
    with pytest.raises(GameError) as exc:
        load_game(text)
    assert "sums to" in str(exc.value) and "s0" in str(exc.value)


def test_load_game_event_already_occurred():
    text = """
states s0 s1 s2
actions a
events b
init s0
label s0:
label s1: b
label s2: b
trans s0 a {b} -> s1 : 1.0
trans s1 a {b} -> s2 : 1.0
trans s2 a {} -> s2 : 1.0
"""
    with pytest.raises(GameError) as exc:
        load_game(text)
    assert "already occurred" in str(exc.value)


def test_load_game_label_inconsistent_with_outcome():
    text = """
states s0 s1
actions a
events b
init s0
label s0:
label s1: b
trans s0 a {} -> s1 : 1.0
trans s0 a {b} -> s1 : 1.0
trans s1 a {} -> s1 : 1.0
"""
    # s1 is entered both with b pending and after b fired, which the
    # pending walk finds before any label is read
    with pytest.raises(GameError, match=r"^state 's1' reachable with "
                                        r"conflicting pending sets$"):
        load_game(text)


def test_load_game_label_shows_an_event_the_outcome_lacks():
    # every state has one pending set, but s2 is entered with outcome {}
    # while its label shows b
    text = """
states s0 s1 s2
actions a
events b
init s0
label s0:
label s1: b
label s2: b
trans s0 a {} -> s2 : 1.0
trans s0 a {b} -> s1 : 1.0
trans s1 a {} -> s1 : 1.0
trans s2 a {} -> s2 : 1.0
trans s2 a {b} -> s1 : 1.0
"""
    with pytest.raises(GameError, match=r"^label of \(s2, \{b\}, \{b\}\) "
                                        r"shows \['b'\], outcome was \[\]$"):
        load_game(text)


def test_load_game_conflicting_pending_sets():
    # s1 is entered both with b still pending and after b fired
    text = """
states s0 s1
actions a
events b
init s0
label s0:
label s1:
trans s0 a {} -> s1 : 1.0
trans s0 a {b} -> s1 : 1.0
trans s1 a {} -> s1 : 1.0
"""
    with pytest.raises(GameError, match=r"^state 's1' reachable with "
                                        r"conflicting pending sets$"):
        load_game(text)


def test_load_game_missing_row():
    # s1 is reached with b pending but has no row for the outcome {b}
    text = """
states s0 s1 s2
actions a
events b
init s0
label s0:
label s1:
label s2: b
trans s0 a {} -> s1 : 1.0
trans s0 a {b} -> s2 : 1.0
trans s1 a {} -> s1 : 1.0
trans s2 a {} -> s2 : 1.0
"""
    with pytest.raises(GameError, match=r"^no transitions for \('s1', 'a', "
                                        r"\['b'\]\)$"):
        load_game(text)


def test_load_game_reports_the_first_fault_of_its_walk():
    # s1 reuses b, and s2 leads back to s0 after b fired; the pending walk
    # visits the last successor found first, so s2's fault is reported
    text = """
states s0 s1 s2
actions a
events b
init s0
label s0:
label s1: b
label s2: b
trans s0 a {} -> s0 : 1.0
trans s0 a {b} -> s1 : 0.5
trans s0 a {b} -> s2 : 0.5
trans s1 a {b} -> s1 : 1.0
trans s2 a {} -> s0 : 1.0
"""
    with pytest.raises(GameError, match=r"^state 's0' reachable with "
                                        r"conflicting pending sets$"):
        load_game(text)
