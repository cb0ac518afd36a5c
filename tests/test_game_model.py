import random

import numpy as np
import pytest

from mitlplan.formula import EventSet, Geometric, parse
from mitlplan.game_model import (
    Game,
    GameError,
    GameState,
    GridWorld,
    GridWorldConfig,
    build_gridworld,
    concat_ranges,
    env_subsets,
    load_game,
    parse_gridworld_config,
)

from conftest import DATA, THREE_BUS, grid_config


@pytest.fixture(scope="module")
def grid():
    return build_gridworld(grid_config(
        (("b1", Geometric(0.8)), ("b2", Geometric(0.3)))))


def test_grid_basics(grid):
    assert grid.actions == ("N", "W", "E", "S")
    assert grid.events == ("b1", "b2")
    assert grid.initial.robot == (0, 0)
    assert grid.initial.pending == {"b1", "b2"}
    assert grid.label(grid.initial) == frozenset()


def test_grid_station_labels(grid):
    s = GameState((0, 3), frozenset(), frozenset())
    assert grid.label(s) == {"b3"}
    s2 = GameState((0, 3), frozenset(), frozenset({"b1"}))
    assert grid.label(s2) == {"b3", "b1"}


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
    g = build_gridworld(cfg)
    assert g.motion((1, 1), "N") == [((1, 2), 1.0)]


def test_grid_transitions_track_outcomes(grid):
    rows = grid.transitions(grid.initial, "E", frozenset({"b1"}))
    assert sum(p for _, p in rows) == pytest.approx(1.0)
    for s2, _ in rows:
        assert s2.occurred == {"b1"}
        assert s2.pending == {"b2"}
        assert grid.label(s2) & set(grid.events) == {"b1"}


def test_grid_validate_passes(grid):
    grid.validate()


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
    with pytest.raises(GameError):
        GridWorldConfig(0, 4, (0, 0), (), ())
    with pytest.raises(GameError):
        GridWorldConfig(4, 4, (5, 0), (), ())
    with pytest.raises(GameError):
        GridWorldConfig(4, 4, (0, 0), (("b3", (4, 4)),), ())
    with pytest.raises(GameError):
        GridWorldConfig(4, 4, (0, 0), (), (), (0.5, 0.2, 0.2))


def test_parse_grid_config_roundtrip():
    text = (DATA / "case1.grid").read_text()
    cfg = parse_gridworld_config(text)
    assert cfg.width == 4 and cfg.height == 4
    assert dict(cfg.stations) == {"b3": (0, 3), "b4": (3, 0)}
    assert dict(cfg.events)["b1"] == Geometric(0.8)
    again = parse_gridworld_config(cfg.canonical_text())
    assert again == cfg


# ---------------------------------------------------------------------------
# the array compile of a grid against the state-at-a-time `Game._compile`
# ---------------------------------------------------------------------------

def assert_same_compile(grid):
    got = grid.compiled()
    want = Game._compile(grid)
    n, n_actions = len(want.states), len(grid.actions)
    assert got.states[0] == want.states[0] == grid.initial
    assert len(got.states) == n
    got_id = {s: i for i, s in enumerate(got.states)}
    assert set(got_id) == set(want.states)
    perm = np.array([got_id[s] for s in want.states])   # want id -> got id
    assert ([got.labels[i] for i in got.label_of[perm]]
            == [want.labels[i] for i in want.label_of])
    assert got.events == want.events
    assert np.array_equal(got.pending[perm], want.pending)
    # the rows of `got` in the order of the rows of `want`
    rows = (perm[:, None] * n_actions + np.arange(n_actions)).ravel()
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
    "three-events": lambda: GridWorldConfig(
        3, 2, (0, 1), (("s", (2, 0)),),
        TWO_EVENTS + (("a0", Geometric(0.5)),), (0.7, 0.2, 0.1)),
    **{f"random-{seed}": (lambda seed=seed: random_grid_config(seed))
       for seed in range(12)},
}


@pytest.mark.parametrize("case", COMPILE_CASES)
def test_array_compile_matches_game_compile(case):
    assert_same_compile(build_gridworld(COMPILE_CASES[case]()))


def test_grid_states_decode_once():
    grid = build_gridworld(COMPILE_CASES["case1"]())
    states = grid.compiled().states
    assert states[5] is states[5]
    assert grid.enumerate_states() == list(states)
    with pytest.raises(IndexError):
        states[len(states)]


def with_slip(cfg, slip):
    """`cfg` with a slip its own validation would refuse."""
    object.__setattr__(cfg, "slip", slip)
    return cfg


BAD_GRIDS = {
    "station-named-like-an-event": lambda: GridWorldConfig(
        4, 4, (0, 0), (("b1", (2, 2)),), TWO_EVENTS),
    "row-sum": lambda: with_slip(GridWorldConfig(
        3, 3, (1, 1), (), TWO_EVENTS), (0.5, 0.2, 0.2)),
    "negative-slip": lambda: with_slip(GridWorldConfig(
        3, 3, (1, 1), (), TWO_EVENTS), (-0.1, 0.6, 0.5)),
}


@pytest.mark.parametrize("case", BAD_GRIDS)
def test_array_compile_rejects_as_game_compile(case):
    want = pytest.raises(GameError, Game._compile,
                         GridWorld(BAD_GRIDS[case]())).value
    with pytest.raises(GameError) as got:
        build_gridworld(BAD_GRIDS[case]())
    assert str(got.value) == str(want)


# ---------------------------------------------------------------------------
# explicit games
# ---------------------------------------------------------------------------

def test_load_toy_game():
    g = load_game((DATA / "toy.game").read_text())
    assert g.actions == ("go", "wait")
    assert g.events == ("b",)
    assert g.initial.robot == "h0"
    assert g.initial.pending == {"b"}
    g.validate()


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
    with pytest.raises(GameError) as exc:
        load_game(text)
    # reached with e={} but label shows b
    assert "label" in str(exc.value) or "pending" in str(exc.value)
