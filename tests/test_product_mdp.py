import random

import numpy as np
import pytest

from mitlplan.formula import (
    EventSet,
    Geometric,
    env_subsets,
    parse,
    substitute_dist,
    uniform_truncation_vector,
)
from mitlplan.game_model import GridWorldConfig, build_gridworld, load_game
from mitlplan.product_mdp import (
    DOT_MAX_STATES,
    ROW_SUM_TOL,
    ProductError,
    build_product,
    model_hash,
)
from mitlplan.solver import value_iteration
from mitlplan.stochastic_ta import StaModel, truncate
from mitlplan.timed_automata import ProgressionDta, TimedWord, build_dta

from _oracles import (ReferenceGrid, TableKernel, product_state,
                      reference_product)
from conftest import (
    DATA,
    BUS_CASE1,
    BUS_CASE2,
    THREE_BUS,
    build_case,
    grid_config,
)
from test_game_model import config_with_events, random_grid_config


def test_initial_state(case1_T3):
    m, _ = case1_T3
    s, q = product_state(m, m.z0)
    assert s.robot == (0, 0)
    assert s.pending == {"b1", "b2"} == q.pending
    assert q.clocks == (0, 0)


def test_rows_normalized(case1_T3):
    m, _ = case1_T3
    sums = np.add.reduceat(m.probs, m.row_ptr[:-1])
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_motion_times_outcome_factor(case1_T3):
    # east move succeeding while only the fast bus fires: 0.8 * 0.56
    m, _ = case1_T3
    a = m.actions.index("E")
    want = None
    for z2, p in m.successors(m.z0, a):
        s, _ = product_state(m, z2)
        if s.robot == (1, 0) and s.occurred == {"b1"}:
            want = p
    assert want == pytest.approx(0.8 * 0.56, abs=1e-12)


def test_absorbing_self_loops(case1_T3):
    m, _ = case1_T3
    assert int(m.accepting.sum()) > 0 and int(m.sink.sum()) > 0
    for z in np.flatnonzero(m.absorbing):
        for a in range(m.n_actions):
            assert m.successors(z, a) == [(z, 1.0)]
            assert m.reward_row[z * m.n_actions + a] == 0.0


def test_reward_on_entry_only(case1_T3):
    # a row earns the mass of its accepting successors, and nothing at an
    # absorbing state
    m, _ = case1_T3
    assert m.accepting.any() and m.sink.any()
    for z in range(m.n_states):
        for a in range(m.n_actions):
            want = 0.0
            if not m.absorbing[z]:
                for z2, p in m.successors(z, a):
                    if m.accepting[z2]:
                        want += p
            assert m.reward_row[z * m.n_actions + a] == want


def test_marginalization_recovers_game_kernel(case1_T3):
    m, _ = case1_T3
    game, sta = ReferenceGrid(grid_config(m.sta.events.entries)), m.sta
    checked = 0
    for z in range(m.n_states):
        if m.absorbing[z]:
            continue
        s, q = product_state(m, z)
        env = sta.env_outcome_dist(q)
        for a, action in enumerate(m.actions):
            got: dict = {}
            for z2, p in m.successors(z, a):
                key, _ = product_state(m, z2)
                got[key] = got.get(key, 0.0) + p
            want: dict = {}
            for e in env_subsets(s.pending):
                for s2, pg in game.transitions(s, action, e):
                    want[s2] = want.get(s2, 0.0) + pg * env[e]
            assert set(got) == set(want)
            for key in got:
                assert got[key] == pytest.approx(want[key], abs=1e-12)
            checked += 1
        if checked > 400:
            break
    assert checked > 100


def test_event_mismatch_rejected(bus1_sta, case1_T3):
    _, tv = case1_T3
    cfg = GridWorldConfig(2, 2, (0, 0), (), (("zz", Geometric(0.5)),))
    game = build_gridworld(cfg)
    with pytest.raises(ProductError):
        build_product(game, truncate(bus1_sta, tv))


def test_game_event_mismatch_rejected():
    f = parse("F[0,3] goal")
    u = EventSet.from_formula(f)
    game = load_game((DATA / "toy.game").read_text())
    # toy game declares event b, formula has none
    with pytest.raises(ProductError):
        ts = truncate(StaModel(build_dta(substitute_dist(f)), u),
                      uniform_truncation_vector(f, u, 3))
        build_product(game, ts)


def test_no_pending_events_reduces_to_game_kernel():
    # without external events every step has automaton probability one,
    # so product rows are exactly the motion kernel
    f = parse("F goal")
    u = EventSet.from_formula(f)
    ts = truncate(StaModel(build_dta(substitute_dist(f)), u),
                  uniform_truncation_vector(f, u, 0))
    game = ReferenceGrid(GridWorldConfig(
        2, 2, (0, 0), (("goal", (1, 1)),), ()))
    m = build_product(game.game, ts)
    for z in range(m.n_states):
        if m.absorbing[z]:
            continue
        s, _ = product_state(m, z)
        for a, action in enumerate(m.actions):
            got = {product_state(m, z2)[0].robot: p
                   for z2, p in m.successors(z, a)}
            want = dict(game.motion(s.robot, action))
            assert got == want


def test_trivial_formula_product_counts():
    # no events, tautology: one accepting product state per reachable cell
    f = parse("true")
    u = EventSet.from_formula(f)
    ts = truncate(StaModel(build_dta(f), u),
                  uniform_truncation_vector(f, u, 0))
    game = build_gridworld(GridWorldConfig(3, 2, (0, 0), (), ()))
    m = build_product(game, ts)
    assert m.accepting[m.z0]
    assert m.n_states == 1  # absorbing initial state, nothing else expanded


def test_state_count_grows_with_T():
    prev = None
    for T in (3, 4, 5):
        m, _ = build_case(BUS_CASE1, T)
        if prev is not None:
            assert m.n_states > prev
        prev = m.n_states


def test_stats_and_dumps(case1_T3):
    m, _ = case1_T3
    text = m.to_text()
    assert f"init {m.z0}" in text
    assert text.count("\ntrans ") == m.n_edges
    assert m.n_states > DOT_MAX_STATES
    with pytest.raises(ProductError):
        m.to_dot()


def test_build_deterministic(case1_T3):
    m, _ = case1_T3
    m2, _ = build_case(BUS_CASE1, 3)
    assert m2.n_states == m.n_states
    assert np.array_equal(m2.cols, m.cols)
    assert np.array_equal(m2.probs, m.probs)
    assert [product_state(m2, z)[0] for z in range(m2.n_states)] == \
        [product_state(m, z)[0] for z in range(m.n_states)]


def test_model_hash_sensitivity():
    h1 = model_hash("f", "env", "t")
    assert h1 == model_hash("f", "env", "t")
    assert h1 != model_hash("f2", "env", "t")
    assert h1 != model_hash("f", "env2", "t")
    assert h1 != model_hash("f", "env", "t2")


# ---------------------------------------------------------------------------
# the array-based construction against the state-at-a-time reference
# ---------------------------------------------------------------------------

TOY = "D{geom:0.5} b & F (b & F[0,1] goal)"


def truncated(formula_text, T):
    f = parse(formula_text)
    u = EventSet.from_formula(f)
    return u, truncate(StaModel(build_dta(substitute_dist(f)), u),
                       uniform_truncation_vector(f, u, T))


def grid_inputs(formula_text, T, width, height, start, stations, slip):
    u, tsta = truncated(formula_text, T)
    grid = ReferenceGrid(GridWorldConfig(width, height, start, stations,
                                         tuple(u.entries), slip))
    return grid, tsta


def toy_inputs(T, game_text=None):
    _, tsta = truncated(TOY, T)
    game = load_game(game_text or (DATA / "toy.game").read_text())
    return TableKernel(game), tsta


def random_grid_inputs(seed, max_bus=2):
    rng = random.Random(seed)
    width, height = rng.randint(2, 5), rng.randint(2, 5)
    cells = [(x, y) for x in range(width) for y in range(height)]
    rng.shuffle(cells)
    n_bus = rng.randint(1, min(max_bus, len(cells) - 1))
    buses = " | ".join(
        f"D{{geom:{rng.choice((0.3, 0.5, 0.8))}}} b{i} & "
        f"F (b{i} & F[0,{rng.randint(1, 3)}] s{i})" for i in range(n_bus))
    forward = rng.choice((0.6, 0.8, 1.0))
    slip = (forward, round(1.0 - forward, 2), 0.0)
    stations = tuple((f"s{i}", cells[1 + i]) for i in range(n_bus))
    return grid_inputs(buses, rng.randint(2, 5), width, height, cells[0],
                       stations, slip)


PRODUCT_CASES = {
    **{f"case1-T{T}": (lambda T=T: grid_inputs(
        BUS_CASE1, T, 4, 4, (0, 0), (("b3", (0, 3)), ("b4", (3, 0))),
        (0.8, 0.1, 0.1))) for T in range(3, 9)},
    **{f"case2-T{T}": (lambda T=T: grid_inputs(
        BUS_CASE2, T, 4, 4, (0, 0), (("b3", (0, 3)), ("b4", (3, 0))),
        (0.8, 0.1, 0.1))) for T in range(3, 9)},
    "toy-T4": lambda: toy_inputs(4),
    # a destination listed twice in one kernel row: the loader folds it
    "toy-repeated-destination-T3": lambda: toy_inputs(3, (
        DATA / "toy.game").read_text().replace(
            "trans h0 go {} -> t0 : 0.7",
            "trans h0 go {} -> t0 : 0.4\ntrans h0 go {} -> t0 : 0.3")),
    "three-bus-4x4-T3": lambda: grid_inputs(
        THREE_BUS, 3, 4, 4, (3, 2), (("s1", (3, 1)), ("s2", (0, 3)),
                                     ("s3", (2, 0))), (0.81, 0.09, 0.1)),
    "no-slip-T6": lambda: grid_inputs(
        "D{geom:0.5} b1 & F b3", 6, 4, 4, (3, 3), (("b3", (0, 3)),),
        (1.0, 0.0, 0.0)),
    **{f"random-grid-{seed}": (lambda seed=seed: random_grid_inputs(seed))
       for seed in range(4)},
}


@pytest.mark.parametrize("case", PRODUCT_CASES)
def test_build_matches_reference(case):
    kernel, tsta = PRODUCT_CASES[case]()
    got = build_product(kernel.game, tsta)
    want = reference_product(kernel, tsta)
    assert got.to_text() == want.to_text()
    assert got.outcome_code.dtype == np.int8
    for name in ("row_ptr", "cols", "outcome_code", "accepting", "sink"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.probs.tobytes() == want.probs.tobytes()


@pytest.mark.parametrize("T", [3, 4])
def test_a_split_row_plans_like_the_row_it_splits(T):
    # `trans h0 go {} -> t0 : 0.7` as two lines whose weights sum to 0.7:
    # the loader lists t0 once with their sum, so the product weighs it
    # (0.1 + 0.6) * q, not 0.1 * q + 0.6 * q
    text = (DATA / "toy.game").read_text()
    split = load_game(text.replace(
        "trans h0 go {} -> t0 : 0.7",
        "trans h0 go {} -> t0 : 0.1\ntrans h0 go {} -> t0 : 0.6"))
    go = split.actions.index("go")
    names = [split.states[j].robot
             for j in split.succ[split.row_ptr[go]:split.row_ptr[go + 1]]]
    assert sorted(names) == ["h0", "hb", "t0", "tb"]
    _, tsta = truncated("D{geom:0.3} b & F (b & F[0,1] goal)", T)
    got = build_product(split, tsta)
    want = build_product(load_game(text), tsta)
    assert got.to_text() == want.to_text()
    assert (value_iteration(got).values.tobytes()
            == value_iteration(want).values.tobytes())


def grid_file_inputs(name, formula_text, T=3):
    cfg = config_with_events((DATA / name).read_text(), formula_text)
    return build_gridworld(cfg), truncated(formula_text, T)[1]


def random_config_inputs(seed, T=3):
    # one bus mission per event of the config, to a station it may lack
    cfg = random_grid_config(seed)
    formula_text = " | ".join(
        f"D{{{d}}} {name} & F ({name} & F[0,2] s{i})"
        for i, (name, d) in enumerate(cfg.events))
    return build_gridworld(cfg), truncated(formula_text, T)[1]


SYNC_CASES = {
    "case1": lambda: grid_file_inputs("case1.grid", BUS_CASE1),
    "case2": lambda: grid_file_inputs("case2.grid", BUS_CASE2),
    "three-bus": lambda: grid_file_inputs("three_bus.grid", THREE_BUS),
    "no-slip": lambda: grid_file_inputs("no_slip.grid", BUS_CASE1),
    "toy": lambda: (load_game((DATA / "toy.game").read_text()),
                    truncated(TOY, 3)[1]),
    **{f"random-{seed}": (lambda seed=seed: random_config_inputs(seed))
       for seed in range(12)},
}


@pytest.mark.parametrize("case", SYNC_CASES)
def test_pending_synchronized(case):
    # both hold by construction; no run-time check reads the pending sets
    m = build_product(*SYNC_CASES[case]())
    sums = np.add.reduceat(m.probs, m.row_ptr[:-1])
    assert np.abs(sums - 1.0).max() <= ROW_SUM_TOL
    # no row is empty, which `reduceat` cannot see: it reads an empty
    # row's sum off the next row's first entry
    assert (np.diff(m.row_ptr) > 0).all()
    live = np.flatnonzero(~m.sink)
    assert live.size > 1
    for z in live.tolist():
        s, q = product_state(m, z)
        assert s.pending == q.pending, z


def test_validate_rejects_a_row_that_does_not_sum_to_one(case1_T3):
    m, _ = case1_T3
    m2 = build_product(m.game, m.sta)
    m2.validate()
    r = m2.n_actions * 5 + 1
    m2.probs[m2.row_ptr[r]:m2.row_ptr[r + 1]] *= 1.0 + 1e-6
    with pytest.raises(ProductError, match=f"^row {r} sums to "):
        m2.validate()


# missions won at once by a start on s2, so that a warm-up can number
# another initial automaton state first; without an event, the initial
# product state is reached again
WARM_MISSIONS = {"bus": "s2 | D{geom:0.5} b1 & F (b1 & F[0,2] s1)",
                 "no-event": "s2 | F s1"}


def count_steps(sta, word):
    """The `StaModel.step` calls `sta.run_word(word)` makes."""
    calls = []
    step = sta.step
    sta.step = lambda *args: calls.append(args) or step(*args)
    try:
        sta.run_word(word)
    finally:
        del sta.step
    return len(calls)


@pytest.mark.parametrize("warm_up", ["monitor-words", "another-game"])
@pytest.mark.parametrize("mission", WARM_MISSIONS)
def test_product_on_a_warm_model_matches_a_fresh_one(mission, warm_up):
    f = parse(WARM_MISSIONS[mission])
    u = EventSet.from_formula(f)
    dta = ProgressionDta(substitute_dist(f))
    trunc = uniform_truncation_vector(f, u, 3)

    def grid(width, start):
        return build_gridworld(GridWorldConfig(
            width, width, start, (("s1", (width - 1, width - 1)),
                                  ("s2", (0, width - 1))),
            tuple(u.entries), (0.8, 0.1, 0.1)))

    game = grid(3, (0, 0))
    fresh = build_product(game, StaModel(dta, u, trunc))
    warm = StaModel(dta, u, trunc)
    if warm_up == "monitor-words":
        for word in ([{"s2"}, {"b1"}], [set(), {"b1", "s1"}, set()]):
            warm.run_word(TimedWord.from_sets(word))
    else:
        assert build_product(grid(2, (0, 1)), warm).n_states == 1
    got = build_product(game, warm)
    assert got.spec_of[0] != 0 == fresh.spec_of[0]
    if mission == "no-event":
        assert 0 in got.cols  # the initial state, reached again
    assert got.to_text() == fresh.to_text()
    for name in ("row_ptr", "cols", "probs", "outcome_code"):
        assert getattr(got, name).tobytes() == getattr(fresh, name).tobytes()
    assert value_iteration(got).values.tobytes() == \
        value_iteration(fresh).values.tobytes()
    # a word along the product's first edge is served from the memo
    z1 = got.cols[got.row_ptr[0]]
    word = TimedWord.from_sets(
        [game.labels[game.label_of[g]] for g in (0, got.game_of[z1])])
    assert count_steps(warm, word) == 0
    assert count_steps(StaModel(dta, u, trunc), word) == 1


def test_cap_is_the_exact_state_count(case1_T3):
    m, _ = case1_T3
    n = m.n_states
    assert len(m.spec_of) == len(m.outcome_code) == n
    assert build_product(m.game, m.sta, cap=n).n_states == n
    with pytest.raises(ProductError, match=f"product exceeded {n - 1} states"):
        build_product(m.game, m.sta, cap=n - 1)


# ---------------------------------------------------------------------------
# the product over an automaton that computes only the entries it steps
# ---------------------------------------------------------------------------

ON_DEMAND_CASES = {
    **{case: make for case, make in PRODUCT_CASES.items()
       if not case.startswith("random-grid")},
    **{f"random-grid-{seed}-up-to-3-events": (
        lambda seed=seed: random_grid_inputs(seed, max_bus=3))
       for seed in range(100, 108)},
}


def _spec_formulas(m):
    """Per product state: its automaton state with the location formula in
    place of the location index, which depends on the order of steps."""
    dta = m.sta.dta
    return [(None if q.sink else dta.locations[q.config], q.clocks,
             q.pending, q.sink) for q in m.spec_states]


@pytest.mark.parametrize("case", ON_DEMAND_CASES)
def test_on_demand_automaton_gives_the_same_product(case):
    kernel, tsta = ON_DEMAND_CASES[case]()
    game = kernel.game
    want = build_product(game, tsta)
    init = tsta.dta.locations[tsta.dta.init_index]
    lazy = truncate(StaModel(ProgressionDta(init), tsta.events), tsta.trunc)
    got = build_product(game, lazy)
    for name in ("row_ptr", "cols", "probs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert np.array_equal(got.game_of, want.game_of)
    got_spec, want_spec = _spec_formulas(got), _spec_formulas(want)
    assert [got_spec[q] for q in got.spec_of] == \
        [want_spec[q] for q in want.spec_of]
    assert lazy.dta.location_count <= tsta.dta.location_count
