import random

import numpy as np
import pytest

from mitlplan.formula import (
    EventSet,
    Geometric,
    parse,
    substitute_dist,
    uniform_truncation_vector,
)
from mitlplan.game_model import GridWorldConfig, build_gridworld, env_subsets, load_game
from mitlplan.product_mdp import (
    DOT_MAX_STATES,
    ProductError,
    build_product,
    model_hash,
)
from mitlplan.stochastic_ta import StaModel, truncate
from mitlplan.timed_automata import build_dta

from _oracles import reference_product
from conftest import DATA, BUS_CASE1, BUS_CASE2, THREE_BUS, build_case


def test_initial_state(case1_T3):
    m, _ = case1_T3
    z0 = m.states[m.z0]
    assert z0.game.robot == (0, 0)
    assert z0.game.pending == {"b1", "b2"} == z0.spec.pending
    assert z0.spec.clocks == (0, 0)


def test_rows_normalized(case1_T3):
    m, _ = case1_T3
    sums = np.add.reduceat(m.probs, m.row_ptr[:-1])
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_pending_synchronized(case1_T3):
    m, _ = case1_T3
    m.validate()
    for ps in m.states:
        if not ps.spec.sink and not m.sta.is_rejecting(ps.spec):
            assert ps.game.pending == ps.spec.pending


def test_motion_times_outcome_factor(case1_T3):
    # east move succeeding while only the fast bus fires: 0.8 * 0.56
    m, _ = case1_T3
    a = m.actions.index("E")
    want = None
    for z2, p in m.successors(m.z0, a):
        ps = m.states[z2]
        if ps.game.robot == (1, 0) and ps.game.occurred == {"b1"}:
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
    game, sta = m.game, m.sta
    checked = 0
    for z in range(m.n_states):
        if m.absorbing[z]:
            continue
        ps = m.states[z]
        env = sta.env_outcome_dist(ps.spec)
        for a, action in enumerate(m.actions):
            got: dict = {}
            for z2, p in m.successors(z, a):
                key = m.states[z2].game
                got[key] = got.get(key, 0.0) + p
            want: dict = {}
            for e in env_subsets(ps.game.pending):
                for s2, pg in game.transitions(ps.game, action, e):
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
    game = build_gridworld(GridWorldConfig(
        2, 2, (0, 0), (("goal", (1, 1)),), ()))
    m = build_product(game, ts)
    for z in range(m.n_states):
        if m.absorbing[z]:
            continue
        ps = m.states[z]
        for a, action in enumerate(m.actions):
            got = {m.states[z2].game.robot: p for z2, p in m.successors(z, a)}
            want = dict(game.motion(ps.game.robot, action))
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
    assert [s.game for s in m2.states] == [s.game for s in m.states]


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
    game = build_gridworld(GridWorldConfig(width, height, start, stations,
                                           tuple(u.entries), slip))
    return game, tsta


def toy_inputs(T, game_text=None):
    _, tsta = truncated(TOY, T)
    return load_game(game_text or (DATA / "toy.game").read_text()), tsta


def random_grid_inputs(seed):
    rng = random.Random(seed)
    width, height = rng.randint(2, 5), rng.randint(2, 5)
    cells = [(x, y) for x in range(width) for y in range(height)]
    rng.shuffle(cells)
    n_bus = rng.randint(1, min(2, len(cells) - 1))
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
    # a destination listed twice in one kernel row: its weights are summed
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
    game, tsta = PRODUCT_CASES[case]()
    got = build_product(game, tsta)
    want = reference_product(game, tsta)
    assert got.to_text() == want.to_text()
    for name in ("row_ptr", "cols", "accepting", "sink"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.probs.tobytes() == want.probs.tobytes()


def test_cap_is_the_exact_state_count(case1_T3):
    m, _ = case1_T3
    n = m.n_states
    assert build_product(m.game, m.sta, cap=n).n_states == n
    with pytest.raises(ProductError, match=f"product exceeded {n - 1} states"):
        build_product(m.game, m.sta, cap=n - 1)
