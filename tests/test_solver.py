import numpy as np
import pytest

from mitlplan import cli
from mitlplan.formula import (
    EventSet,
    parse,
    substitute_dist,
    truncation_vector,
    uniform_truncation_vector,
)
from mitlplan.game_model import GridWorldConfig, build_gridworld, load_game
from mitlplan.product_mdp import STAY_ACTION, build_product
from mitlplan.solver import (
    Policy,
    SolverError,
    ValueIterationResult,
    extract_policy,
    policy_evaluation,
    satisfaction_probability,
    value_iteration,
)
from mitlplan.stochastic_ta import StaModel, truncate
from mitlplan.timed_automata import build_dta

from _oracles import (
    bellman_sweep_loop,
    brute_force_reach,
    full_extract_policy,
    full_policy_evaluation,
    full_value_iteration,
    product_state,
    q_values,
)
from conftest import BUS_CASE1, BUS_CASE2, DATA, THREE_BUS, build_case


def small_instance(p=0.5, eps=0.05):
    """2x2 grid, one event, event-gated deadline mission."""
    f = parse(f"D{{geom:{p}}} b & F (b & F[0,1] atA)")
    u = EventSet.from_formula(f)
    sta = StaModel(build_dta(substitute_dist(f)), u)
    tv = truncation_vector(f, u, eps)
    game = build_gridworld(GridWorldConfig(
        2, 2, (0, 0), (("atA", (1, 1)),), tuple(u.entries), (0.8, 0.1, 0.1)))
    return build_product(game, truncate(sta, tv)), tv


def one_step_toy(q=0.3):
    """Single decision: action a reaches the goal with probability q."""
    text = f"""
states s0 win lose
actions a
events
init s0
label s0:
label win: goal
label lose:
trans s0 a {{}} -> win : {q}
trans s0 a {{}} -> lose : {1 - q}
trans win a {{}} -> win : 1.0
trans lose a {{}} -> lose : 1.0
"""
    f = parse("F[0,1] goal")
    u = EventSet.from_formula(f)
    ts = truncate(StaModel(build_dta(substitute_dist(f)), u),
                  uniform_truncation_vector(f, u, 0))
    return build_product(load_game(text), ts)


# ---------------------------------------------------------------------------
# value iteration
# ---------------------------------------------------------------------------

def test_one_step_value():
    m = one_step_toy(0.3)
    res = value_iteration(m)
    assert res.converged
    assert res.values[m.z0] == pytest.approx(0.3, abs=1e-12)
    # one sweep already finds it: reward is earned on entry
    first = value_iteration(m, tol=1e-10, max_iter=1)
    assert first.values[m.z0] == pytest.approx(0.3, abs=1e-12)


def test_unreachable_accepting_zero():
    m = one_step_toy(0.3)
    # lose-state row: no accepting successors, value must be 0
    res = value_iteration(m)
    lose = [z for z in range(m.n_states)
            if not m.absorbing[z] and z != m.z0]
    for z in lose:
        assert res.values[z] == 0.0


def test_values_in_unit_interval(case2_T3):
    m, _ = case2_T3
    res = value_iteration(m)
    assert res.converged
    assert np.all(res.values >= 0.0) and np.all(res.values <= 1.0)
    assert np.all(res.values[m.absorbing] == 0.0)


def test_monotone_sweeps(case2_T3):
    m, _ = case2_T3
    prev = np.zeros(m.n_states)
    for k in range(1, 8):
        res = value_iteration(m, tol=1e-300, max_iter=k)
        assert np.all(res.values >= prev - 1e-15)
        prev = res.values


def test_bellman_residual_at_return(case2_T3):
    m, _ = case2_T3
    res = value_iteration(m, tol=1e-10)
    q = q_values(m, res.values)
    v_again = q.max(axis=1)
    v_again[m.absorbing] = 0.0
    assert np.abs(v_again - res.values).max() < 1e-10


def test_non_convergence_diagnostic(case2_T3):
    m, _ = case2_T3
    res = value_iteration(m, tol=1e-12, max_iter=2)
    assert not res.converged
    assert res.iterations == 2
    assert res.residual >= 1e-12


def loop_value_iteration(m, tol=1e-10, max_iter=100_000):
    """value_iteration's sweeps run on the scalar loop kernel."""
    values = np.zeros(m.n_states)
    for it in range(1, max_iter + 1):
        values, residual = bellman_sweep_loop(
            m.row_ptr, m.cols, m.probs, m.reward_row, m.absorbing, values,
            m.n_actions)
        if residual < tol:
            break
    return ValueIterationResult(values, it, residual, residual < tol)


def test_backends_agree(case2_T3):
    # the numpy kernel against its scalar reference kernel
    m, _ = case2_T3
    v_np = value_iteration(m)
    v_nb = loop_value_iteration(m)
    assert np.abs(v_np.values - v_nb.values).max() < 1e-12
    assert v_np.iterations == v_nb.iterations


# ---------------------------------------------------------------------------
# live rows against the all-row sweep
# ---------------------------------------------------------------------------

UNTIMED_BUS = ("D{geom:0.8} b1 & F (b1 & F b3) | "
               "D{geom:0.3} b2 & F (b2 & F b4)")

# the models of the golden plan digests (`tools/dta_digests.py`)
GOLDEN_PLANS = {
    "case1": (BUS_CASE1, "--grid", DATA / "case1.grid", "--uniform-T", "4"),
    "case1-eps0.05": (BUS_CASE1, "--grid", DATA / "case1.grid",
                      "--eps", "0.05"),
    "case2": (BUS_CASE2, "--grid", DATA / "case2.grid", "--uniform-T", "4"),
    "toy": ("D{geom:0.5} b & F (b & F[0,1] goal)", "--game",
            DATA / "toy.game", "--uniform-T", "4"),
    "three-bus": (THREE_BUS, "--grid", DATA / "three_bus.grid",
                  "--uniform-T", "4"),
    "no-slip": (BUS_CASE1, "--grid", DATA / "no_slip.grid",
                "--uniform-T", "4"),
}


def golden_model(name):
    formula, *env = GOLDEN_PLANS[name]
    args = cli.build_parser().parse_args(
        ["plan", "--formula", formula, *map(str, env)])
    return cli.build_model(args).product


def ladder_model(formula, n):
    """A rung of `tools/stages.py`: an n x n grid at T = n with stations
    b3 at (0, n - 1) and b4 at (n - 1, 0)."""
    f = parse(formula)
    u = EventSet.from_formula(f)
    tsta = truncate(StaModel(build_dta(substitute_dist(f)), u),
                    uniform_truncation_vector(f, u, n))
    game = build_gridworld(GridWorldConfig(
        n, n, (0, 0), (("b3", (0, n - 1)), ("b4", (n - 1, 0))),
        tuple(u.entries), (0.8, 0.1, 0.1)))
    return build_product(game, tsta)


def accepting_at_start():
    """A model whose initial state accepts: its one state is absorbing,
    so no row is live."""
    f = parse("F goal")
    u = EventSet.from_formula(f)
    tsta = truncate(StaModel(build_dta(substitute_dist(f)), u),
                    uniform_truncation_vector(f, u, 0))
    m = build_product(build_gridworld(GridWorldConfig(
        2, 2, (0, 0), (("goal", (0, 0)),), ())), tsta)
    assert m.n_states == 1 and m.accepting[m.z0]
    return m


# name: (model, value iteration's limits)
LIVE_ROW_CASES = {
    **{f"golden-{name}": (lambda name=name: golden_model(name), {})
       for name in GOLDEN_PLANS},
    # mostly sinks
    "two-bus-16": (lambda: ladder_model(BUS_CASE1, 16), {}),
    "untimed-8": (lambda: ladder_model(UNTIMED_BUS, 8), {}),
    "cut-by-max-iter": (lambda: ladder_model(BUS_CASE1, 16),
                        {"max_iter": 5}),
    "accepting-start": (accepting_at_start, {}),
}


@pytest.mark.parametrize("case", LIVE_ROW_CASES)
def test_live_rows_reproduce_the_all_row_sweep(case):
    # an absorbing state's rows are unit self-loops without reward, so
    # skipping them leaves every value, sweep, residual and policy as the
    # sweep over every row computes them, bit for bit
    build, limits = LIVE_ROW_CASES[case]
    m = build()
    got, ref = value_iteration(m, **limits), full_value_iteration(m, **limits)
    assert got.values.tobytes() == ref.values.tobytes()
    assert (got.iterations, got.residual, got.converged) == (
        ref.iterations, ref.residual, ref.converged)
    assert got.converged == ("max_iter" not in limits)
    greedy = extract_policy(m, got.values)
    expected = full_extract_policy(m, ref.values)
    assert greedy.action_index.dtype == expected.action_index.dtype
    assert greedy.action_index.tobytes() == expected.action_index.tobytes()
    assert greedy.absorbing.tobytes() == expected.absorbing.tobytes()
    drawn = np.random.default_rng(5).integers(m.n_actions, size=m.n_states)
    for pol in (greedy, Policy(drawn, m.actions, m.absorbing.copy())):
        assert (policy_evaluation(m, pol).tobytes()
                == full_policy_evaluation(m, pol).tobytes())


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_brute_force_one_step():
    m = one_step_toy(0.4)
    w = brute_force_reach(m, 1)
    assert w[m.z0] == pytest.approx(0.4, abs=1e-12)


def test_brute_force_horizon_monotone(case2_T3):
    m, _ = case2_T3
    prev = None
    for h in (1, 2, 4, 8, 16):
        w = brute_force_reach(m, h)
        if prev is not None:
            assert np.all(w >= prev - 1e-15)
        prev = w


def test_vi_matches_brute_force_small():
    m, _ = small_instance()
    res = value_iteration(m, tol=1e-10)
    w = brute_force_reach(m, 500)
    assert abs(res.values[m.z0] - w[m.z0]) < 1e-8


def test_vi_matches_brute_force_case2(case2_T3):
    m, _ = case2_T3
    res = value_iteration(m, tol=1e-10)
    w = brute_force_reach(m, 500)
    assert abs(res.values[m.z0] - w[m.z0]) < 1e-8


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

def test_policy_matches_value(case2_T3):
    m, _ = case2_T3
    res = value_iteration(m)
    pol = extract_policy(m, res.values)
    pv = policy_evaluation(m, pol)
    assert np.abs(pv - res.values).max() < 1e-8


def test_policy_evaluation_that_does_not_converge_raises(case2_T3):
    m, _ = case2_T3
    pol = extract_policy(m, value_iteration(m).values)
    with pytest.raises(SolverError, match="did not converge"):
        policy_evaluation(m, pol, max_iter=1)


def test_policy_evaluation_matches_the_full_backup_bit_for_bit(case2_T3):
    # backing up only the policy's rows at live states adds the same terms
    # in the same order as backing up every row and keeping the policy's
    m, _ = case2_T3
    greedy = extract_policy(m, value_iteration(m).values)
    drawn = np.random.default_rng(3).integers(m.n_actions, size=m.n_states)
    for pol in (greedy, Policy(drawn, m.actions, m.absorbing.copy())):
        assert (policy_evaluation(m, pol).tobytes()
                == full_policy_evaluation(m, pol).tobytes())


def test_policy_tie_break_first_action():
    # 1x1 grid: all actions bounce off walls, rows identical, argmax -> N
    f = parse("F goal")
    u = EventSet.from_formula(f)
    ts = truncate(StaModel(build_dta(substitute_dist(f)), u),
                  uniform_truncation_vector(f, u, 0))
    game = build_gridworld(GridWorldConfig(1, 2, (0, 0), (("goal", (0, 1)),), ()))
    m = build_product(game, ts)
    res = value_iteration(m)
    pol = extract_policy(m, res.values)
    assert pol.action_name(m.z0) == "N"


def test_policy_stay_on_absorbing(case2_T3):
    m, _ = case2_T3
    pol = extract_policy(m, value_iteration(m).values)
    z_abs = int(np.flatnonzero(m.absorbing)[0])
    assert pol.action_name(z_abs) == STAY_ACTION


def test_policy_moves_toward_deadline_station():
    # after the event fires next to the station with one step left, the
    # optimal action closes the distance
    m, _ = small_instance(p=0.5, eps=0.05)
    res = value_iteration(m)
    pol = extract_policy(m, res.values)
    best = None
    for z in range(m.n_states):
        s, q = product_state(m, z)
        if m.absorbing[z] or q.pending:
            continue
        if s.robot == (1, 0):
            best = pol.action_name(z)
            break
    assert best == "N"  # (1,0) -> (1,1) is the station


def test_satisfaction_probability_reporting():
    m = one_step_toy(0.25)
    res = value_iteration(m)
    assert satisfaction_probability(m, res.values) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# truncation effects on values
# ---------------------------------------------------------------------------

def test_value_monotone_in_truncation_point():
    vals = []
    for T in (3, 4, 5):
        m, _ = build_case(BUS_CASE2, T)
        vals.append(satisfaction_probability(m, value_iteration(m).values))
    assert vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9


def test_eps_optimality_gap_finite_table():
    # finite-support event: truncating at the last step is exact, earlier
    # truncation loses at most the achieved tail bound
    f = parse("D{table:1:0.25,2:0.25,4:0.5} b & F (b & F[0,1] atA)")
    u = EventSet.from_formula(f)
    sta = StaModel(build_dta(substitute_dist(f)), u)
    game = build_gridworld(GridWorldConfig(
        2, 2, (0, 0), (("atA", (1, 1)),), tuple(u.entries), (0.8, 0.1, 0.1)))

    def value_at(T):
        tv = uniform_truncation_vector(f, u, T)
        m = build_product(game, truncate(sta, tv))
        values = value_iteration(m).values
        return satisfaction_probability(m, values), tv.eps_achieved

    v_full, eps_full = value_at(4)   # tail(4) = 0: untruncated
    assert eps_full == 0.0
    for T in (1, 2, 3):
        v_T, eps_T = value_at(T)
        assert v_full - v_T <= eps_T + 1e-12
        assert v_T <= v_full + 1e-12
