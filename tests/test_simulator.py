import math
from types import SimpleNamespace

import numpy as np
import pytest

from mitlplan._kernels import rollout_batch_loop, splitmix_init, splitmix_next
from mitlplan.formula import EventSet, parse, substitute_dist, uniform_truncation_vector
from mitlplan.game_model import GridWorldConfig, build_gridworld
from mitlplan.product_mdp import build_product
from mitlplan.simulator import default_max_steps, estimate_success, rollout
from mitlplan.solver import extract_policy, value_iteration
from mitlplan.stochastic_ta import StaModel, truncate
from mitlplan.timed_automata import build_dta

from conftest import BUS_CASE2, build_case


@pytest.fixture(scope="module")
def planned_case2():
    m, tv = build_case(BUS_CASE2, 3)
    res = value_iteration(m)
    return m, extract_policy(m, res.values), res


def test_rollout_reproducible(planned_case2):
    m, pol, _ = planned_case2
    one = rollout(m, pol, seed=42)
    two = rollout(m, pol, seed=42)
    assert one.render() == two.render()
    assert one.state_indices == two.state_indices
    other = rollout(m, pol, seed=43)
    assert other.render() != one.render() or other.outcome == one.outcome


def test_rollout_trajectory_shape(planned_case2):
    m, pol, _ = planned_case2
    traj = rollout(m, pol, seed=1)
    text = traj.render()
    assert text.startswith("(((0, 0), {}, {b1,b2}), (q0, [0,0], {b1,b2}))")
    assert "--e=" in text
    assert text.rstrip().endswith(f"terminal: {traj.outcome}")
    assert traj.outcome in ("accept", "sink", "step-limit")


def test_rollout_transitions_positive_probability(planned_case2):
    m, pol, _ = planned_case2
    for seed in range(20):
        traj = rollout(m, pol, seed=seed)
        for z, z2 in zip(traj.state_indices, traj.state_indices[1:]):
            a = m.actions.index(pol.action_name(z))
            assert dict(m.successors(z, a)).get(z2, 0.0) > 0.0


def test_rollout_deterministic_game_no_events():
    # a deadline makes delaying strictly suboptimal, so the greedy
    # tie-break cannot stall; slip-free motion makes runs seed independent
    f = parse("F[0,4] goal")
    u = EventSet.from_formula(f)
    ts = truncate(StaModel(build_dta(substitute_dist(f)), u),
                  uniform_truncation_vector(f, u, 0))
    game = build_gridworld(GridWorldConfig(
        3, 1, (0, 0), (("goal", (2, 0)),), (), (1.0, 0.0, 0.0)))
    m = build_product(game, ts)
    pol = extract_policy(m, value_iteration(m).values)
    runs = {rollout(m, pol, seed=s, max_steps=10).render() for s in range(5)}
    assert len(runs) == 1  # slip-free: seed independent
    assert rollout(m, pol, seed=0, max_steps=10).outcome == "accept"


def test_rollout_step_limit_zero(planned_case2):
    m, pol, _ = planned_case2
    traj = rollout(m, pol, seed=9, max_steps=0)
    assert traj.outcome == "step-limit"
    assert traj.steps == 0


def test_rollout_accepting_initial():
    f = parse("true")
    u = EventSet.from_formula(f)
    ts = truncate(StaModel(build_dta(f), u), uniform_truncation_vector(f, u, 0))
    game = build_gridworld(GridWorldConfig(2, 2, (0, 0), (), ()))
    m = build_product(game, ts)
    pol = extract_policy(m, value_iteration(m).values)
    assert rollout(m, pol, seed=0, max_steps=0).outcome == "accept"
    est = estimate_success(m, pol, 50, seed=0)
    assert est.rate == 1.0


def test_estimate_consistent_with_value(planned_case2):
    m, pol, res = planned_case2
    est = estimate_success(m, pol, 20000, seed=11)
    v = res.initial_value
    sigma = math.sqrt(v * (1 - v) / est.samples)
    assert abs(est.rate - v) < 4 * sigma
    assert est.ci_low <= est.rate <= est.ci_high


def loop_estimate(m, pol, n, seed, max_steps=None):
    """estimate_success's rate and tally, from the scalar loop kernel."""
    policy_row = m.n_actions * np.arange(m.n_states) + pol.action_index
    codes = rollout_batch_loop(m.row_ptr, m.cols, m.probs, policy_row,
                               m.accepting, m.sink, m.z0, n, seed,
                               max_steps or default_max_steps(m))
    tally = {"accept": int((codes == 1).sum()),
             "sink": int((codes == 2).sum()),
             "step-limit": int((codes == 0).sum())}
    return SimpleNamespace(rate=tally["accept"] / n, outcomes=tally)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_estimate_backends_identical(planned_case2):
    # the numpy kernel against its scalar reference kernel
    m, pol, _ = planned_case2
    a = estimate_success(m, pol, 5000, seed=3)
    b = loop_estimate(m, pol, 5000, seed=3)
    assert a.rate == b.rate
    assert a.outcomes == b.outcomes


@pytest.mark.parametrize("max_steps", [1, 2, 3])
def test_step_limit_after_exactly_max_steps(planned_case2, max_steps):
    m, pol, _ = planned_case2
    a = estimate_success(m, pol, 2000, seed=5, max_steps=max_steps)
    b = loop_estimate(m, pol, 2000, seed=5, max_steps=max_steps)
    assert a.outcomes == b.outcomes
    assert a.outcomes["step-limit"] > 0
    limited = [t for t in (rollout(m, pol, seed=s, max_steps=max_steps)
                           for s in range(20)) if t.outcome == "step-limit"]
    assert limited and all(t.steps == max_steps for t in limited)


def test_rollout_streams_do_not_overlap():
    # stream i once started at seed + (i+1)*gamma and advanced by gamma per
    # draw, so stream i+1 was stream i one draw later: the first 16 draws
    # of 1 000 streams held 1 015 distinct values
    draws = set()
    for i in range(1000):
        state = splitmix_init(3, i)
        for _ in range(16):
            u, state = splitmix_next(state)
            draws.add(u)
    assert len(draws) == 16 * 1000


def test_estimate_matches_single_rollouts(planned_case2):
    # batch stream i=0 is the stream of rollout(seed)
    m, pol, _ = planned_case2
    single = rollout(m, pol, seed=77, max_steps=default_max_steps(m))
    batch = estimate_success(m, pol, 1, seed=77)
    got = {"accept": 1, "sink": 0, "step-limit": 0} if single.outcome == "accept" \
        else {"accept": 0, "sink": 1, "step-limit": 0} if single.outcome == "sink" \
        else {"accept": 0, "sink": 0, "step-limit": 1}
    assert batch.outcomes == got


def test_estimate_validates_n(planned_case2):
    m, pol, _ = planned_case2
    with pytest.raises(ValueError):
        estimate_success(m, pol, 0, seed=1)


def test_default_max_steps_covers_mission(planned_case2):
    m, _, _ = planned_case2
    # events capped at 3, windows at 3: all classification done well before
    assert default_max_steps(m) >= 3 + 3 + 2
