import math
from types import SimpleNamespace

import numpy as np
import pytest

from mitlplan import simulator
from mitlplan.simulator import splitmix_init, splitmix_next
from mitlplan.formula import EventSet, parse, substitute_dist, uniform_truncation_vector
from mitlplan.game_model import GridWorldConfig, build_gridworld
from mitlplan.product_mdp import build_product
from mitlplan.simulator import (default_max_steps, estimate_success, rollout,
                                rollout_batch_numpy, threshold_table)
from mitlplan.solver import (Policy, extract_policy, satisfaction_probability,
                             value_iteration)
from mitlplan.stochastic_ta import StaModel, truncate
from mitlplan.timed_automata import build_dta

from _oracles import reference_log, rollout_batch_loop, walk
from conftest import BUS_CASE2, build_case
from test_product_mdp import SYNC_CASES


@pytest.fixture(scope="module")
def planned_case2():
    m, tv = build_case(BUS_CASE2, 3)
    res = value_iteration(m)
    return m, extract_policy(m, res.values), res


def plan_grid(formula, size, start, stations, slip, T):
    """The product of a square grid and the mission, its greedy policy
    and its values."""
    f = parse(formula)
    u = EventSet.from_formula(f)
    ts = truncate(StaModel(build_dta(substitute_dist(f)), u),
                  uniform_truncation_vector(f, u, T))
    game = build_gridworld(GridWorldConfig(size, size, start, stations,
                                           tuple(u.entries), slip))
    m = build_product(game, ts)
    res = value_iteration(m)
    return m, extract_policy(m, res.values), res


@pytest.fixture(scope="module")
def planned_8x8():
    # the two-bus 8x8 mission at T=8 that the end-to-end simulate workload
    # runs: 2 535 states, rows of up to 12 successors
    return plan_grid("D{geom:0.4} b1 & F (b1 & F[0,3] s1) | "
                     "D{geom:0.7} b2 & F (b2 & F[0,3] s2)", 8, (0, 0),
                     (("s1", (0, 7)), ("s2", (7, 0))), (0.8, 0.1, 0.1), 8)


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


@pytest.mark.parametrize("case", SYNC_CASES)
def test_logs_match_reference_renderer(case):
    # the optimal policy and a random one, 128 seeds each, at the default
    # step limit and at 0, 1 and 3 steps; the second half of the seeds runs
    # after `to_text` has formatted every state of the model
    m = build_product(*SYNC_CASES[case]())
    rng = np.random.default_rng(len(case))
    policies = [extract_policy(m, value_iteration(m).values),
                Policy(rng.integers(0, m.n_actions, m.n_states), m.actions,
                       m.absorbing.copy())]
    logs = []
    for seed in range(128):
        if seed == 64:
            m.to_text()
        max_steps = (None, 0, 1, 3)[seed % 4]
        for policy in policies:
            text = rollout(m, policy, seed, max_steps).render()
            assert text == reference_log(m, policy, seed, max_steps)
            if max_steps == 0:
                assert text.count("\n") == 2
            logs.append(text)
    if case in ("case1", "toy", "random-1"):
        # logs that pass through or end in the truncation sink
        assert any("(sink)" in log for log in logs)
        assert any(log.endswith("(sink))\nterminal: sink\n") for log in logs)


@pytest.mark.parametrize("case", SYNC_CASES)
def test_rollout_matches_reference_walk(case):
    # the memo walk against the CSR walk of the reference: states, actions
    # and outcome, with the optimal and a random policy taking turns on one
    # model, so that a memo holding anything of a policy would fail
    m = build_product(*SYNC_CASES[case]())
    rng = np.random.default_rng(len(case) + 1)
    policies = [extract_policy(m, value_iteration(m).values),
                Policy(rng.integers(0, m.n_actions, m.n_states), m.actions,
                       m.absorbing.copy())]
    for seed in range(64):
        max_steps = (None, 0, 1, 3)[seed % 4]
        limit = default_max_steps(m) if max_steps is None else max_steps
        for policy in policies:
            traj = rollout(m, policy, seed, max_steps)
            code, visited = walk(m.row_ptr, m.cols, m.probs, policy.rows(),
                                 m.accepting, m.sink, m.z0,
                                 splitmix_init(seed), limit)
            assert traj.state_indices == visited
            assert traj.actions == [policy.action_name(z)
                                    for z in visited[:-1]]
            assert traj.outcome == ("step-limit", "accept", "sink")[code]


def test_rollout_takes_the_last_successor_past_the_row_total():
    # rows scaled to sum to 0.75: a quarter of the draws exceed every
    # running sum, and both walks then take the row's last successor
    m, _ = build_case(BUS_CASE2, 3)
    pol = extract_policy(m, value_iteration(m).values)
    m.probs *= 0.75
    for seed in range(100):
        _, visited = walk(m.row_ptr, m.cols, m.probs, pol.rows(), m.accepting,
                          m.sink, m.z0, splitmix_init(seed),
                          default_max_steps(m))
        assert rollout(m, pol, seed).state_indices == visited


def test_rollout_memos_hold_what_the_logs_visited(monkeypatch):
    # a log reads no array over all states: `Policy.rows` is never called,
    # and the model's log memos hold exactly the states the logs visited
    # and the rows they followed
    m, _ = build_case(BUS_CASE2, 3)
    pol = extract_policy(m, value_iteration(m).values)
    first = walk(m.row_ptr, m.cols, m.probs, pol.rows(), m.accepting, m.sink,
                 m.z0, splitmix_init(0), default_max_steps(m))[1]

    def no_rows(self):
        raise AssertionError("rollout read Policy.rows")
    monkeypatch.setattr(Policy, "rows", no_rows)
    states, rows = set(), set()
    for seed in range(2000):
        traj = rollout(m, pol, seed)
        if seed == 0:
            assert traj.state_indices == first
        states.update(traj.state_indices)
        rows.update(z * m.n_actions + m.actions.index(a)
                    for z, a in zip(traj.state_indices, traj.actions))
    assert set(m._log_state) == states
    assert set(m._log_row) == rows
    assert len(states) < m.n_states


def test_estimate_consistent_with_value(planned_case2):
    m, pol, res = planned_case2
    est = estimate_success(m, pol, 20000, seed=11)
    v = satisfaction_probability(m, res.values)
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
    # on a mission whose rollouts end in all three ways: F s1 has no
    # deadline, so a rollout can be live when its budget runs out
    m, pol, _ = plan_grid("D{geom:0.59} b1 & F (b1 & F s1)", 12, (0, 0),
                          (("s1", (11, 11)),), (0.8, 0.1, 0.1), 8)
    a = estimate_success(m, pol, 1500, seed=4, max_steps=30)
    b = loop_estimate(m, pol, 1500, seed=4, max_steps=30)
    assert a.outcomes == b.outcomes
    assert min(a.outcomes.values()) > 0


def test_rollouts_stop_at_a_lost_state(planned_8x8):
    # once b1 fired and its window closed without s1, the location
    # F (b1 & F[0,3] s1) cannot hold: such a state is a sink, and no
    # rollout walks it until its budget runs out
    m, pol, res = planned_8x8
    est = estimate_success(m, pol, 20000, seed=1)
    assert est.outcomes == {"step-limit": 0, "accept": 1537, "sink": 18463}
    assert float(res.values[m.z0]) == 0.0782427695313247
    assert not m.sink[m.z0]


def test_a_rollout_that_can_still_win_is_not_stopped():
    # b1 fired, and F b3 has no deadline, so the state stays live: the
    # first-argmax policy bumps into a wall until the budget runs out
    m, pol, res = plan_grid("D{geom:0.5} b1 & F b3", 4, (3, 3),
                            (("b3", (0, 3)),), (1.0, 0.0, 0.0), 6)
    est = estimate_success(m, pol, 20000, seed=1)
    assert est.outcomes == {"step-limit": 19678, "accept": 0, "sink": 322}
    assert float(res.values[m.z0]) == 0.984375


def test_estimate_builds_one_table_per_policy(monkeypatch):
    # the model keeps the search table of the last policy, keyed by the
    # contents of its rows: the same rows again build nothing, even from
    # another object, and another policy, or one changed in place, builds
    # a new table
    m, _ = build_case(BUS_CASE2, 3)
    opt = extract_policy(m, value_iteration(m).values)
    rng = np.random.default_rng(5)
    other = Policy(rng.integers(0, m.n_actions, m.n_states), m.actions,
                   m.absorbing.copy())
    same = Policy(opt.action_index.copy(), m.actions, m.absorbing.copy())
    builds = []

    def counted(*args):
        builds.append(args)
        return threshold_table(*args)
    monkeypatch.setattr(simulator, "threshold_table", counted)
    tallies = {}
    for name, pol, n_built in (("opt", opt, 1), ("opt", opt, 1),
                               ("other", other, 2), ("opt", opt, 3),
                               ("opt", same, 3), ("other", same, 4),
                               ("other", same, 4)):
        if pol is same and name == "other":
            same.action_index[:] = other.action_index
        est = estimate_success(m, pol, 400, seed=8)
        assert est.outcomes == loop_estimate(m, pol, 400, seed=8).outcomes
        assert len(builds) == n_built
        tallies.setdefault(name, est.outcomes)
        assert est.outcomes == tallies[name]
    assert tallies["opt"] != tallies["other"]


def test_threshold_table_rows_end_in_inf():
    # row z: the running sums of `log_row` but the last, bit for bit, then
    # inf to the end; its successors are the CSR row's columns
    m, _ = build_case(BUS_CASE2, 3)
    rng = np.random.default_rng(3)
    for action_index in (extract_policy(m, value_iteration(m).values)
                         .action_index,
                         rng.integers(0, m.n_actions, m.n_states)):
        rows = m.n_actions * np.arange(m.n_states) + action_index
        flat, succ, width = threshold_table(m.row_ptr, m.cols, m.probs, rows)
        assert flat.shape == succ.shape == (m.n_states * width,)
        for z, r in enumerate(rows.tolist()):
            cols, sums = m.log_row(r)
            row = flat[z * width:(z + 1) * width]
            k = len(cols) - 1
            assert row[:k].view(np.uint64).tolist() == \
                np.array(sums[:k]).view(np.uint64).tolist()
            assert np.isposinf(row[k:]).all()
            assert succ[z * width:z * width + k + 1].tolist() == cols
        assert width == (1 << int(np.diff(m.row_ptr).max()).bit_length()) - 1


def batch_on_arrays(row_ptr, cols, probs, policy_row, accepting, sink,
                    z0, n_rollouts, seed, max_steps):
    """`rollout_batch_numpy` on the arguments of `rollout_batch_loop`."""
    return rollout_batch_numpy(
        threshold_table(row_ptr, cols, probs, policy_row),
        np.where(accepting, 1, np.where(sink, 2, 0)).astype(np.int8), z0,
        n_rollouts, seed, max_steps)


def random_csr(rng, longest, n_states):
    """A random CSR kernel of two rows per state, with 1 to `longest`
    entries each; row 0 has `longest` entries and sums to 0.75, so a draw
    of u >= 0.75 there counts every entry and is clamped to the last."""
    n_rows = 2 * n_states
    lengths = rng.integers(1, longest + 1, n_rows)
    lengths[0] = longest
    row_ptr = np.concatenate(([0], np.cumsum(lengths)))
    cols = rng.integers(0, n_states, row_ptr[-1])
    probs = np.empty(row_ptr[-1])
    for r in range(n_rows):
        w = rng.random(lengths[r]) + 0.01
        probs[row_ptr[r]:row_ptr[r + 1]] = w / w.sum()
    probs[:longest] *= 0.75
    return row_ptr, cols, probs


# longest rows of 2**k - 1 entries fill a search table of that width;
# 2**k and 2**k + 1 are the first two lengths that need the next width
@pytest.mark.parametrize("longest", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17])
def test_batch_matches_loop_on_random_kernels(longest):
    rng = np.random.default_rng(longest)
    n_states = 40
    row_ptr, cols, probs = random_csr(rng, longest, n_states)
    policy_row = rng.integers(0, len(row_ptr) - 1, n_states)
    policy_row[:4] = 0      # four states follow the short-summed longest row
    accepting = rng.random(n_states) < 0.05
    sink = rng.random(n_states) < 0.05
    accepting[[5, 6]] = True
    sink[[6, 7]] = True     # state 6 is both: walk checks acceptance first
    accepting[:4] = sink[:4] = False
    for z0 in (0, 5, 6, 7):  # neither, accepting, both, sink
        for max_steps in (0, 1, 7, 40):
            for n in (1, 300):
                args = (row_ptr, cols, probs, policy_row, accepting, sink,
                        z0, n, 11 * longest + max_steps, max_steps)
                batch = batch_on_arrays(*args)
                assert np.array_equal(batch, rollout_batch_loop(*args))


def test_batch_thresholds_are_per_row_running_sums():
    # an unvisited row of weight 2**40 ahead of state 0's row [0.3, 0.7]:
    # sums carried across rows round state 0's thresholds at 2**-12
    row_ptr = np.array([0, 1, 3])
    cols = np.array([0, 1, 2])
    probs = np.array([2.0 ** 40, 0.3, 0.7])
    policy_row = np.array([1, 0, 0])
    accepting = np.array([False, True, False])
    sink = np.array([False, False, True])
    args = (row_ptr, cols, probs, policy_row, accepting, sink, 0, 100_000, 9, 1)
    batch = batch_on_arrays(*args)
    loop = rollout_batch_loop(*args)
    assert int((batch != loop).sum()) == 0


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


@pytest.mark.parametrize("seed", [1, -5, 2**64 - 3])
def test_estimate_chunks_match_one_batch(planned_case2, monkeypatch, seed):
    # stream i depends on (seed, i) only, so chunks of 7 rollouts, the last
    # one short, reproduce one batch of all 100 rollout for rollout
    m, pol, _ = planned_case2
    codes = batch_on_arrays(m.row_ptr, m.cols, m.probs, pol.rows(),
                            m.accepting, m.sink, m.z0, 100, seed,
                            default_max_steps(m))
    monkeypatch.setattr(simulator, "_CHUNK", 7)
    est = estimate_success(m, pol, 100, seed=seed)
    assert est.outcomes == {"accept": int((codes == 1).sum()),
                            "sink": int((codes == 2).sum()),
                            "step-limit": int((codes == 0).sum())}


def test_estimate_validates_n(planned_case2):
    m, pol, _ = planned_case2
    with pytest.raises(ValueError):
        estimate_success(m, pol, 0, seed=1)


def test_default_max_steps_covers_mission(planned_case2):
    m, _, _ = planned_case2
    # events capped at 3, windows at 3: all classification done well before
    assert default_max_steps(m) >= 3 + 3 + 2
