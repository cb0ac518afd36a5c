from collections import deque

import pytest

from mitlplan.formula import (
    EventSet,
    FiniteTable,
    Geometric,
    parse,
    substitute_dist,
    uniform_truncation_vector,
)
from mitlplan.stochastic_ta import (
    SINK,
    StaError,
    StaModel,
    truncation_error_estimate,
    truncate,
)
from mitlplan.timed_automata import TimedWord, build_dta



def single_event_sta(dist_text="geom:0.5"):
    f = parse(f"D{{{dist_text}}} b")
    u = EventSet.from_formula(f)
    return StaModel(build_dta(substitute_dist(f)), u), f, u


# ---------------------------------------------------------------------------
# outcome distributions
# ---------------------------------------------------------------------------

def test_env_outcome_two_events(bus1_sta):
    q, p0 = bus1_sta.initial(frozenset())
    assert p0 == 1.0
    d = bus1_sta.env_outcome_dist(q)
    assert d[frozenset()] == pytest.approx(0.2 * 0.7, abs=1e-15)
    assert d[frozenset({"b1"})] == pytest.approx(0.8 * 0.7, abs=1e-15)
    assert d[frozenset({"b2"})] == pytest.approx(0.2 * 0.3, abs=1e-15)
    assert d[frozenset({"b1", "b2"})] == pytest.approx(0.8 * 0.3, abs=1e-15)


def test_env_outcome_no_pending(bus1_sta):
    q, _ = bus1_sta.initial(frozenset())
    q2, _ = bus1_sta.step(q, {"b1", "b2"})
    d = bus1_sta.env_outcome_dist(q2)
    assert d == {frozenset(): 1.0}


def test_env_outcome_single_pending():
    m, _, _ = single_event_sta("geom:0.3")
    q, _ = m.initial(frozenset())
    d = m.env_outcome_dist(q)
    assert d[frozenset({"b"})] == pytest.approx(0.3, abs=1e-15)


def test_env_outcome_normalization_reachable(bus1_sta):
    # exhaustive breadth-first exploration of the automaton states to depth 10
    q0, _ = bus1_sta.initial(frozenset())
    symbols = [frozenset(), frozenset({"b1"}), frozenset({"b2"}),
               frozenset({"b1", "b2"}), frozenset({"b3"}),
               frozenset({"b1", "b3"}), frozenset({"b2", "b4"})]
    seen = set()
    frontier = deque([(q0, 0)])
    checked = 0
    while frontier:
        q, depth = frontier.popleft()
        if q in seen or depth > 10 or q.sink:
            continue
        seen.add(q)
        total = sum(bus1_sta.env_outcome_dist(q).values())
        assert abs(total - 1.0) <= 1e-12
        checked += 1
        for sym in symbols:
            if (sym & {"b1", "b2"}) <= q.pending:
                q2, _ = bus1_sta.step(q, sym)
                frontier.append((q2, depth + 1))
    assert checked > 50


def test_outcome_factorization(bus1_sta):
    # independence: P(e) factors into per-event terms
    q, _ = bus1_sta.initial(frozenset())
    d = bus1_sta.env_outcome_dist(q)
    h = bus1_sta.hazards(q)
    for e, p in d.items():
        expect = 1.0
        for name in q.pending:
            expect *= h[name] if name in e else 1.0 - h[name]
        assert p == pytest.approx(expect, abs=1e-15)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_event_resets_and_stops(bus1_sta):
    q, _ = bus1_sta.initial(frozenset())
    q1, p = bus1_sta.step(q, {"b1"})
    assert p == pytest.approx(0.8 * 0.7, abs=1e-15)
    assert q1.pending == {"b2"}
    clocks = dict(zip(bus1_sta.event_names, q1.clocks))
    assert clocks == {"b1": 0, "b2": 1}
    # the clock of the event that occurred holds at zero
    q2, _ = bus1_sta.step(q1, frozenset())
    assert dict(zip(bus1_sta.event_names, q2.clocks)) == {"b1": 0, "b2": 2}


def test_step_case1_probability_one(bus1_sta):
    q, _ = bus1_sta.initial(frozenset())
    q2, _ = bus1_sta.step(q, {"b1", "b2"})
    q3, p = bus1_sta.step(q2, frozenset())
    assert p == 1.0
    assert q3.clocks == (0, 0)  # both stopped


def test_step_rejects_reoccurrence(bus1_sta):
    q, _ = bus1_sta.initial(frozenset())
    q1, _ = bus1_sta.step(q, {"b1"})
    with pytest.raises(StaError):
        bus1_sta.step(q1, {"b1"})


def test_initial_event_probability_zero(bus1_sta):
    _q, p = bus1_sta.initial(frozenset({"b1"}))
    assert p == 0.0


def test_paper_style_run_likelihood(bus1_sta):
    word = TimedWord.from_sets([set(), {"b1"}, set(), {"b3"}])
    verdict, likelihood, states = bus1_sta.run_word(word)
    assert verdict == "accept"
    assert likelihood == pytest.approx(0.56 * 0.7 * 0.7, abs=1e-12)
    assert states[1].clocks == (0, 1)


def test_word_monitor_verdicts(bus1_sta):
    # deadline blown on both branches: no acceptance remains possible
    w = TimedWord.from_sets(
        [set(), {"b1", "b2"}] + [set()] * 7 + [{"b3", "b4"}])
    verdict, _, _ = bus1_sta.run_word(w)
    assert verdict == "reject"
    # only one branch blown: still winnable via b2
    w2 = TimedWord.from_sets([set(), {"b1"}] + [set()] * 7)
    verdict2, _, _ = bus1_sta.run_word(w2)
    assert verdict2 == "inconclusive-prefix"
    assert bus1_sta.run_word(TimedWord.from_sets([]))[0] == "inconclusive-prefix"


# ---------------------------------------------------------------------------
# hazard chaining identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist_text,p_or_table", [
    ("geom:0.3", Geometric(0.3)),
    ("geom:0.4", Geometric(0.4)),
    ("geom:0.7", Geometric(0.7)),
    ("geom:0.8", Geometric(0.8)),
    ("table:1:0.2,3:0.5,7:0.3", FiniteTable(((1, 0.2), (3, 0.5), (7, 0.3)))),
])
def test_first_occurrence_chain_equals_pmf(dist_text, p_or_table):
    m, _, _ = single_event_sta(dist_text)
    max_k = 30 if isinstance(p_or_table, Geometric) else p_or_table.max_step
    for k in range(1, max_k + 1):
        q, p = m.initial(frozenset())
        assert p == 1.0
        chain = 1.0
        for _ in range(k - 1):
            q, p = m.step(q, frozenset())
            chain *= p
        q, p = m.step(q, {"b"})
        chain *= p
        assert chain == pytest.approx(p_or_table.pmf(k), abs=1e-12)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def test_truncation_requires_all_events(bus1_sta):
    f = parse("D{geom:0.5} zz")
    u = EventSet.from_formula(f)
    tv = uniform_truncation_vector(f, u, 3)
    with pytest.raises(StaError):
        truncate(bus1_sta, tv)


@pytest.mark.parametrize("p,T", [(0.5, 3), (0.3, 4), (0.8, 0), (0.7, 5)])
def test_single_event_sink_mass_exact(p, T):
    m, f, u = single_event_sta(f"geom:{p}")
    tv = uniform_truncation_vector(f, u, T)
    ts = truncate(m, tv)
    # mass reaching sink: survive every step while the clock can still
    # advance; at clock T the whole next step sinks
    q, _ = ts.initial(frozenset())
    sink_mass = 0.0
    alive = 1.0
    for _step in range(T + 1):
        outcomes = ts.env_outcome_dist(q)
        nxt_alive = 0.0
        for e, pe in outcomes.items():
            q2, p2 = ts.step(q, e)
            assert p2 == pytest.approx(pe, abs=1e-15)
            if q2.sink:
                sink_mass += alive * p2
            elif q2.pending:
                nxt_alive += alive * p2
                q_next = q2
        if nxt_alive == 0.0:
            break
        alive = nxt_alive
        q = q_next
    assert sink_mass == pytest.approx((1 - p) ** T, abs=1e-12)


def test_truncation_whole_step_sinks(bus1_sta, case1_T3):
    _, tv = case1_T3
    ts = truncate(bus1_sta, tv)
    q, _ = ts.initial(frozenset())
    for _ in range(3):
        q, _ = ts.step(q, frozenset())
    assert q.clocks == (3, 3)
    assert ts.would_sink(q)
    # every outcome from the capped state sinks, with its case probability
    for e in (frozenset(), frozenset({"b1"}), frozenset({"b2"})):
        q2, p = ts.step(q, e)
        assert q2.sink
        assert p == pytest.approx(ts.env_outcome_dist(q)[e], abs=1e-15)


def test_truncation_stopped_clocks_never_sink(bus1_sta, case1_T3):
    _, tv = case1_T3
    ts = truncate(bus1_sta, tv)
    q, _ = ts.initial(frozenset())
    q, _ = ts.step(q, {"b1", "b2"})
    for _ in range(20):
        q, p = ts.step(q, frozenset())
        assert not q.sink
        assert p == 1.0


def test_truncation_T0_boundary():
    m, f, u = single_event_sta("geom:0.5")
    tv = uniform_truncation_vector(f, u, 0)
    ts = truncate(m, tv)
    q, _ = ts.initial(frozenset())
    q2, p = ts.step(q, frozenset())
    assert q2.sink and p == 0.5
    q3, p3 = ts.step(q, {"b"})
    assert q3.sink and p3 == 0.5  # occurrence at step 1 also exceeds T=0


def test_sink_absorbs(bus1_sta, case1_T3):
    _, tv = case1_T3
    ts = truncate(bus1_sta, tv)
    q = SINK
    q2, p = ts.step(q, frozenset())
    assert q2 is SINK and p == 1.0


# ---------------------------------------------------------------------------
# Monte Carlo error bound check
# ---------------------------------------------------------------------------

def test_error_estimate_bounded(bus1_sta, bus1_formula, bus1_events):
    tv = uniform_truncation_vector(bus1_formula, bus1_events, 3)
    ts = truncate(bus1_sta, tv)
    est = truncation_error_estimate(bus1_sta, ts, 20000, seed=7,
                               agent_prop_prob={"b3": 0.25, "b4": 0.25})
    assert est.hits > 0
    assert est.ci_high < tv.eps_achieved


def test_error_estimate_no_truncation_zero(bus1_sta, bus1_formula, bus1_events):
    tv = uniform_truncation_vector(bus1_formula, bus1_events, 10 ** 6)
    ts = truncate(bus1_sta, tv)
    est = truncation_error_estimate(bus1_sta, ts, 2000, seed=3, horizon=40,
                               agent_prop_prob={"b3": 0.3, "b4": 0.3})
    assert est.estimate == 0.0
    assert est.hits == 0


def test_error_estimate_needs_samples(bus1_sta, bus1_formula, bus1_events):
    tv = uniform_truncation_vector(bus1_formula, bus1_events, 3)
    ts = truncate(bus1_sta, tv)
    with pytest.raises(ValueError):
        truncation_error_estimate(bus1_sta, ts, 0, seed=1)


def test_exact_ci_small_counts():
    from mitlplan._kernels import wilson_interval

    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0
    assert 0.0 < hi < 0.005  # 3/n rule of thumb
    lo5, hi5 = wilson_interval(5, 1000)
    assert 0.0 < lo5 < 0.005 < hi5 < 0.02


def test_monte_carlo_estimate_on_default_generator(bus1_sta, bus1_formula,
                                                   bus1_events):
    # all-false agent propositions: nothing is ever accepted
    tv = uniform_truncation_vector(bus1_formula, bus1_events, 3)
    ts = truncate(bus1_sta, tv)
    est = truncation_error_estimate(bus1_sta, ts, 2000, seed=5)
    assert est.estimate == 0.0
