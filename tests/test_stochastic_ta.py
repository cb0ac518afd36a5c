import random
import subprocess
import sys
from collections import Counter, deque

import pytest

from mitlplan.formula import (
    And,
    DistEventually,
    EventSet,
    FiniteTable,
    Geometric,
    env_subsets,
    mask_subsets,
    parse,
    pretty,
    substitute_dist,
    uniform_truncation_vector,
)
from mitlplan.simulator import wilson_interval
from mitlplan.stochastic_ta import (SINK, StaError, StaModel, StaState,
                                    truncate)
from mitlplan.timed_automata import (
    AutomatonError,
    ProgressionDta,
    TimedWord,
    build_dta,
)

from _oracles import (random_fragment_formula, reference_code,
                      truncation_error_estimate)
from conftest import BUS_CASE1, package_env



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


def test_initial_refuses_an_event(bus1_sta):
    # no clock has advanced at time 0, so no event can have occurred
    with pytest.raises(StaError, match=r"^events \['b1'\] cannot occur at "
                                       r"time 0$"):
        bus1_sta.initial(frozenset({"b1", "b3"}))
    assert bus1_sta.initial(frozenset({"b3"}))[1] == 1.0


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
    # the empty word: judged at the initial location, no state read
    assert bus1_sta.run_word(TimedWord.from_sets([])) == (
        "inconclusive-prefix", 1.0, [])


def test_monitor_layers_import_without_numpy():
    script = ("import sys\n"
              "import mitlplan.formula, mitlplan.timed_automata, "
              "mitlplan.stochastic_ta\n"
              "print('numpy' in sys.modules)\n")
    env = package_env()
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=120)
    assert done.stdout == "False\n"


# `BUS_CASE1`, the two missions the end-to-end benchmark monitors, a law
# that leaves no mass after step 1, and a deadline that reaches a rejecting
# location
MEMO_MISSIONS = {
    "case1": BUS_CASE1,
    "bench-two-bus": ("D{geom:0.4} b1 & F (b1 & F[0,3] s1) | "
                      "D{geom:0.7} b2 & F (b2 & F[0,3] s2)"),
    "bench-three-bus": ("D{geom:0.4} b1 & F (b1 & F[0,3] s1) | "
                        "D{geom:0.7} b2 & F (b2 & F s2) | "
                        "D{geom:0.5} b3 & F (b3 & F[0,2] s3)"),
    "zero-survival": "D{geom:1.0} b1 & F (b1 & F[0,2] s1)",
    "deadline": "D{geom:0.5} b1 & F (b1 & F[0,2] s1) & F[0,4] s2",
}


def memo_words(rng, atoms, events, n):
    """n words over the atoms, the events and the untracked `zz`; in about
    a third of them an event may occur more than once.  The first two show
    an event twice and leave it pending for three steps."""
    words = [[set(), {events[0]}, {events[0]}], [set(), set(), set()]]
    for _ in range(n - len(words)):
        repeat = rng.random() < 0.3
        fired, word = set(), []
        for _ in range(rng.randint(0, 12)):
            sym = {a for a in atoms + ("zz",) if rng.random() < 0.3}
            sym |= {e for e in events if rng.random() < 0.2
                    and (repeat or e not in fired)}
            fired |= sym
            word.append(sym)
        words.append(word)
    return [TimedWord.from_sets(w) for w in words]


def monitor_outcome(m, word):
    try:
        verdict, likelihood, states = m.run_word(word)
    except StaError as exc:
        return "error", str(exc)
    return verdict, likelihood.hex(), states


@pytest.mark.parametrize("mission", MEMO_MISSIONS)
def test_run_word_memo_matches_a_fresh_model(mission):
    f = parse(MEMO_MISSIONS[mission])
    u = EventSet.from_formula(f)
    dta = build_dta(substitute_dist(f))
    atoms = tuple(a for a in dta.atoms if a not in u.names)
    words = memo_words(random.Random(mission), atoms, u.names, 500)
    warm = StaModel(dta, u)
    got = [monitor_outcome(warm, w) for w in words]
    assert got == [monitor_outcome(StaModel(dta, u), w) for w in words]
    errors = [out[1] for out in got if out[0] == "error"]
    assert any("word step 2: events ['b1'] already occurred" == e
               for e in errors)
    if mission == "zero-survival":
        assert "word step 2: no probability mass remains at step 2" in errors
    if mission == "deadline":
        assert 2 in warm.codes
    # a replay is served from the memos and adds nothing to them
    sizes = len(warm.states), len(warm._succ), len(warm._reach)
    assert [monitor_outcome(warm, w) for w in words] == got
    assert (len(warm.states), len(warm._succ), len(warm._reach)) == sizes
    # keys hold only what a step reads: at most 2^|reads| per id
    assert all(sym <= warm.reads for _, sym in warm._succ)
    per_id = Counter(i for i, _ in warm._succ)
    assert max(per_id.values()) <= 2 ** len(warm.reads)
    # the id table holds each state once, with a code; successor ids
    # index it, and it holds every state a word returned
    assert warm._ids == {q: i for i, q in enumerate(warm.states)}
    assert len(warm.codes) == len(warm.states)
    assert {j for j, _ in warm._succ.values()} <= set(range(len(warm._ids)))
    reached = {q for out in got if out[0] != "error" for q in out[2]}
    assert reached <= warm._ids.keys()
    # each code is the class the rewriting of the reference gives
    assert warm.codes == [reference_code(warm, q) for q in warm.states]


def reachable_pairs(m):
    """Every (location, pending set) that a word of the closed automaton
    `m.dta` reaches, each event firing at most once and none at time 0;
    accepting and rejecting locations are not left."""
    atoms = [a for a in m.dta.atoms if a not in m.event_names]
    pending = frozenset(m.event_names)
    init = m.dta.initial_config()
    todo = deque((m.dta.step_config(init, base, 0), pending)
                 for base in mask_subsets(atoms))
    seen = set()
    while todo:
        pair = todo.popleft()
        if pair in seen:
            continue
        seen.add(pair)
        config, pending = pair
        if m.dta.is_accepting(config) or m.dta.is_rejecting(config):
            continue
        for extra in env_subsets(pending):
            for base in mask_subsets(atoms):
                todo.append((m.dta.step_config(config, base | extra, 1),
                             pending - extra))
    return seen


@pytest.mark.parametrize("n_events", [1, 2])
def test_a_lost_state_cannot_reach_acceptance(n_events):
    # soundness of the lost rule: no future in which each event fires at
    # most once reaches acceptance from a state `number` calls lost
    rng = random.Random(20261020 + n_events)
    events = ["p", "q"][:n_events]
    lost = 0
    for _ in range(60):
        f = random_fragment_formula(rng, ["p", "q", "r"], max_temporal=3,
                                    max_bound=5)
        for e in events:
            f = And(DistEventually(e, Geometric(0.5)), f)
        m = StaModel(build_dta(substitute_dist(f)), EventSet.from_formula(f))
        clocks = (0,) * n_events
        for config, pending in reachable_pairs(m):
            i = m.number(StaState(config, clocks, pending))
            if m.codes[i] == 2 and not m.dta.is_rejecting(config):
                lost += 1
                assert not m._acceptance_reachable(config, pending), \
                    (pretty(f), pretty(m.dta.locations[config]), pending)
    # the draw holds lost states other than the rejecting location
    assert lost > 0


def test_run_word_reraises_the_location_cap_on_every_call(bus1_formula,
                                                          bus1_events):
    m = StaModel(ProgressionDta(substitute_dist(bus1_formula), cap=2),
                 bus1_events)
    word = TimedWord.from_sets([set(), {"b1"}, set(), {"b3"}])
    for _ in range(2):
        with pytest.raises(AutomatonError):
            m.run_word(word)


def test_run_word_rejects_a_word_that_ends_in_the_truncation_sink():
    f = parse("D{geom:0.5} b1 & F (b1 & F[0,2] s1)")
    u = EventSet.from_formula(f)
    m = StaModel(build_dta(substitute_dist(f)), u,
                 uniform_truncation_vector(f, u, 2))
    word = TimedWord.from_sets([set()] * 5)
    for _ in range(2):  # the second run reads the memos
        verdict, likelihood, states = m.run_word(word)
        assert verdict == "reject"
        assert states[-2:] == [SINK, SINK]
        # b1 stays away at steps 1-3; the third step overruns the cap
        assert likelihood == 0.5 ** 3


@pytest.mark.parametrize("accept_first", [True, False])
def test_run_word_judges_the_sink_by_each_word_history(accept_first):
    # the second word reads the end id the first one left: the sink
    f = parse(BUS_CASE1)
    u = EventSet.from_formula(f)
    m = StaModel(build_dta(substitute_dist(f)), u,
                 uniform_truncation_vector(f, u, 2))
    # b1 at step 1, b3 at step 2: accepted; b2's clock then overruns
    accepts = TimedWord.from_sets([set(), {"b1"}, {"b3"}, set(), set()])
    rejects = TimedWord.from_sets([set()] * 5)
    words = [(accepts, "accept"), (rejects, "reject")]
    for word, verdict in words if accept_first else words[::-1]:
        got, _, states = m.run_word(word)
        assert states[-1] == SINK
        assert got == verdict


def test_end_verdicts_share_one_search_per_location_and_pending_set():
    # words of 1-4 empty steps end at four ids that differ only by their
    # clocks, and the search behind their verdict runs once
    f = parse(BUS_CASE1)
    m = StaModel(build_dta(substitute_dist(f)), EventSet.from_formula(f))
    ends = set()
    for n in range(1, 5):
        verdict, _, states = m.run_word(TimedWord.from_sets([set()] * n))
        assert verdict == "inconclusive-prefix"
        ends.add(states[-1])
    assert len(ends) == 4
    assert m._reach == {(0, frozenset({"b1", "b2"})): True}


def test_run_word_rejects_the_empty_word_of_false_by_its_code():
    # the initial location of `false` is the rejecting one, whose outcome
    # code 2 decides the verdict without a search
    f = parse("false")
    m = StaModel(build_dta(f), EventSet.from_formula(f))
    for _ in range(2):
        assert m.run_word(TimedWord.from_sets([])) == ("reject", 1.0, [])
    assert m.codes == [2]
    assert m._reach == {}


def test_run_word_refuses_a_repeat_of_a_step_0_event(bus1_sta):
    # the word is refused at its first event, before the repeat
    with pytest.raises(StaError) as exc:
        bus1_sta.run_word(TimedWord.from_sets([{"b1"}, {"b1"}]))
    assert str(exc.value) == ("word step 0: events ['b1'] cannot occur at "
                              "time 0")


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


def test_untruncated_model_never_sinks(bus1_sta, bus1_formula, bus1_events):
    ts = truncate(bus1_sta, uniform_truncation_vector(bus1_formula,
                                                      bus1_events, 3))
    assert bus1_sta.points == {} and bus1_sta.trunc is None
    q, _ = bus1_sta.initial(frozenset())
    for _ in range(50):
        assert not bus1_sta.would_sink(q)
        q, p = bus1_sta.step(q, frozenset())
        assert not q.sink and p > 0.0
    assert q.clocks == (50, 50)
    assert ts.would_sink(q)


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


def test_error_estimate_on_partly_stepped_automaton(bus1_sta, bus1_formula,
                                                    bus1_events):
    # the estimate walks the whole table; entries no step has read yet
    # are computed first, not read as -1 (the last location)
    lazy = StaModel(ProgressionDta(substitute_dist(bus1_formula)), bus1_events)
    lazy.run_word(TimedWord.from_sets([set(), {"b1"}]))
    assert any(j < 0 for row in lazy.dta.table for j in row)
    tv = uniform_truncation_vector(bus1_formula, bus1_events, 3)
    props = {"b3": 0.25, "b4": 0.25}
    got = truncation_error_estimate(lazy, truncate(lazy, tv), 20000, seed=7,
                                    agent_prop_prob=props)
    want = truncation_error_estimate(bus1_sta, truncate(bus1_sta, tv), 20000,
                                     seed=7, agent_prop_prob=props)
    assert got == want
    assert got.hits > 0
    assert all(j >= 0 for row in lazy.dta.table for j in row)


def test_error_estimate_needs_samples(bus1_sta, bus1_formula, bus1_events):
    tv = uniform_truncation_vector(bus1_formula, bus1_events, 3)
    ts = truncate(bus1_sta, tv)
    with pytest.raises(ValueError):
        truncation_error_estimate(bus1_sta, ts, 0, seed=1)


def test_exact_ci_small_counts():

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
