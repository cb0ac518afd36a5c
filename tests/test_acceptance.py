"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a pytest failure is the FAIL line).
"""

import math
import random

import numpy as np
import pytest

from mitlplan.cli import main
from mitlplan.formula import (
    EventSet,
    FiniteTable,
    Geometric,
    parse,
    substitute_dist,
    uniform_truncation_vector,
)
from mitlplan.simulator import estimate_success
from mitlplan.solver import (extract_policy, policy_evaluation,
                             satisfaction_probability, value_iteration)
from mitlplan.stochastic_ta import StaModel, truncate
from mitlplan.timed_automata import TimedWord, build_dta, canonical, run_dta

from _explicit_dta import load_dta
from _oracles import (
    brute_force_reach,
    product_state,
    random_fragment_formula,
    random_word,
    truncation_error_estimate,
    word_satisfies,
)
from conftest import BUS_CASE1, BUS_CASE2, DATA, build_case

REFERENCE_RESULTS = {
    # reported for qualitative comparison only; the grid dynamics and the
    # state counting convention behind these numbers are not specified
    "case1_values": (0.43264, 0.60645, 0.60645),
    "case2_values": (0.51411, 0.62313, 0.62313),
    "state_sizes": (518400, 921600, 1440000),
}


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}", flush=True)


def _bench(formula, grid, capsys):
    capsys.readouterr()  # drop anything already captured
    code = main(["bench", "--formula", formula, "--grid", str(grid),
                 "--uniform-T", "3,4,5"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    eps = [float(r[1]) for r in rows]
    states = [int(r[2]) for r in rows]
    values = [float(r[3]) for r in rows]
    return eps, states, values


def test_criterion_1_error_bounds_exact(capsys):
    eps1, _, _ = _bench(BUS_CASE1, DATA / "case1.grid", capsys)
    eps2, _, _ = _bench(BUS_CASE2, DATA / "case2.grid", capsys)
    expected1 = [(1 - 0.3) ** T for T in (3, 4, 5)]
    expected2 = [(1 - 0.4) ** T for T in (3, 4, 5)]
    assert eps1 == expected1
    assert eps2 == expected2
    for got, text in zip(eps1 + eps2,
                         ["0.343", "0.2401", "0.16807",
                          "0.216", "0.1296", "0.07776"]):
        assert f"{got:.15g}" == f"{float(text):.15g}"
    _report(1, "uniform-T sweeps reproduce all six error bounds to 15 "
               "significant digits of the closed form")


def test_criterion_2_value_monotonicity(capsys):
    for name, formula, grid, ref in [
            ("case1", BUS_CASE1, DATA / "case1.grid",
             REFERENCE_RESULTS["case1_values"]),
            ("case2", BUS_CASE2, DATA / "case2.grid",
             REFERENCE_RESULTS["case2_values"])]:
        _eps, states, values = _bench(formula, grid, capsys)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9
        print(f"\n  {name}: values {values} (reference {ref}, "
              f"reference state sizes {REFERENCE_RESULTS['state_sizes']}, "
              f"our reachable counts {states}; conventions differ)")
    _report(2, "initial-state value is non-decreasing in T on both cases")


def test_criterion_3_oracle_equivalence(bus1_dta):
    oracle = load_dta((DATA / "bus_oracle.dta").read_text())
    rng = random.Random(31415)
    n_words = 10_000
    agree = 0
    for _ in range(n_words):
        length = rng.randint(0, 20)
        occ = {"b1": rng.randint(0, 24), "b2": rng.randint(0, 24)}
        word = []
        for i in range(length):
            sym = {e for e, t in occ.items() if t == i}
            sym |= {a for a in ("b3", "b4") if rng.random() < 0.3}
            word.append(sym)
        tw = TimedWord.from_sets(word)
        if run_dta(bus1_dta, tw).accepted == run_dta(oracle, tw).accepted:
            agree += 1
    assert agree == n_words
    _report(3, f"progression automaton agrees with the hand-built "
               f"explicit-clock automaton on {n_words}/{n_words} words")


def test_criterion_4_hazard_chaining():
    cases = [Geometric(p) for p in (0.3, 0.4, 0.7, 0.8)]
    cases.append(FiniteTable(((1, 0.2), (3, 0.5), (7, 0.3))))
    cases.append(FiniteTable(((2, 0.5), (5, 0.25), (9, 0.25))))
    checked = 0
    for dist in cases:
        g = parse(f"D{{{dist}}} e")
        u = EventSet.from_formula(g)
        m = StaModel(build_dta(substitute_dist(g)), u)
        max_k = 30 if isinstance(dist, Geometric) else dist.max_step
        for k in range(1, max_k + 1):
            q, p0 = m.initial(frozenset())
            chain = p0
            for _ in range(k - 1):
                q, p = m.step(q, frozenset())
                chain *= p
            q, p = m.step(q, {"e"})
            chain *= p
            assert abs(chain - dist.pmf(k)) <= 1e-12
            checked += 1
    assert checked >= 4 * 30
    _report(4, f"chained step probabilities reproduce the pmf at {checked} "
               f"(distribution, step) points within 1e-12")


def test_criterion_5a_sink_mass_exact():
    for p in (0.3, 0.4, 0.7, 0.8):
        for T in (0, 1, 3, 5):
            g = parse(f"D{{geom:{p}}} e")
            u = EventSet.from_formula(g)
            m = StaModel(build_dta(substitute_dist(g)), u)
            ts = truncate(m, uniform_truncation_vector(g, u, T))
            q, _ = ts.initial(frozenset())
            sink_mass = 0.0
            alive = 1.0
            for _ in range(T + 1):
                step_outcomes = ts.env_outcome_dist(q)
                survivor = None
                next_alive = 0.0
                for e, pe in step_outcomes.items():
                    q2, p2 = ts.step(q, e)
                    if q2.sink:
                        sink_mass += alive * p2
                    elif q2.pending:
                        survivor = q2
                        next_alive += alive * p2
                if survivor is None:
                    break
                q, alive = survivor, next_alive
            assert abs(sink_mass - (1 - p) ** T) <= 1e-12
    _report("5a", "single-event sink mass equals (1-p)^T within 1e-12")


def test_criterion_5b_error_bound_monte_carlo(bus1_sta, bus1_formula, bus1_events):
    tv = uniform_truncation_vector(bus1_formula, bus1_events, 3)
    assert abs(tv.eps_achieved - 0.343) < 1e-15
    est = truncation_error_estimate(bus1_sta, truncate(bus1_sta, tv), 100_000,
                               seed=2024,
                               agent_prop_prob={"b3": 0.25, "b4": 0.25})
    assert est.hits > 0  # the check is not vacuous
    assert est.ci_high < tv.eps_achieved
    _report("5b", f"Monte Carlo bound check: estimate {est.estimate:.4f}, "
                  f"CI high {est.ci_high:.4f} < 0.343 with n=100000")


def test_criterion_6_probability_normalization():
    checked_env = checked_rows = 0
    for formula in (BUS_CASE1, BUS_CASE2):
        for T in (3, 4, 5):
            m, _ = build_case(formula, T)
            sums = np.add.reduceat(m.probs, m.row_ptr[:-1])
            assert np.abs(sums - 1.0).max() <= 1e-10
            checked_rows += len(sums)
            for z in range(m.n_states):
                _, q = product_state(m, z)
                if q.sink or m.sta.dta.is_rejecting(q.config):
                    continue
                total = sum(m.sta.env_outcome_dist(q).values())
                assert abs(total - 1.0) <= 1e-12
                checked_env += 1
    _report(6, f"{checked_env} outcome distributions within 1e-12 and "
               f"{checked_rows} product rows within 1e-10")


def test_criterion_7_solver_oracle(case2_T3):
    # (a) 2x2 single-event instance
    from test_solver import small_instance

    m_small, _ = small_instance(p=0.5, eps=0.05)
    res_small = value_iteration(m_small, tol=1e-10)
    w_small = brute_force_reach(m_small, 500)
    assert abs(res_small.values[m_small.z0] - w_small[m_small.z0]) < 1e-8
    # (b) grid case 2 with T=3
    m, _ = case2_T3
    res = value_iteration(m, tol=1e-10)
    w = brute_force_reach(m, 500)
    assert abs(res.values[m.z0] - w[m.z0]) < 1e-8
    # extracted-policy value matches
    for model, result in ((m_small, res_small), (m, res)):
        pol = extract_policy(model, result.values)
        pv = policy_evaluation(model, pol)
        assert np.abs(pv - result.values).max() < 1e-8
    _report(7, "value iteration matches the independent finite-horizon "
               "oracle and extracted-policy evaluation within 1e-8")


def test_criterion_8_simulation_consistency(case2_T3):
    m, _ = case2_T3
    res = value_iteration(m, tol=1e-10)
    pol = extract_policy(m, res.values)
    est = estimate_success(m, pol, 100_000, seed=88)
    v = satisfaction_probability(m, res.values)
    band = 4.0 * math.sqrt(v * (1 - v) / est.samples)
    assert abs(est.rate - v) < band
    _report(8, f"empirical rate {est.rate:.5f} within the 4-sigma band of "
               f"V(z0)={v:.5f} over 100000 rollouts")


def test_criterion_9_progression_soundness():
    rng = random.Random(20260808)
    atoms = ["p", "q", "r"]
    n_formulas = 1000
    words_per_formula = 3
    agree = total = 0
    for _ in range(n_formulas):
        f = random_fragment_formula(rng, atoms, max_temporal=3, max_bound=5)
        dta = build_dta(f)
        for _ in range(words_per_formula):
            w = random_word(rng, atoms, 12)
            expect = word_satisfies(canonical(f), w)
            got = run_dta(dta, TimedWord.from_sets(w)).accepted
            total += 1
            agree += got == expect
    assert agree == total == n_formulas * words_per_formula
    _report(9, f"automaton acceptance equals brute-force satisfaction on "
               f"{total}/{total} (formula, word) pairs")
