import importlib.util
import json
import random
from pathlib import Path

import pytest

from mitlplan.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    Interval,
    Or,
    eventually,
    parse,
    pretty,
    substitute_dist,
    until,
)
from mitlplan.timed_automata import (
    AutomatonError,
    ClockVector,
    Compare,
    DiffCompare,
    FalseC,
    AndC,
    OrC,
    TimedWord,
    build_dta,
    canonical,
    dta_to_dot,
    eval_constraint,
    load_dta,
    parse_clock_constraint,
    progress,
    run_dta,
)

from _oracles import random_fragment_formula, random_word, word_satisfies

from conftest import BUS_CASE1, DATA


# ---------------------------------------------------------------------------
# clock vectors and constraints
# ---------------------------------------------------------------------------

def vec(values, clocks=None):
    clocks = tuple(clocks or (f"x{i+1}" for i in range(len(values))))
    return ClockVector(clocks, tuple(values))


def test_eval_compare():
    v = vec([0, 0, 2, 0])
    assert eval_constraint(Compare("x3", "<=", 3), v)
    assert not eval_constraint(Compare("x3", ">", 3), v)


def test_eval_false_constraint():
    assert not eval_constraint(FalseC(), vec([0]))


def test_eval_diff_compare():
    v = vec([0, 3])
    assert eval_constraint(DiffCompare("x2", "x1", "=", 3), v)
    assert not eval_constraint(DiffCompare("x1", "x2", ">", 0), v)


def test_eval_unknown_clock():
    with pytest.raises(AutomatonError):
        eval_constraint(Compare("zz", "<", 1), vec([0]))


def test_eval_bool_combinations():
    v = vec([2, 5])
    c = AndC(Compare("x1", ">=", 1), OrC(Compare("x2", "<", 3), Compare("x2", "=", 5)))
    assert eval_constraint(c, v)


def test_advance_uniform():
    assert vec([0, 0, 0, 0]).advance(1).values == (1, 1, 1, 1)


def test_advance_zero_identity():
    v = vec([3, 1])
    assert v.advance(0) is v


def test_reset():
    v = vec([2, 1, 3, 1])
    r = v.reset(zero={"x1", "x3"})
    assert r.values == (0, 1, 0, 1)


def test_reset_empty_identity():
    v = vec([4, 2])
    assert v.reset().values == v.values


def test_reset_idempotent():
    v = vec([5, 5])
    once = v.reset(zero={"x1"})
    twice = once.reset(zero={"x1"})
    assert once == twice


def test_advance_additive():
    v = vec([1, 2])
    assert v.advance(2).advance(3) == v.advance(5)


def test_reset_after_advance():
    v = vec([1, 1]).advance(2).reset(zero={"x1"})
    assert v.values == (0, 3)


def test_parse_clock_constraint_forms():
    assert parse_clock_constraint("true") is None
    assert parse_clock_constraint("x1 <= 3") == Compare("x1", "<=", 3)
    assert parse_clock_constraint("x1 - x2 > 1") == DiffCompare("x1", "x2", ">", 1)
    c = parse_clock_constraint("x1 <= 3 & x2 > 1")
    assert eval_constraint(c, vec([2, 2]))
    assert not eval_constraint(c, vec([2, 1]))


# ---------------------------------------------------------------------------
# progression
# ---------------------------------------------------------------------------

def test_progress_decrements_window():
    f = eventually(Atom("b3"), Interval(0, 3))
    assert progress(f, set()) == eventually(Atom("b3"), Interval(0, 2))


def test_progress_deadline_met():
    f = eventually(Atom("b3"), Interval(0, 0))
    assert progress(f, {"b3"}) == TRUE
    assert progress(f, set()) == FALSE


def test_progress_unbounded_trigger():
    f = eventually(And(Atom("b1"), eventually(Atom("b3"), Interval(0, 3))))
    got = progress(f, {"b1"})
    expected = canonical(Or(eventually(Atom("b3"), Interval(0, 2)), f))
    assert got == expected


def test_progress_lower_bound_shift():
    f = until(Atom("a"), Atom("b"), Interval(2, 4))
    got = progress(f, {"a"})
    assert got == until(Atom("a"), Atom("b"), Interval(1, 3))
    assert progress(f, set()) == FALSE  # left obligation fails


def test_canonical_sorts_and_dedupes():
    a, b = Atom("a"), Atom("b")
    assert canonical(And(b, And(a, b))) == canonical(And(a, b))
    assert canonical(Or(a, FALSE)) == a
    assert canonical(And(a, TRUE)) == a
    assert canonical(And(a, FALSE)) == FALSE
    assert canonical(Or(a, TRUE)) == TRUE


def test_canonical_confluence_under_progress():
    rng = random.Random(17)
    for _ in range(200):
        f = random_fragment_formula(rng, ["p", "q"])
        g = canonical(f)
        symbol = frozenset(a for a in ("p", "q") if rng.random() < 0.5)
        assert progress(g, symbol) == progress(canonical(g), symbol)
        assert canonical(g) == g  # canonical is idempotent


# ---------------------------------------------------------------------------
# progression automaton
# ---------------------------------------------------------------------------

def test_build_dta_single_atom():
    d = build_dta(Atom("b"))
    assert d.location_count == 3  # pending, true, false
    assert run_dta(d, TimedWord.from_sets([{"b"}])).accepted
    assert not run_dta(d, TimedWord.from_sets([set()])).accepted


def test_build_dta_true():
    d = build_dta(TRUE)
    assert d.location_count == 1
    assert run_dta(d, TimedWord.from_sets([])).accepted


def test_build_dta_cap():
    f = parse(BUS_CASE1)
    with pytest.raises(AutomatonError):
        build_dta(substitute_dist(f), cap=5)


def test_run_empty_word():
    d = build_dta(Atom("b"))
    assert not run_dta(d, TimedWord.from_sets([])).accepted
    assert run_dta(build_dta(TRUE), TimedWord.from_sets([])).accepted


def test_progression_determinism_and_totality():
    d = build_dta(substitute_dist(parse(BUS_CASE1)))
    n_masks = 1 << len(d.atoms)
    for row in d.table:
        assert len(row) == n_masks
        assert all(0 <= j < d.location_count for j in row)


def test_progression_soundness_random():
    rng = random.Random(4242)
    atoms = ["p", "q", "r"]
    for _ in range(300):
        f = random_fragment_formula(rng, atoms)
        d = build_dta(f)
        for _ in range(4):
            w = random_word(rng, atoms, 12)
            expect = word_satisfies(canonical(f), w)
            got = run_dta(d, TimedWord.from_sets(w)).accepted
            assert got == expect, (pretty(f), w)


def _digest_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "dta_digests.py"
    spec = importlib.util.spec_from_file_location("dta_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_dta_digests():
    # location lists and transition tables as the committed digests record
    # them; regenerate with tools/dta_digests.py only for a change that is
    # meant to alter automata
    expected = json.loads((DATA / "dta_digests.json").read_text())
    del expected["plans"]  # test_golden_plan_digests checks them
    got = _digest_tool().digests()
    assert sorted(got) == sorted(expected)
    assert [name for name in expected if got[name] != expected[name]] == []


def test_golden_plan_digests():
    # policy, value and product files and bench CSVs of the two bus grids,
    # recorded by tools/dta_digests.py
    expected = json.loads((DATA / "dta_digests.json").read_text())["plans"]
    got = _digest_tool().plan_digests()
    assert sorted(got) == sorted(expected)
    assert [name for name in expected if got[name] != expected[name]] == []


# ---------------------------------------------------------------------------
# explicit automata
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle():
    return load_dta((DATA / "bus_oracle.dta").read_text())


def test_load_oracle(oracle):
    assert oracle.location_count == 5
    assert oracle.clocks == ("x1", "x2", "x3", "x4")
    assert oracle.accepting == {"L3"}


def test_oracle_reference_run(oracle):
    w = TimedWord.from_sets([set(), {"b1"}, set(), {"b3"}])
    r = run_dta(oracle, w)
    assert r.accepted
    assert [loc for loc, _ in r.trace] == ["Init", "Init", "L1", "L1", "L3"]
    assert r.trace[2] == ("L1", (0, 1, 0, 1))


def test_oracle_rejects_late_b3(oracle):
    # b3 five steps after b1, b2 never: window closed
    w = TimedWord.from_sets([set(), {"b1"}, set(), set(), set(), set(), {"b3"}])
    r = run_dta(oracle, w)
    assert not r.accepted


def test_oracle_equivalence_bulk(oracle, bus1_dta):
    rng = random.Random(1234)
    agent = ["b3", "b4"]
    for _ in range(2000):
        length = rng.randint(0, 20)
        occ = {"b1": rng.randint(0, 24), "b2": rng.randint(0, 24)}
        word = []
        for i in range(length):
            sym = {e for e, t in occ.items() if t == i}
            sym |= {a for a in agent if rng.random() < 0.3}
            word.append(sym)
        tw = TimedWord.from_sets(word)
        assert run_dta(bus1_dta, tw).accepted == run_dta(oracle, tw).accepted


def test_load_rejects_nondeterminism():
    text = """
locations a b c
clocks x
init a
accepting c
edge a [true] {p} -> b reset{}
edge a [x <= 2] {p} -> c reset{}
"""
    with pytest.raises(AutomatonError) as exc:
        load_dta(text)
    assert "nondeterministic" in str(exc.value)


def test_load_rejects_dangling_location():
    text = """
locations a
clocks x
init a
accepting a
edge a [true] {p} -> zz reset{}
"""
    with pytest.raises(AutomatonError) as exc:
        load_dta(text)
    assert "undeclared location" in str(exc.value)


def test_load_rejects_unknown_clock():
    text = """
locations a
clocks x
init a
accepting a
edge a [y <= 1] {p} -> a reset{}
"""
    with pytest.raises(AutomatonError) as exc:
        load_dta(text)
    assert "unknown clock" in str(exc.value)


def test_empty_accepting_set_is_valid():
    text = """
locations a
clocks x
init a
edge a [true] {true} -> a reset{}
"""
    d = load_dta(text)
    assert not run_dta(d, TimedWord.from_sets([set(), set()])).accepted


def test_uncovered_symbol_goes_to_reject():
    text = """
locations a c
clocks x
init a
accepting c
edge a [true] {p} -> c reset{}
"""
    d = load_dta(text)
    r = run_dta(d, TimedWord.from_sets([{"q"}, {"p"}]))
    # first symbol lacks p: falls into the reject location and stays there
    assert not r.accepted
    assert r.trace[1][0] == "__reject__"


def test_invariant_forces_leave():
    text = """
locations a c
clocks x
init a
accepting c
invariant a [x <= 1]
edge a [true] {!p} -> a reset{}
edge a [true] {p} -> c reset{}
"""
    d = load_dta(text)
    assert run_dta(d, TimedWord.from_sets([set(), {"p"}])).accepted
    late = TimedWord.from_sets([set(), set(), set(), {"p"}])
    assert not run_dta(d, late).accepted


def test_dot_export(oracle, bus1_dta):
    dot = dta_to_dot(oracle)
    assert "digraph" in dot and "L3" in dot
    dot2 = dta_to_dot(bus1_dta)
    assert "digraph" in dot2 and "doublecircle" in dot2


def test_word_text_roundtrip():
    w = TimedWord.from_sets([set(), {"b1"}, {"b1", "b3"}])
    assert TimedWord.from_text(w.to_text()) == w
