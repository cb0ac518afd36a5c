import copy
import gc
import pickle
import random
import weakref

import pytest

from mitlplan import formula
from mitlplan.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    DistEventually,
    EventSet,
    FalseF,
    FiniteTable,
    FormulaError,
    Geometric,
    Interval,
    Not,
    Or,
    ParseError,
    TrueF,
    Until,
    ZeroSurvivalError,
    eventually,
    normalize,
    parse,
    pretty,
    substitute_dist,
    truncation_vector,
    uniform_truncation_vector,
    until,
    validate_fragment,
)
from mitlplan.timed_automata import build_dta

from _oracles import random_fragment_formula

from conftest import BUS_CASE1


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_dist_eventually_conjunction():
    f = parse("D{geom:0.8} b1 & F (b1 & F[0,3] b3)")
    assert f == And(
        DistEventually("b1", Geometric(0.8)),
        eventually(And(Atom("b1"), eventually(Atom("b3"), Interval(0, 3)))))


def test_parse_true():
    assert parse("true") == TRUE


def test_parse_singular_interval_rejected():
    with pytest.raises(ParseError) as exc:
        parse("F[2,2] b3")
    assert "singular" in str(exc.value)


def test_parse_empty_interval_rejected():
    with pytest.raises(ParseError):
        parse("F[5,3] b")


def test_parse_unknown_distribution():
    with pytest.raises(ParseError) as exc:
        parse("D{weird:0.5} b")
    assert "unknown distribution" in str(exc.value)


def test_parse_table_distribution():
    f = parse("D{table:1:0.5,3:0.25} b")
    assert f == DistEventually("b", FiniteTable(((1, 0.5), (3, 0.25))))


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("a &\n& b")
    assert exc.value.line == 2


def test_parse_precedence():
    # ! > F > & > |
    f = parse("!a & F b | c")
    assert f == Or(And(Not(Atom("a")), eventually(Atom("b"))), Atom("c"))


def test_parse_until_right_associative():
    f = parse("a U b U c")
    assert f == until(Atom("a"), until(Atom("b"), Atom("c")))


def test_parse_unbounded_interval_normalized():
    assert parse("F[0,inf] b") == parse("F b")
    assert parse("a U[2,inf] b").interval == Interval(2, None)


def test_roundtrip_random_formulas():
    rng = random.Random(99)
    for _ in range(400):
        f = random_fragment_formula(rng, ["p", "q", "r"])
        assert parse(pretty(f)) == f, pretty(f)


def test_roundtrip_with_distributions():
    for text in [BUS_CASE1, "D{table:1:0.5,2:0.5} b", "D{geom:1.0} e & F e"]:
        f = parse(text)
        assert parse(pretty(f)) == f


# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------

def test_equal_nodes_are_one_node():
    rng = random.Random(7)
    for _ in range(200):
        f = random_fragment_formula(rng, ["p", "q", "r"])
        assert parse(pretty(f)) is f, pretty(f)
    a, b = Atom("a"), Atom("b")
    iv = Interval(1, 4)
    assert Until(a, b) is Until(a, b, None)
    assert Until(left=a, right=b, interval=iv) is Until(a, b, Interval(1, 4))
    assert Atom(name="a") is a
    assert until(TRUE, a, Interval(0, None)) is eventually(a)
    assert TrueF() is TRUE
    assert FalseF() is FALSE
    assert And(a, b) is not And(b, a)
    assert Or(a, b) is not And(a, b)


def test_copies_and_pickles_are_the_interned_node():
    for text in [BUS_CASE1, "D{table:1:0.5,2:0.5} b & F[2,5] !c",
                 "p U[0,3] (q | F r)", "true", "false"]:
        f = parse(text)
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f


def test_nodes_are_immutable():
    f = parse("p U[0,3] q")
    with pytest.raises(AttributeError):
        f.left = Atom("r")
    with pytest.raises(AttributeError):
        del f.right
    assert repr(Not(Atom("p"))) == "Not(operand=Atom(name='p'))"


def _build_and_drop(text):
    """Build an automaton from text nothing else refers to; return weak
    references to its locations."""
    dta = build_dta(parse(text))
    return [weakref.ref(f) for f in dta.locations
            if f is not TRUE and f is not FALSE]


def test_build_leaves_no_formulas_behind():
    # the intern table holds nodes weakly and the progression memo belongs
    # to one build, so once the automaton is dropped every formula the
    # build made is freed
    gc.collect()
    before = len(formula._NODES)
    refs = _build_and_drop("F[0,3] (x1 & F[1,4] x2) | x3 U[0,5] !x1")
    gc.collect()
    assert len(refs) > 10
    assert all(r() is None for r in refs)
    assert len(formula._NODES) == before


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_bus_formula_passes():
    f = parse(BUS_CASE1)
    u = EventSet.from_formula(f)
    assert u.names == ("b1", "b2")
    assert validate_fragment(f, u).ok


def test_validate_negated_dist_eventually():
    f = Not(DistEventually("b1", Geometric(0.5)))
    u = EventSet.from_formula(f)
    report = validate_fragment(f, u)
    assert not report.ok
    assert any("negat" in v for v in report.violations)


def test_validate_event_not_declared():
    f = DistEventually("b3", Geometric(0.5))
    u = EventSet((("b1", Geometric(0.5)),))
    report = validate_fragment(f, u)
    assert any("not a declared event" in v for v in report.violations)
    assert any("never referenced" in v for v in report.violations)


def test_validate_negated_until_outside_fragment():
    f = Not(eventually(Atom("a")))
    report = validate_fragment(f, EventSet(()))
    assert any("co-safety" in v for v in report.violations)


def test_validate_duplicate_event_reference():
    d = DistEventually("b", Geometric(0.5))
    f = And(d, d)
    u = EventSet.from_formula(f)
    report = validate_fragment(f, u)
    assert any("referenced 2 times" in v for v in report.violations)


def test_normalize_pushes_negation():
    f = Not(And(Atom("a"), Or(Atom("b"), Not(Atom("c")))))
    nf = normalize(f)
    assert nf == Or(Not(Atom("a")), And(Not(Atom("b")), Atom("c")))


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitute_bus_formula():
    f = parse(BUS_CASE1)
    phid = substitute_dist(f)
    assert pretty(phid) == ("F b1 & F (b1 & F[0,3] b3) | "
                            "F b2 & F (b2 & F[0,3] b4)")


def test_substitute_true_identity():
    assert substitute_dist(TRUE) == TRUE


def test_substitute_single():
    f = DistEventually("b2", Geometric(0.3))
    assert substitute_dist(f) == eventually(Atom("b2"))


def test_substitute_idempotent_and_preserving():
    rng = random.Random(5)
    for _ in range(100):
        g = random_fragment_formula(rng, ["p", "q"])
        f = And(DistEventually("e", Geometric(0.5)), g)
        once = substitute_dist(f)
        assert substitute_dist(once) == once
        assert once == And(eventually(Atom("e")), g)  # g untouched


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_geometric_tail_closed_form():
    assert Geometric(0.3).tail(3) == (1 - 0.3) ** 3
    assert abs(Geometric(0.3).tail(3) - 0.343) < 1e-15
    assert Geometric(0.4).tail(5) == (1 - 0.4) ** 5
    assert abs(Geometric(0.4).tail(5) - 0.07776) < 1e-15


def test_tail_matches_pmf_summation():
    for p in (0.3, 0.4, 0.7, 0.8):
        d = Geometric(p)
        for T in range(21):
            direct = 1.0 - sum(d.pmf(k) for k in range(T + 1))
            assert d.tail(T) == pytest.approx(direct, abs=1e-12)


def test_tail_normalization_table():
    d = FiniteTable(((1, 0.2), (4, 0.5), (9, 0.3)))
    for T in range(12):
        head = sum(d.pmf(k) for k in range(1, T + 1))
        assert d.tail(T) + head == pytest.approx(1.0, abs=1e-12)


def test_geometric_hazard_constant():
    for p in (0.3, 0.4, 0.7, 0.8):
        d = Geometric(p)
        for t in range(1, 21):
            assert d.hazard(t) == p
            # matches the pmf/survival ratio
            survival = d.tail(t - 1)
            assert d.pmf(t) / survival == pytest.approx(p, abs=1e-12)


def test_hazard_geometric_example():
    assert Geometric(0.8).hazard(7) == 0.8


def test_hazard_table():
    d = FiniteTable(((1, 0.5), (2, 0.5)))
    assert d.hazard(2) == pytest.approx(1.0, abs=1e-12)


def test_hazard_zero_survival():
    d = FiniteTable(((1, 1.0),))
    with pytest.raises(ZeroSurvivalError):
        d.hazard(2)


def test_table_validation():
    with pytest.raises(FormulaError):
        FiniteTable(((2, 0.5), (1, 0.5)))  # not increasing
    with pytest.raises(FormulaError):
        FiniteTable(((1, 0.8), (2, 0.4)))  # mass > 1
    with pytest.raises(FormulaError):
        Geometric(0.0)


# ---------------------------------------------------------------------------
# truncation points
# ---------------------------------------------------------------------------

def test_truncation_vector_bus_example():
    f = parse(BUS_CASE1)
    u = EventSet.from_formula(f)
    tv = truncation_vector(f, u, 0.35)
    assert tv["b1"] == 1        # 0.2^1 = 0.2 < 0.35
    assert tv["b2"] == 3        # 0.7^3 = 0.343 < 0.35
    assert tv["win1"] == 3 and tv["win2"] == 3
    assert tv.eps_achieved == (1 - 0.3) ** 3


def test_truncation_window_only():
    f = parse("F[4,10] b")
    tv = truncation_vector(f, EventSet(()), 0.5)
    assert tv.as_dict() == {"win1": 10}
    assert tv.eps_achieved == 0.0


def test_uniform_truncation_case2():
    f = parse("D{geom:0.4} b1 & F b1 | D{geom:0.7} b2 & F b2")
    u = EventSet.from_formula(f)
    tv = uniform_truncation_vector(f, u, 5)
    assert tv["b1"] == 5 and tv["b2"] == 5
    assert tv.eps_achieved == max(0.6 ** 5, 0.3 ** 5)
    assert abs(tv.eps_achieved - 0.07776) < 1e-15


def test_truncation_monotone_in_eps():
    f = parse(BUS_CASE1)
    u = EventSet.from_formula(f)
    prev = None
    for eps in (0.5, 0.35, 0.2, 0.05, 0.01, 0.001):
        tv = truncation_vector(f, u, eps)
        assert tv.eps_achieved < eps
        if prev is not None:
            for name in u.names:
                assert tv[name] >= prev[name]
        prev = tv


def test_truncation_eps_range():
    f = parse("D{geom:0.5} b")
    u = EventSet.from_formula(f)
    with pytest.raises(ValueError):
        truncation_vector(f, u, 0.0)
    with pytest.raises(ValueError):
        truncation_vector(f, u, 1.0)


def test_truncation_unreachable_table_bound():
    # 0.3 of the mass never arrives: no T can push the tail below 0.2
    f = parse("D{table:1:0.7} b")
    u = EventSet.from_formula(f)
    with pytest.raises(FormulaError) as exc:
        truncation_vector(f, u, 0.2)
    assert "0.3" in str(exc.value)


def test_truncation_conjunction_max():
    # same window appears under both conjuncts with different bounds
    f = parse("F[0,2] a & F[0,4] a")
    tv = truncation_vector(f, EventSet(()), 0.5)
    assert tv.as_dict() == {"win1": 2, "win2": 4}
