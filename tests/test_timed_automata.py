import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mitlplan.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    DistEventually,
    EventSet,
    FormulaError,
    Geometric,
    Interval,
    Not,
    Or,
    Until as until,
    eventually,
    mask_subsets,
    parse,
    pretty,
    substitute_dist,
    validate_fragment,
)
from mitlplan.timed_automata import (
    MAX_ATOMS,
    AutomatonError,
    ProgressionDta,
    TimedWord,
    build_dta,
    canonical,
    dta_to_dot,
    progress,
    run_dta,
)

from _explicit_dta import (
    AndC,
    Compare,
    DiffCompare,
    FalseC,
    OrC,
    eval_constraint,
    load_dta,
    parse_clock_constraint,
)
from _oracles import (
    ReferenceProgression,
    normalize,
    random_fragment_formula,
    random_word,
    word_satisfies,
)

from conftest import BUS_CASE1, DATA, THREE_BUS, package_env


# ---------------------------------------------------------------------------
# clock constraints and clock stepping of the explicit-clock oracle
# (tests/_explicit_dta.py)
# ---------------------------------------------------------------------------

def vec(values):
    return {f"x{i+1}": v for i, v in enumerate(values)}


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
    # clock names are checked once, when the automaton is loaded
    for line in ("edge a [x - zz > 1] {p} -> a reset{}",
                 "edge a [true] {p} -> a reset{zz}",
                 "invariant a [zz <= 1]"):
        with pytest.raises(AutomatonError, match="unknown clock 'zz'"):
            load_dta(f"locations a\nclocks x\ninit a\n{line}\n")


def test_eval_bool_combinations():
    v = vec([2, 5])
    c = AndC(Compare("x1", ">=", 1), OrC(Compare("x2", "<", 3), Compare("x2", "=", 5)))
    assert eval_constraint(c, v)


@pytest.fixture(scope="module")
def resetter():
    """One location; reading `r` zeroes x1 and x3, anything else nothing."""
    return load_dta("""
locations a
clocks x1 x2 x3 x4
init a
edge a [true] {!r} -> a reset{}
edge a [true] {r} -> a reset{x1,x3}
""")


def test_advance_uniform(resetter):
    assert resetter.step_config(("a", (0, 0, 0, 0)), frozenset(), 1) == \
        ("a", (1, 1, 1, 1))


def test_advance_zero_identity(resetter):
    # the first symbol is read with no time elapsed
    config = ("a", (3, 1, 0, 2))
    assert resetter.step_config(config, frozenset(), 0) == config
    r = run_dta(resetter, TimedWord.from_sets([set()]))
    assert [values for _, values in r.configs] == [(0, 0, 0, 0)] * 2


def test_reset(resetter):
    config = resetter.step_config(("a", (2, 1, 3, 1)), frozenset({"r"}), 0)
    assert config == ("a", (0, 1, 0, 1))


def test_reset_empty_identity(resetter):
    config = ("a", (4, 2, 0, 7))
    assert resetter.step_config(config, frozenset(), 0) == config


def test_reset_idempotent(resetter):
    once = resetter.step_config(("a", (5, 5, 5, 5)), frozenset({"r"}), 0)
    twice = resetter.step_config(once, frozenset({"r"}), 0)
    assert once == twice == ("a", (0, 5, 0, 5))


def test_advance_additive(resetter):
    # each symbol after the first adds one to every clock
    r = run_dta(resetter, TimedWord.from_sets([set()] * 6))
    assert [values for _, values in r.configs] == \
        [(0, 0, 0, 0)] + [(t,) * 4 for t in range(6)]


def test_reset_after_advance(resetter):
    # time elapses before the edge's resets apply
    config = resetter.step_config(("a", (1, 1, 1, 1)), frozenset({"r"}), 2)
    assert config == ("a", (0, 3, 0, 3))


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
    # an until whose right operand fails, or that must wait on a false
    # left operand, fails; one whose right operand holds now holds
    assert canonical(until(a, And(b, FALSE), Interval(0, 2))) == FALSE
    assert canonical(until(FALSE, a, Interval(1, 3))) == FALSE
    assert canonical(until(FALSE, a, Interval(0, 3))) == until(FALSE, a,
                                                               Interval(0, 3))
    assert canonical(until(a, Or(b, TRUE))) == TRUE
    assert canonical(until(a, TRUE, Interval(1, 3))) == until(a, TRUE,
                                                              Interval(1, 3))
    # the input is put in negation normal form first
    assert canonical(Not(TRUE)) is FALSE
    assert canonical(Not(Not(a))) is a
    assert canonical(Not(And(a, Not(b)))) is Or(Not(a), b)


def test_canonical_confluence_under_progress():
    rng = random.Random(17)
    for _ in range(200):
        f = random_fragment_formula(rng, ["p", "q"])
        g = canonical(f)
        symbol = frozenset(a for a in ("p", "q") if rng.random() < 0.5)
        assert progress(g, symbol) == progress(canonical(g), symbol)
        assert canonical(g) == g  # canonical is idempotent


def test_progress_canonicalizes_its_input():
    # the operands of an until are canonical in the residual even where
    # they were not in the input
    a = Atom("a")
    assert progress(eventually(And(a, a), Interval(0, 2)), set()) is \
        eventually(a, Interval(0, 1))
    assert progress(eventually(And(a, a)), set()) is eventually(a)
    assert progress(Or(a, And(a, Atom("b"))), {"a"}) is TRUE
    # a distribution eventuality must be substituted first
    with pytest.raises(FormulaError):
        progress(Or(a, DistEventually("b", Geometric(0.5))), set())
    # and a negation may stand only on an atom
    with pytest.raises(FormulaError, match="negation over Until"):
        progress(Not(eventually(a)), set())


def _criterion_9_formulas(n):
    """The first `n` formulas of the draw of
    `test_criterion_9_progression_soundness`, words drawn in between."""
    rng = random.Random(20260808)
    atoms = ["p", "q", "r"]
    out = []
    for _ in range(n):
        out.append(random_fragment_formula(rng, atoms, max_temporal=3,
                                           max_bound=5))
        for _ in range(3):
            random_word(rng, atoms, 12)
    return out


def test_progression_matches_node_level_reference():
    # every entry of the closure is the residual that building the
    # And/Or/Until node and canonicalizing it afterwards gives, and the
    # initial location is the reference canonical form of the formula
    missions = [substitute_dist(parse(text))
                for text in (BUS_CASE1, THREE_BUS)]
    for f in missions + _criterion_9_formulas(200):
        d = build_dta(f)
        ref = ReferenceProgression()
        assert d.locations[d.init_index] is ref.canonical(normalize(f))
        symbols = mask_subsets(d.atoms)
        for i, row in enumerate(d.table):
            for mask, j in enumerate(row):
                got = ref.progress(d.locations[i], symbols[mask])
                assert d.locations[j] is got, (pretty(f), i, mask)


def test_progress_ignores_atoms_the_formula_does_not_mention():
    # `progress` reads a symbol through the bits of the formula's atoms,
    # as the automaton does, so other names change neither residual
    rng = random.Random(5113)
    for _ in range(150):
        f = random_fragment_formula(rng, ["p", "q"])
        d = ProgressionDta(f)
        for extra in ({"x"}, {"p", "zz"}, {"q", "r", "x"}):
            symbol = {a for a in ("p", "q") if rng.random() < 0.5} | extra
            got = progress(f, symbol)
            assert got is d.locations[d.step_config(d.init_index, symbol, 0)]
            assert got is progress(f, sorted(symbol & {"p", "q"})), pretty(f)


def _boolean(rng, atoms, depth=0):
    """A random formula of atoms and constants under `&`, `|` and `!`."""
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        return rng.choice([TRUE, FALSE, *map(Atom, atoms)])
    if roll < 0.55:
        return Not(_boolean(rng, atoms, depth + 1))
    return rng.choice([And, Or])(_boolean(rng, atoms, depth + 1),
                                 _boolean(rng, atoms, depth + 1))


def test_canonical_pushes_negations_down_as_normalize_does():
    # negations over `&`, `|`, `!` and constants, where the fragment takes
    # them: the initial location is the reference canonical form of the
    # negation normal form, and the first step the reference residual
    rng = random.Random(6271)
    atoms = ["p", "q", "r"]
    for _ in range(300):
        neg = [Not(_boolean(rng, atoms)) for _ in range(3)]
        f = rng.choice([
            until(neg[0], neg[1], Interval(0, rng.randint(1, 4))),
            eventually(And(neg[0], eventually(neg[1], Interval(1, 3)))),
            Or(And(neg[0], random_fragment_formula(rng, atoms)), neg[2]),
            Not(Or(neg[0], Not(And(neg[1], neg[2])))),
        ])
        assert validate_fragment(f, EventSet(())).ok, pretty(f)
        ref = ReferenceProgression()
        init = ref.canonical(normalize(f))
        d = ProgressionDta(f)
        assert d.locations[d.init_index] is init is canonical(f), pretty(f)
        symbol = frozenset(a for a in atoms if rng.random() < 0.5)
        step = d.step_config(d.init_index, symbol, 0)
        assert d.locations[step] is ref.progress(init, symbol), pretty(f)


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


def _relation(d):
    """Transitions of a closed automaton by location formula."""
    return {(d.locations[i], mask, d.locations[j])
            for i, row in enumerate(d.table) for mask, j in enumerate(row)}


def test_on_demand_automaton_fills_only_what_steps_read():
    f = substitute_dist(parse(BUS_CASE1))
    d = ProgressionDta(f)
    assert d.location_count == 1
    assert d.table == [[-1] * (1 << len(d.atoms))]
    assert d.accept_index == d.reject_index == -1
    j = d.step_config(d.initial_config(), {"b1"}, 0)
    assert d.location_count == 2 and j == 1
    assert sum(x >= 0 for row in d.table for x in row) == 1
    # a filled entry is read back, not computed again
    assert d.step_config(d.initial_config(), {"b1"}, 1) == 1
    assert d.location_count == 2
    assert d.close() is d
    full = build_dta(f)
    assert d.location_count == full.location_count
    assert d.locations[d.accept_index] == TRUE
    # the unbounded eventualities can always still be met
    assert d.reject_index == full.reject_index == -1


def test_on_demand_automaton_runs_like_the_closure():
    # random words give the same location formulas and acceptance through
    # an automaton filled as they are read as through `build_dta`; closing
    # it afterwards gives the closure's locations and transitions, up to
    # renumbering
    rng = random.Random(7031)
    atoms = ["p", "q", "r"]
    for _ in range(200):
        f = random_fragment_formula(rng, atoms)
        full = build_dta(f)
        d = ProgressionDta(f)
        for _ in range(4):
            w = TimedWord.from_sets(random_word(rng, atoms, 12))
            got, want = run_dta(d, w), run_dta(full, w)
            assert got.accepted == want.accepted, (pretty(f), w)
            assert [d.locations[c] for c in got.configs] == \
                [full.locations[c] for c in want.configs], (pretty(f), w)
        assert d.location_count <= full.location_count
        d.close()
        assert sorted(map(pretty, d.locations)) == \
            sorted(map(pretty, full.locations))
        assert _relation(d) == _relation(full), pretty(f)
        for index in ("init_index", "accept_index", "reject_index"):
            i, j = getattr(d, index), getattr(full, index)
            assert (i < 0) == (j < 0)
            assert i < 0 or d.locations[i] == full.locations[j]


def test_on_demand_cap_counts_reached_locations():
    f = substitute_dist(parse(BUS_CASE1))
    n = build_dta(f).location_count
    assert build_dta(f, cap=n).location_count == n
    with pytest.raises(AutomatonError,
                       match=f"closure exceeded {n - 1} locations"):
        build_dta(f, cap=n - 1)
    d = ProgressionDta(f, cap=2)
    d.step_config(d.initial_config(), {"b1"}, 0)
    with pytest.raises(AutomatonError, match="closure exceeded 2 locations"):
        d.step_config(d.initial_config(), {"b1", "b2"}, 0)


def test_atom_limit_refuses_before_building_symbols(monkeypatch):
    # at the limit the automaton steps; one past it, the error comes
    # before a table row of 2**atoms entries is built
    atoms = [f"a{i}" for i in range(MAX_ATOMS + 1)]
    d = ProgressionDta(parse(" | ".join(atoms[:MAX_ATOMS])))
    assert len(d.atoms) == MAX_ATOMS
    assert d.is_accepting(d.step_config(d.initial_config(), {"a3"}, 0))
    monkeypatch.setattr(ProgressionDta, "_intern", None)
    with pytest.raises(AutomatonError, match=(
            f"formula has {MAX_ATOMS + 1} propositions, more than the "
            f"{MAX_ATOMS} a progression automaton tracks")):
        ProgressionDta(parse(" | ".join(atoms)))


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
# explicit automata (tests/_explicit_dta.py)
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
    assert [loc for loc, _ in r.configs] == ["Init", "Init", "L1", "L1", "L3"]
    assert r.configs[2] == ("L1", (0, 1, 0, 1))


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


def test_load_names_the_first_conflict_first_clock_fastest():
    # the edges overlap wherever x >= 1 or y >= 1; clock vectors are
    # enumerated with the first clock varying fastest, so x=1, y=0 comes
    # before x=0, y=1
    text = """
locations a b c
clocks x y
init a
edge a [x >= 1 | y >= 1] {p} -> b reset{}
edge a [true] {p} -> c reset{}
"""
    with pytest.raises(AutomatonError) as exc:
        load_dta(text)
    assert str(exc.value) == ("nondeterministic edges from 'a' on {'p'} "
                              "at [x=1, y=0]: 'b' vs 'c'")


NONDETERMINISTIC_THREE_ATOMS = """
locations A B C
clocks x
init C
edge C [true] {p & q} -> B reset{}
edge C [true] {p & q & r} -> A reset{}
"""


def test_nondeterminism_messages_do_not_depend_on_the_hash_seed():
    # both messages print the symbol's names sorted; printed as a set,
    # their order followed the string hash seed.  A box cap of 0 skips the
    # load-time check, so that the step meets the conflict
    script = ("import sys\n"
              "import _explicit_dta as xd\n"
              "text = sys.stdin.read()\n"
              "for cap in (xd.DETERMINISM_BOX_CAP, 0):\n"
              "    xd.DETERMINISM_BOX_CAP = cap\n"
              "    try:\n"
              "        d = xd.load_dta(text)\n"
              "        d.step_config(d.initial_config(), {'r', 'q', 'p'}, 0)\n"
              "    except xd.AutomatonError as exc:\n"
              "        print(exc)\n")
    tests = str(Path(__file__).resolve().parent)
    expected = ("nondeterministic edges from 'C' on {'p', 'q', 'r'} at [x=0]: "
                "'B' vs 'A'\n"
                "nondeterministic step from 'C' on {'p', 'q', 'r'} at [x=0]\n")
    for seed in ("0", "1"):
        env = package_env(tests, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", script],
                              input=NONDETERMINISTIC_THREE_ATOMS, env=env,
                              check=True, capture_output=True, text=True,
                              timeout=300)
        assert done.stdout == expected, seed


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
    assert r.configs[1][0] == "__reject__"


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
    # p comes at x = 2: the run stayed in a past its bound during the delay
    assert not run_dta(d, TimedWord.from_sets([set(), set(), {"p"}])).accepted
    late = TimedWord.from_sets([set(), set(), set(), {"p"}])
    assert not run_dta(d, late).accepted


def test_dot_export(bus1_dta):
    dot = dta_to_dot(bus1_dta)
    assert "digraph" in dot and "doublecircle" in dot


def test_word_text_roundtrip():
    w = TimedWord.from_sets([set(), {"b1"}, {"b1", "b3"}])
    assert TimedWord.from_text("-\nb1\nb1 b3\n") == w
    assert len(w) == 3
