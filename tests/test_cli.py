import ast
import gc
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mitlplan import cli, pipeline
from mitlplan.cli import build_model, build_parser, main
from mitlplan.formula import (
    MAX_FORMULA_DEPTH,
    EventSet,
    parse,
    substitute_dist,
)
from mitlplan.product_mdp import OUTCOMES, ProductError
from mitlplan.simulator import (default_max_steps, estimate_success, rollout,
                                stream_seed)
from mitlplan.timed_automata import (
    MAX_ATOMS,
    MAX_TABLE_ENTRIES,
    AutomatonError,
    TimedWord,
    build_dta,
    dta_to_dot,
    run_dta,
)
from mitlplan.solver import value_iteration

from _explicit_dta import load_dta
from conftest import (
    DATA,
    BUS_CASE1,
    BUS_CASE2,
    DEEP_FORMULAS,
    THREE_BUS,
    package_env,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv):
    """stderr of a command line that argparse rejects with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_translate_writes_outputs(tmp_path, capsys):
    code, out, _ = run(capsys, "translate", "--formula", BUS_CASE1,
                       "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "dta.dot").exists()
    assert (tmp_path / "dta.txt").exists()
    assert (tmp_path / "sta.txt").exists()
    assert "locations:" in out
    assert "digraph" in (tmp_path / "dta.dot").read_text()


@pytest.mark.parametrize("formula, lines", [
    # `F a` can always still hold, and `false` can never accept
    ("F a", "init q0\naccepting q1\nreject none\n"),
    ("false", "init q0\naccepting none\nreject q0\n"),
], ids=["eventually", "false"])
def test_translate_marks_a_missing_location_none(tmp_path, capsys, formula,
                                                 lines):
    code, _, _ = run(capsys, "translate", "--formula", formula,
                     "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "dta.txt").read_text()
    assert lines in text
    assert "q-1" not in text


# ---------------------------------------------------------------------------
# explicit-clock oracles (tests/_explicit_dta.py) against the automaton
# `translate` builds
# ---------------------------------------------------------------------------

def equivalence_trials(dta, oracle, events, n_words, max_len, seed):
    """Acceptance agreement on random words; external events fire at most
    once per word (the model's domain), other propositions freely."""
    rng = random.Random(seed)
    atoms = sorted(set(dta.atoms) | set(oracle.atoms))
    agent_atoms = [a for a in atoms if a not in events]
    agree = 0
    for _ in range(n_words):
        length = rng.randint(0, max_len)
        occurrence = {ev: rng.randint(0, max_len + 4) for ev in events}
        word = []
        for i in range(length):
            sym = {ev for ev in events if occurrence[ev] == i}
            sym |= {a for a in agent_atoms if rng.random() < 0.3}
            word.append(sym)
        tw = TimedWord.from_sets(word)
        if run_dta(dta, tw).accepted == run_dta(oracle, tw).accepted:
            agree += 1
    return agree


def oracle_line(formula, text, words=200, seed=0):
    """The explicit automaton `text` checked against the progression
    automaton of `formula` on `words` random words of at most 20 symbols:
    the agreement count, or the `AutomatonError` of its load or a run."""
    f = parse(formula)
    dta = build_dta(substitute_dist(f))
    try:
        agree = equivalence_trials(dta, load_dta(text),
                                   EventSet.from_formula(f).names, words,
                                   20, seed)
    except AutomatonError as exc:
        return str(exc)
    return f"oracle-agreement: {agree}/{words}"


def test_translate_oracle_agreement():
    # the automaton `translate` builds for the two-bus mission accepts the
    # words the hand-built oracle accepts
    text = (DATA / "bus_oracle.dta").read_text()
    assert oracle_line(BUS_CASE1, text, 500, seed=1) == \
        "oracle-agreement: 500/500"


NONDETERMINISTIC_BEYOND_THE_BOX = """
locations A B
clocks x1 x2 x3 x4 x5
init A
accepting B
edge A [x1 <= 10 & x2 <= 10 & x3 <= 10 & x4 <= 10 & x5 <= 10] {a} -> B
edge A [true] {a} -> A
"""


@pytest.mark.parametrize("oracle, message", [
    # 12**5 clock vectors times 2 symbols exceed the load-time box, so the
    # overlap is found only when a word steps it
    (NONDETERMINISTIC_BEYOND_THE_BOX,
     "nondeterministic step from 'A' on {'a'} at [x1=0, x2=0, "
     "x3=0, x4=0, x5=0]"),
    ("locations A\nclocks x1\ninit A\naccepting A\n"
     "invariant A [zz <= 3]\nedge A [true] {a} -> A\n",
     "unknown clock 'zz' in invariant of 'A'"),
    ("locations A\nclocks x1\ninit A\naccepting A\n"
     "invariant Q [x1 <= 3]\nedge A [true] {a} -> A\n",
     "invariant of undeclared location 'Q'"),
    ("locations A\nclocks x1\ninit\naccepting A\nedge A [true] {a} -> A\n",
     "line 3: expected 'init <location>'"),
], ids=["run-time-nondeterminism", "invariant-clock", "invariant-location",
        "bare-init"])
def test_translate_faulty_oracle_exits_2(oracle, message):
    # an oracle that fails to load, or to step a word, raises its message
    assert oracle_line("F a", oracle, 50, seed=1) == message


def test_translate_malformed_formula(tmp_path, capsys):
    code, _, err = run(capsys, "translate", "--formula", "F[2,2] b",
                       "--out", str(tmp_path))
    assert code == 2
    assert "singular" in err


def test_plan_and_simulate_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "plan", "--formula", BUS_CASE2,
                       "--grid", str(DATA / "case2.grid"),
                       "--uniform-T", "3", "--out", str(tmp_path))
    assert code == 0
    assert "satisfaction-probability:" in out
    assert (tmp_path / "policy.txt").exists()
    assert (tmp_path / "values.txt").exists()
    code2, out2, _ = run(capsys, "simulate", "--formula", BUS_CASE2,
                         "--grid", str(DATA / "case2.grid"),
                         "--uniform-T", "3",
                         "--policy", str(tmp_path / "policy.txt"),
                         "-n", "2000", "--seed", "4", "--logs", "2",
                         "--out", str(tmp_path))
    assert code2 == 0
    assert "success-rate:" in out2
    assert (tmp_path / "trajectory_000.log").exists()
    assert (tmp_path / "trajectory_001.log").exists()
    v = float(out.split("satisfaction-probability: ")[1].splitlines()[0])
    rate = float(out2.split("success-rate: ")[1].splitlines()[0])
    assert abs(rate - v) < 0.05


def test_simulate_stale_policy(tmp_path, capsys):
    code, _, _ = run(capsys, "plan", "--formula", BUS_CASE2,
                     "--grid", str(DATA / "case2.grid"),
                     "--uniform-T", "3", "--out", str(tmp_path))
    assert code == 0
    # same policy file against a different truncation: stale
    code2, _, err = run(capsys, "simulate", "--formula", BUS_CASE2,
                        "--grid", str(DATA / "case2.grid"),
                        "--uniform-T", "4",
                        "--policy", str(tmp_path / "policy.txt"))
    assert code2 == 6
    assert "policy was built for model" in err


@pytest.fixture(scope="module")
def case2_policy_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("case2")
    assert main(["plan", "--formula", BUS_CASE2,
                 "--grid", str(DATA / "case2.grid"),
                 "--uniform-T", "3", "--out", str(out)]) == 0
    # three header lines, then one line per state; state 0 is not absorbing
    return (out / "policy.txt").read_text().splitlines()


@pytest.mark.parametrize("edit, code, message", [
    (lambda ls: ls[:3] + ["0 Q 0.5"] + ls[4:], 2, "line 4: unknown action"),
    (lambda ls: ls[:3] + ["0 stay 0.5"] + ls[4:], 2, "line 4: unknown action"),
    (lambda ls: ls[:3], 2, "no action for"),
    (lambda ls: ls[:3] + ["zero N 0.5"] + ls[4:], 2, "line 4: expected"),
    (lambda ls: ls[:3] + ["0"] + ls[4:], 2, "line 4: expected"),
    (lambda ls: ls + ["99999 N 0.5"], 2, "state 99999 is not in"),
    (lambda ls: ls + [ls[3]], 2, "state 0 appears twice"),
    (lambda ls: [l for l in ls if " stay " not in l], 0, ""),
    # a file without its hash line is malformed, not stale
    (lambda ls: [l for l in ls if not l.startswith("# model-hash:")], 2,
     "policy.txt: no '# model-hash:' line"),
    (lambda ls: [], 2, "policy.txt: no '# model-hash:' line"),
    (lambda ls: ls[:3] + [ls[1]] + ls[3:], 2,
     "policy.txt line 4: a second '# model-hash:' line"),
    # an empty hash is malformed too, not a stale hash ""
    (lambda ls: [ls[0], "# model-hash: "] + ls[2:], 2,
     "policy.txt line 2: no hash after '# model-hash:'"),
], ids=["unknown-action", "stay-at-live-state", "no-rows",
        "non-integer-index", "one-token", "index-out-of-range",
        "repeated-state", "absorbing-states-omitted", "no-hash-line",
        "empty-file", "second-hash-line", "empty-hash"])
def test_simulate_rejects_malformed_policy(tmp_path, capsys,
                                           case2_policy_lines, edit, code,
                                           message):
    policy = tmp_path / "policy.txt"
    policy.write_text("\n".join(edit(case2_policy_lines)) + "\n")
    got, _, err = run(capsys, "simulate", "--formula", BUS_CASE2,
                      "--grid", str(DATA / "case2.grid"), "--uniform-T", "3",
                      "--policy", str(policy), "-n", "100", "--logs", "0",
                      "--out", str(tmp_path))
    assert got == code
    assert message in err


@pytest.mark.parametrize("command, option, value", [
    ("simulate", "-n", "0"),
    ("plan", "--tol", "0"),
    # one sweep would pass any residual, for a value of 0.0
    ("plan", "--tol", "inf"),
    ("plan", "--tol", "1e309"),
    ("bench", "--tol", "inf"),
    ("plan", "--max-iter", "0"),
    ("simulate", "--max-steps", "-3"),
    ("simulate", "--logs", "-2"),
    ("plan", "--cap", "0"),
    ("plan", "--cap", "-4"),
    # the rollout streams take seeds modulo 2**64, so these would alias
    # 2**64 - 1 and 0
    ("simulate", "--seed", "-1"),
    ("simulate", "--seed", str(2**64)),
])
def test_out_of_range_option_exits_2(tmp_path, capsys, case2_policy_lines,
                                     command, option, value):
    policy = tmp_path / "policy.txt"
    policy.write_text("\n".join(case2_policy_lines) + "\n")
    rollouts = ["--policy", str(policy), "-n", "10"] * (command == "simulate")
    with pytest.raises(SystemExit) as exc:
        main([command, "--formula", BUS_CASE2, "--grid",
              str(DATA / "case2.grid"), "--uniform-T", "3", *rollouts,
              option, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"error: argument {option}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_simulate_takes_seeds_from_0_to_2_to_the_64_minus_1(seed):
    args = build_parser().parse_args(
        ["simulate", "--formula", BUS_CASE2, "--grid", "g", "--policy", "p",
         "--seed", str(seed)])
    assert args.seed == seed


@pytest.mark.parametrize("option", ["--tol", "--max-iter"])
def test_simulate_has_no_solver_options(tmp_path, capsys, case2_policy_lines,
                                        option):
    policy = tmp_path / "policy.txt"
    policy.write_text("\n".join(case2_policy_lines) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--formula", BUS_CASE2,
              "--grid", str(DATA / "case2.grid"), "--uniform-T", "3",
              "--policy", str(policy), option, "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["translate", "plan", "monitor"])
@pytest.mark.parametrize("shape", DEEP_FORMULAS)
def test_formula_at_the_depth_limit_runs_and_one_past_exits_2(
        tmp_path, capsys, shape, command):
    grid = tmp_path / "a.grid"
    grid.write_text("width = 2\nheight = 2\nstations.a = (1,1)\n")
    word = tmp_path / "w.txt"
    word.write_text("-\na\nb\n")
    rest = {"translate": ["--out", str(tmp_path)],
            "plan": ["--grid", str(grid), "--uniform-T", "2",
                     "--out", str(tmp_path)],
            "monitor": ["--word", str(word)]}[command]
    deep = DEEP_FORMULAS[shape]
    code, _, err = run(capsys, command, "--formula", deep(MAX_FORMULA_DEPTH),
                       *rest)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, command, "--formula",
                         deep(MAX_FORMULA_DEPTH + 1), *rest)
    assert code == 2 and out == ""
    assert err.startswith("error: formula: ")
    assert err.endswith(
        f"formula nested deeper than {MAX_FORMULA_DEPTH} levels\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["translate", "plan", "monitor", "bench"])
def test_formula_past_the_atom_limit_exits_4(tmp_path, capsys, command):
    # MAX_ATOMS atoms a<i>, a0 a station of the grid, and the event b
    formula = " | ".join(f"a{i}" for i in range(MAX_ATOMS)) + " | D{geom:0.5} b"
    grid = tmp_path / "a.grid"
    grid.write_text("width = 2\nheight = 2\nstations.a0 = (1,1)\n")
    word = tmp_path / "w.txt"
    word.write_text("-\nb\n")
    rest = {"translate": ["--out", str(tmp_path)],
            "plan": ["--grid", str(grid), "--uniform-T", "2",
                     "--out", str(tmp_path)],
            "monitor": ["--word", str(word)],
            "bench": ["--grid", str(grid), "--uniform-T", "2"]}[command]
    code, out, err = run(capsys, command, "--formula", formula, *rest)
    assert (code, out) == (4, "")
    assert err == (f"error: automaton: formula has {MAX_ATOMS + 1} "
                   f"propositions, more than the {MAX_ATOMS} a progression "
                   f"automaton tracks\n")


# `translate`'s dta.dot of the disjunction of MAX_ATOMS atoms
ATOM_LIMIT_DOT = r"""digraph dta {
  rankdir=LR;
  node [shape=circle];
  q0 [shape=circle, label="q0\na0 | a1 | a10 | a11 | a12 | a13 | a14 | a15 | a2 | a3 | a4 | a5 | a6 | a7 | a8 | a9"];
  q1 [shape=circle, label="q1\nfalse"];
  q2 [shape=doublecircle, label="q2\ntrue"];
  q0 -> q2 [label="{a0} {a1} {a0,a1} (+65532)"];
  q2 -> q2 [label="{} {a0} {a1} (+65533)"];
  init [shape=point]; init -> q0;
}
"""


def test_translate_at_the_atom_limit_names_shown_symbols_by_their_bits(
        tmp_path, capsys):
    # an edge shows at most three of its 2**MAX_ATOMS symbols, each named
    # from the bits of its mask, so the dot export builds no symbol sets
    formula = " | ".join(f"a{i}" for i in range(MAX_ATOMS))
    assert run(capsys, "translate", "--formula", formula,
               "--out", str(tmp_path))[0] == 0
    assert (tmp_path / "dta.dot").read_text() == ATOM_LIMIT_DOT
    dta = build_dta(parse(formula))
    tracemalloc.start()
    try:
        assert dta_to_dot(dta) == ATOM_LIMIT_DOT
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize("command", ["monitor", "translate"])
def test_a_table_past_the_entry_bound_exits_4(tmp_path, command):
    # MAX_ATOMS eventualities reach a location per subset of them, each
    # with a row of 2**MAX_ATOMS entries: `translate` closes the table and
    # `monitor`'s end verdict steps the initial location on every symbol;
    # without the bound the child fails by MemoryError
    formula = " & ".join(f"F a{i}" for i in range(MAX_ATOMS))
    word = tmp_path / "w.txt"
    word.write_text("-\n")
    rest = {"monitor": ["--word", str(word)],
            "translate": ["--out", str(tmp_path)]}[command]
    done = run_limited(command, "--formula", formula, *rest)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr == (
        f"error: automaton: progression table exceeded {MAX_TABLE_ENTRIES} "
        f"entries ({1 << MAX_ATOMS} per location)\n")
    assert not (tmp_path / "dta.txt").exists()


def test_plan_eps_zero_with_uniform_T_exits_2(tmp_path, capsys):
    # --eps 0 is given, so it conflicts with --uniform-T like any other value
    err = usage_error(capsys, "plan", "--formula", BUS_CASE2,
                      "--grid", str(DATA / "case2.grid"),
                      "--uniform-T", "3", "--eps", "0", "--out", str(tmp_path))
    assert "argument --eps: not allowed with argument --uniform-T" in err


def test_plan_formula_and_formula_file_conflict(tmp_path, capsys):
    # neither source may win silently; the file does not exist
    err = usage_error(capsys, "plan", "--formula", BUS_CASE1,
                      "--formula-file", str(tmp_path / "missing.mitl"),
                      "--grid", str(DATA / "case1.grid"), "--uniform-T", "3",
                      "--out", str(tmp_path))
    assert "argument --formula-file: not allowed with argument --formula" \
        in err


@pytest.mark.parametrize("argv, message", [
    (["plan", "--grid", "case2.grid"],
     "one of the arguments --formula --formula-file is required"),
    (["simulate", "--formula", "F a", "--policy", "policy.txt"],
     "one of the arguments --grid --game is required"),
    (["bench", "--formula", "F a", "--grid", "case2.grid", "--game",
      "toy.game", "--uniform-T", "3"],
     "argument --game: not allowed with argument --grid"),
    (["monitor", "--word", "word.txt"],
     "one of the arguments --formula --formula-file is required"),
], ids=["no-formula", "no-environment", "two-environments", "monitor"])
def test_option_rules_name_both_options(capsys, argv, message):
    assert message in usage_error(capsys, *argv)


def test_plan_station_named_like_an_event_exits_3(tmp_path, capsys):
    grid = tmp_path / "station_b1.grid"
    grid.write_text((DATA / "case2.grid").read_text() + "stations.b1 = (2,2)\n")
    code, _, err = run(capsys, "plan", "--formula", BUS_CASE2,
                       "--grid", str(grid), "--uniform-T", "3",
                       "--out", str(tmp_path))
    assert code == 3
    assert err == "error: grid: station 'b1' is named like an event\n"


@pytest.mark.parametrize("grid, formula, message", [
    # the events come from the formula alone
    ("width = 3\nheight = 3\nstations.b1 = (2,2)\n", BUS_CASE2,
     "station 'b1' is named like an event"),
    ("width = 3\nheight = 3\nstart = (1,1)\nstations.b2 = (1,1)\n",
     BUS_CASE2, "station 'b2' is named like an event"),
    # the clash is found before the events are compared with the formula's
    ((DATA / "case2.grid").read_text() + "stations.b1 = (2,2)\n", BUS_CASE1,
     "station 'b1' is named like an event"),
    ((DATA / "case2.grid").read_text().replace("slip = 0.8,0.1,0.1",
                                               "slip = nan,0.5,0.5"),
     BUS_CASE2, "slip probabilities (nan, 0.5, 0.5) must be >= 0 and sum to 1"),
], ids=["station-formula-event", "station-on-the-start",
        "station-and-events-disagree", "nan-slip"])
def test_plan_grid_rejected_by_its_config_exits_3(tmp_path, capsys, grid,
                                                  formula, message):
    path = tmp_path / "bad.grid"
    path.write_text(grid)
    code, _, err = run(capsys, "plan", "--formula", formula,
                       "--grid", str(path), "--uniform-T", "3",
                       "--out", str(tmp_path))
    assert code == 3
    assert err == f"error: grid: {message}\n"


@pytest.mark.parametrize("line, key", [
    ("width = abc", "width"),
    ("height = 4.5", "height"),
    ("slip = a,0.1,0.1", "slip"),
])
def test_plan_malformed_grid_number_exits_3(tmp_path, capsys, line, key):
    # the malformed line replaces the key's line: a key may not repeat
    kept = [old for old in (DATA / "case2.grid").read_text().splitlines()
            if not old.startswith(f"{key} =")]
    grid = tmp_path / "bad.grid"
    grid.write_text("\n".join([*kept, line]) + "\n")
    code, _, err = run(capsys, "plan", "--formula", BUS_CASE2,
                       "--grid", str(grid), "--uniform-T", "3",
                       "--out", str(tmp_path))
    assert code == 3
    assert f"grid: grid key {key!r}: bad number" in err


@pytest.mark.parametrize("line, message", [
    # a misspelt key must not fall back to the default start or slip
    ("strat = (3,3)", "unknown key 'strat'"),
    ("slipp = 1,0,0", "unknown key 'slipp'"),
    # a repeated key must not keep its last value
    ("start = (3,3)", "repeated key 'start'"),
    ("width = 5", "repeated key 'width'"),
])
def test_plan_grid_unknown_or_repeated_key_exits_3(tmp_path, capsys, line,
                                                   message):
    text = (DATA / "case1.grid").read_text()
    grid = tmp_path / "bad.grid"
    grid.write_text(text + line + "\n")
    code, _, err = run(capsys, "plan", "--formula", BUS_CASE1,
                       "--grid", str(grid), "--uniform-T", "3",
                       "--out", str(tmp_path))
    assert code == 3
    assert err == f"error: grid: line {len(text.splitlines()) + 1}: {message}\n"


@pytest.mark.parametrize("text, message", [
    # two laws for one event: sorting them crashed the canonical text
    ("width = 4\nheight = 4\nevents.b1 = geom:0.3\nevents.b1 = geom:0.8\n",
     "line 4: repeated key 'events.b1'"),
    ("width = 4\nheight = 4\nevents.b1 = geom:0.8\nevents.b1 = geom:0.8\n",
     "line 4: repeated key 'events.b1'"),
    # `start` is reported at its own line
    ("width = 4\nheight = 4\nstart = (9,x)\nevents.b1 = geom:0.8\n",
     "line 3: bad cell '(9,x)'"),
], ids=["event-two-laws", "event-same-law", "bad-start"])
def test_plan_grid_error_names_its_line(tmp_path, capsys, text, message):
    grid = tmp_path / "bad.grid"
    grid.write_text(text)
    code, _, err = run(capsys, "plan", "--formula", "D{geom:0.8} b1 & F b1",
                       "--grid", str(grid), "--uniform-T", "3",
                       "--out", str(tmp_path))
    assert code == 3
    assert err == f"error: grid: {message}\n"


def run_limited(*argv):
    """`mitlplan` in a child limited to 1 GiB of address space, so that
    what should be refused before it is built fails fast if it is built,
    instead of filling the machine's memory; one BLAS thread keeps numpy's
    own buffers well under the limit."""
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from mitlplan.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", script, *argv],
                          env=package_env(OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=300)


FOUR_EVENTS = " & ".join(f"D{{geom:0.5}} b{i} & F[0,9] b{i}"
                         for i in range(1, 5))


@pytest.mark.parametrize("size, formula, states", [
    (100000, "D{geom:0.5} b1 & F b1", 10**10 * 3),
    # just over the cap: 158 * 158 * 3**4
    (158, FOUR_EVENTS, 2022084),
], ids=["huge", "just-over-the-cap"])
def test_plan_refuses_a_grid_too_large_to_build(tmp_path, size, formula,
                                                states):
    grid = tmp_path / "big.grid"
    grid.write_text(f"width = {size}\nheight = {size}\n")
    done = run_limited("plan", "--formula", formula, "--grid", str(grid),
                       "--uniform-T", "2", "--out", str(tmp_path))
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        f"error: grid: {size}x{size} grid with {formula.count('D{')} events "
        f"has {states} states, more than 2000000\n")
    assert not (tmp_path / "policy.txt").exists()


def test_plan_does_not_import_numpy_ma(tmp_path):
    # plain `np.unique` imports `numpy.ma` on its first call, which costs
    # every `plan` process 10-15 ms
    script = ("import sys\n"
              "from mitlplan.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "assert code == 0, code\n"
              "print('numpy.ma' in sys.modules)\n")
    env = package_env()
    done = subprocess.run(
        [sys.executable, "-c", script, "plan", "--formula", BUS_CASE1,
         "--grid", str(DATA / "case1.grid"), "--uniform-T", "3",
         "--out", str(tmp_path)],
        env=env, check=True, capture_output=True, text=True, timeout=300)
    assert done.stdout.splitlines()[-1] == "False"


IMPORT_RUNS = {
    "plan": ["plan", "--formula", BUS_CASE1, "--grid",
             str(DATA / "case1.grid"), "--uniform-T", "4", "--out", "OUT"],
    "simulate": ["simulate", "--formula", BUS_CASE1, "--grid",
                 str(DATA / "case1.grid"), "--uniform-T", "4",
                 "--policy", "OUT/policy.txt", "-n", "10", "--out", "OUT"],
    "translate": ["translate", "--formula", BUS_CASE1, "--out", "OUT"],
    "monitor": ["monitor", "--formula", BUS_CASE1, "--word",
                str(DATA / "case1.word")],
    "bench": ["bench", "--formula", BUS_CASE1, "--grid",
              str(DATA / "case1.grid"), "--uniform-T", "3"],
}


@pytest.mark.parametrize("command", IMPORT_RUNS)
def test_only_simulate_imports_the_simulator(tmp_path, capsys, command):
    # every CLI process compiles the modules it imports from source, and
    # only `simulate` runs the simulator
    def argv(command):
        return [a.replace("OUT", str(tmp_path)) for a in IMPORT_RUNS[command]]

    if command == "simulate":
        assert main(argv("plan")) == 0
        capsys.readouterr()
    script = ("import sys\n"
              "from mitlplan.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "assert code == 0, code\n"
              "print('mitlplan.simulator' in sys.modules)\n")
    env = package_env()
    done = subprocess.run([sys.executable, "-c", script, *argv(command)],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=300)
    assert done.stdout.splitlines()[-1] == str(command == "simulate")


@pytest.mark.parametrize("command", IMPORT_RUNS)
def test_each_subcommand_loads_only_what_it_runs(tmp_path, capsys, command):
    # `translate` and `monitor` run on the numpy-free layers, and `plan`
    # hashes its model without OpenSSL wherever the interpreter has a
    # builtin sha256 (`_sha2` from Python 3.12, `_sha256` before); no
    # subcommand calls plain `np.unique`, which imports `numpy.ma`
    def argv(command):
        return [a.replace("OUT", str(tmp_path)) for a in IMPORT_RUNS[command]]

    if command == "simulate":
        assert main(argv("plan")) == 0
        capsys.readouterr()
    script = ("import importlib.util, json, sys\n"
              "from mitlplan.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "assert code == 0, code\n"
              "print(json.dumps({\n"
              "    'builtin_sha256': any(importlib.util.find_spec(name)\n"
              "                          for name in ('_sha2', '_sha256')),\n"
              "    'loaded': sorted(name for name in (\n"
              "        'numpy', 'numpy.ma', 'mitlplan.pipeline',\n"
              "        'mitlplan.simulator', '_hashlib')\n"
              "        if name in sys.modules)}))\n")
    done = subprocess.run([sys.executable, "-c", script, *argv(command)],
                          env=package_env(), check=True, capture_output=True,
                          text=True, timeout=300)
    report = json.loads(done.stdout.splitlines()[-1])
    loaded = report["loaded"]
    if not report["builtin_sha256"]:
        # an interpreter built without them hashes through OpenSSL
        loaded = [name for name in loaded if name != "_hashlib"]
    expected = {"translate": [], "monitor": [],
                "plan": ["mitlplan.pipeline", "numpy"],
                "bench": ["mitlplan.pipeline", "numpy"],
                "simulate": ["mitlplan.pipeline", "mitlplan.simulator",
                             "numpy"]}
    assert loaded == expected[command]


def test_python_m_shares_the_front_with_the_pipeline(tmp_path):
    # under `python -m mitlplan.cli` the front runs as `__main__`; an error
    # the pipeline raises must still be the front's `CliError`
    done = subprocess.run(
        [sys.executable, "-m", "mitlplan.cli", "plan", "--formula", BUS_CASE2,
         "--grid", str(DATA / "case2.grid"), "--uniform-T", "3",
         "--max-iter", "2", "--tol", "1e-14", "--out", str(tmp_path)],
        env=package_env(), capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (
        5, "", "error: value iteration hit 2 iterations with residual "
               "0.7200000000000002 >= 1e-14\n")


def test_the_front_reads_only_pipeline_names_through():
    assert cli.build_model is pipeline.build_model
    assert cli.Built is pipeline.Built
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        cli.nope


def test_startup_probe_reports_each_command():
    tool = Path(__file__).resolve().parent.parent / "tools" / "startup.py"
    env = package_env()
    done = subprocess.run([sys.executable, str(tool), "-n", "1"], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=60)
    report = json.loads(done.stdout)
    assert report["runs"] == 1
    assert report["baselines"] == {
        "python": {**report["baselines"]["python"], "argv": ["-c", "pass"]},
        "numpy": {**report["baselines"]["numpy"],
                  "argv": ["-c", "import numpy"]}}
    assert list(report["commands"]) == ["import", "translate", "plan",
                                        "simulate", "monitor", "bench"]
    cli_lines = Path(cli.__file__).read_bytes().count(b"\n")
    for entry in report["baselines"].values():
        assert entry["q1_ms"] == entry["median_ms"] == entry["q3_ms"] > 0
        assert entry["cpu_ms"] > 0 and entry["peak_rss_mb"] > 0
        assert "lines_compiled" not in entry
    for entry in report["commands"].values():
        assert entry["q1_ms"] == entry["median_ms"] == entry["q3_ms"] > 0
        assert entry["cpu_ms"] > 0 and entry["peak_rss_mb"] > 0
        assert entry["lines_compiled"] > cli_lines
    assert report["import_self_us"]["mitlplan.cli"] > 0


STAGE_NAMES = {"game", "automaton", "product", "prob0", "value_iteration",
               "extract_policy"}


def check_stage_report(report, rungs):
    assert set(report) == {"rev", "python", "numpy", "nproc", "runs",
                           "rungs"}
    assert report["rev"] is None or len(report["rev"].split("-")[0]) == 40
    assert report["nproc"] >= 1 and report["runs"] >= 1
    assert list(report["rungs"]) == rungs
    for rung in report["rungs"].values():
        assert set(rung) == {"mission", "formula", "grid", "T", "stages_s",
                             "sizes", "v0", "peak_rss_mb"}
        assert set(rung["stages_s"]) == STAGE_NAMES
        assert all(t > 0 for t in rung["stages_s"].values())
        assert set(rung["sizes"]) == {"states", "edges", "sinks",
                                      "live_rows", "sweeps"}
        assert float(rung["v0"]) >= 0.0 and rung["peak_rss_mb"] > 0


def test_stage_ladder_reports_each_stage(tmp_path):
    # one 8x8 rung in a fresh process; the committed file holds the ladder
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "stages.json"
    subprocess.run([sys.executable, str(root / "tools" / "stages.py"),
                    "--rung", "two-bus:8", "-k", "1", "--out", str(out)],
                   env=package_env(), check=True, capture_output=True,
                   text=True, timeout=120)
    report = json.loads(out.read_text())
    check_stage_report(report, ["two-bus-8x8-T8"])
    assert (report["python"], report["numpy"], report["runs"]) == (
        sys.version.split()[0], np.__version__, 1)
    rung = report["rungs"]["two-bus-8x8-T8"]
    assert rung["sizes"] == {"states": 2535, "edges": 22888, "sinks": 1914,
                             "live_rows": 2420, "sweeps": 12}
    assert rung["v0"] == "0.12250575853075968"
    check_stage_report(
        json.loads((root / "BENCH_stages.json").read_text()),
        ["two-bus-16x16-T16", "two-bus-32x32-T32", "two-bus-64x64-T64",
         "unbounded-16x16-T16", "unbounded-32x32-T32"])


def test_cli_names_the_benchmark_reads(capsys):
    # e2ebench builds and checks plans through these names of mitlplan.cli
    for name in ("build_model", "build_parser", "read_policy",
                 "write_policy", "write_values", "main"):
        assert callable(getattr(cli, name)), name
    # the explicit-clock oracle is a test module now, not a translate option
    err = usage_error(capsys, "translate", "--formula", "F a",
                      "--oracle", str(DATA / "bus_oracle.dta"))
    assert err.splitlines() == [
        "usage: mitlplan [-h] {translate,plan,simulate,monitor,bench} ...",
        "mitlplan: error: unrecognized arguments: --oracle "
        f"{DATA / 'bus_oracle.dta'}"]


CAP_OVERFLOW_RUNS = {
    "translate": ("translate", "--formula", THREE_BUS),
    "plan": ("plan", "--formula", THREE_BUS, "--grid",
             str(DATA / "three_bus.grid"), "--uniform-T", "4"),
    "monitor": ("monitor", "--formula", BUS_CASE1),
    "bench": ("bench", "--formula", BUS_CASE1, "--grid",
              str(DATA / "case1.grid"), "--uniform-T", "3"),
}


@pytest.mark.parametrize("command", CAP_OVERFLOW_RUNS)
def test_cap_overflow_exits_4(tmp_path, capsys, command):
    word = tmp_path / "w.txt"
    word.write_text("-\nb1\n")
    argv = CAP_OVERFLOW_RUNS[command] + ("--cap", "2")
    if command == "monitor":
        argv += ("--word", str(word))
    elif command != "bench":
        argv += ("--out", str(tmp_path))
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert err == "error: automaton: progression closure exceeded 2 locations\n"


def test_cap_bounds_the_locations_a_run_reaches(tmp_path, capsys):
    # the three-bus closure has 766 locations; this plan reaches 107
    plan = CAP_OVERFLOW_RUNS["plan"] + ("--out", str(tmp_path))
    assert run(capsys, *plan, "--cap", "107")[0] == 0
    code, _, err = run(capsys, *plan, "--cap", "106")
    assert code == 4
    assert "progression closure exceeded 106 locations" in err
    code, _, err = run(capsys, *CAP_OVERFLOW_RUNS["translate"], "--cap", "107",
                       "--out", str(tmp_path))
    assert code == 4
    assert "progression closure exceeded 107 locations" in err


def test_plan_computes_only_the_automaton_entries_it_steps():
    # exact counts: a plan that computed the whole closure (766 locations,
    # 49 024 entries) would fail here on any machine; a lost state steps
    # nothing, so it reads fewer entries than a live one would
    args = build_parser().parse_args(CAP_OVERFLOW_RUNS["plan"])
    dta = build_model(args).product.sta.dta
    assert dta.location_count == 107
    assert sum(j >= 0 for row in dta.table for j in row) == 604


def test_plan_nonconvergence_exit(tmp_path, capsys):
    code, _, err = run(capsys, "plan", "--formula", BUS_CASE2,
                       "--grid", str(DATA / "case2.grid"),
                       "--uniform-T", "3", "--max-iter", "1",
                       "--tol", "1e-14", "--out", str(tmp_path))
    assert code == 5
    assert "residual" in err


def test_plan_game_load_error(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text((DATA / "toy.game").read_text().replace(
        "trans h0 go {} -> t0 : 0.7", "trans h0 go {} -> t0 : 0.69"))
    code, _, err = run(capsys, "plan", "--formula", "D{geom:0.5} b & F goal",
                       "--game", str(bad), "--uniform-T", "3")
    assert code == 3
    assert "sums to" in err


@pytest.mark.parametrize("old, new, message", [
    ("init h0", "init s9", "undeclared state 's9' in init or label"),
    ("init h0", "init", "line 9: expected 'init <state>'"),
    ("label t1: goal", "label t1: goal\nlabel zz: goal",
     "undeclared state 'zz' in init or label"),
    # a repeated action would double every product row
    ("actions go wait", "actions go go wait", "line 7: 'go' declared twice"),
    ("label t1: goal", "label t1: goal\nlabel t1:",
     "line 17: 't1' labelled twice"),
    ("trans h0 wait {} -> h0 : 1.0", "trans h0 wait {} -> h0 : nan",
     "line 22: bad probability 'nan'"),
    ("trans h0 go {} -> h0 : 0.3", "trans h0 go {} -> h0 : 0",
     "line 19: bad probability '0'"),
    ("trans h0 wait {} -> h0 : 1.0", "trans h0 wait {} -> h0 : 1.5",
     "line 22: bad probability '1.5'"),
], ids=["undeclared-init", "bare-init", "undeclared-label", "repeated-action",
        "repeated-label", "nan-probability", "zero-probability",
        "probability-above-one"])
def test_plan_malformed_game_exits_3(tmp_path, capsys, old, new, message):
    bad = tmp_path / "bad.game"
    bad.write_text((DATA / "toy.game").read_text().replace(old, new, 1))
    code, _, err = run(capsys, "plan",
                       "--formula", "D{geom:0.5} b & F (b & F[0,1] goal)",
                       "--game", str(bad), "--uniform-T", "4",
                       "--out", str(tmp_path))
    assert code == 3
    assert err == f"error: game: {message}\n"




CASE2_MODEL = ["--formula", BUS_CASE2, "--grid", str(DATA / "case2.grid"),
               "--uniform-T", "3"]


@pytest.mark.parametrize("argv, code", [
    (["translate", "--formula-file", "BAD", "--out", "OUT"], 2),
    (["monitor", "--formula", "F a", "--word", "BAD"], 2),
    (["plan", "--formula", BUS_CASE2, "--grid", "BAD", "--uniform-T", "3"], 3),
    (["plan", "--formula", BUS_CASE2, "--game", "BAD", "--uniform-T", "3"], 3),
    (["simulate", *CASE2_MODEL, "--policy", "BAD", "--out", "OUT"], 2),
], ids=["formula-file", "word", "grid", "game", "policy"])
def test_undecodable_input_file_exits_with_its_code(tmp_path, capsys, argv,
                                                    code):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    argv = [{"BAD": str(bad), "OUT": str(tmp_path)}.get(a, a) for a in argv]
    got, _, err = run(capsys, *argv)
    assert got == code
    assert err.startswith(f"error: cannot read {bad}: ")
    assert "codec can't decode byte" in err


@pytest.mark.parametrize("command, argv", [
    ("translate", ["--formula", BUS_CASE2]),
    ("plan", CASE2_MODEL),
    ("simulate", [*CASE2_MODEL, "--policy", "POLICY", "-n", "10"]),
], ids=["translate", "plan", "simulate"])
@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_unusable_out_exits_2(tmp_path, capsys, case2_policy_lines, command,
                              argv, under):
    policy = tmp_path / "policy.txt"
    policy.write_text("\n".join(case2_policy_lines) + "\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    argv = [str(policy) if a == "POLICY" else a for a in argv]
    code, _, err = run(capsys, command, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: cannot write to {out}: ")


@pytest.mark.parametrize("command, argv, name", [
    ("translate", ["--formula", BUS_CASE2], "dta.txt"),
    ("plan", CASE2_MODEL, "policy.txt"),
    ("simulate", [*CASE2_MODEL, "--policy", "POLICY", "-n", "10"],
     "trajectory_000.log"),
], ids=["translate", "plan", "simulate"])
def test_unwritable_output_file_exits_2(tmp_path, capsys, case2_policy_lines,
                                        command, argv, name):
    policy = tmp_path / "policy.txt"
    policy.write_text("\n".join(case2_policy_lines) + "\n")
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = [str(policy) if a == "POLICY" else a for a in argv]
    code, _, err = run(capsys, command, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: cannot write to {out / name}: ")


def _product_over_cap(game, sta):
    # no bundled input reaches the product's state cap in test time
    raise ProductError("product exceeded 2000000 states")


CASE2_UNCONVERGED = [*CASE2_MODEL, "--max-iter", "2", "--tol", "1e-14"]


@pytest.mark.parametrize("argv, code, message", [
    (["translate", "--formula", "( a", "--out", "OUT"], 2,
     "formula: 1:4: expected ')', found ''"),
    (["translate", "--formula", "!F a", "--out", "OUT"], 2,
     "formula rejected:\n  negation over Until leaves the co-safety fragment"),
    (["plan", *CASE2_UNCONVERGED, "--out", "OUT"], 5,
     "value iteration hit 2 iterations with residual 0.7200000000000002 "
     ">= 1e-14"),
    (["bench", *CASE2_UNCONVERGED], 5, "no convergence at T=3"),
    (["plan", *CASE2_MODEL, "--out", "OUT"], 4,
     "product: product exceeded 2000000 states"),
], ids=["parse", "fragment", "plan-nonconvergence", "bench-nonconvergence",
        "product"])
def test_error_line_and_exit_code(tmp_path, capsys, monkeypatch, argv, code,
                                  message):
    if code == 4:
        monkeypatch.setattr(pipeline, "build_product", _product_over_cap)
    argv = [str(tmp_path) if a == "OUT" else a for a in argv]
    got, _, err = run(capsys, *argv)
    assert (got, err) == (code, f"error: {message}\n")


PRINTING_RUNS = {
    "translate": ["translate", "--formula", BUS_CASE2, "--out", "OUT"],
    "plan": ["plan", *CASE2_MODEL, "--out", "OUT"],
    "simulate": ["simulate", *CASE2_MODEL, "--policy", "POLICY", "-n", "10",
                 "--out", "OUT"],
    "monitor": ["monitor", "--formula", BUS_CASE1, "--word", "WORD"],
    "bench": ["bench", *CASE2_MODEL],
}


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", PRINTING_RUNS)
def test_closed_stdout_exits_141(tmp_path, case2_policy_lines, command,
                                 unbuffered):
    # buffered, the first write to the closed pipe is the final flush;
    # unbuffered, it is the first print
    policy = tmp_path / "policy.txt"
    policy.write_text("\n".join(case2_policy_lines) + "\n")
    word = tmp_path / "word.txt"
    word.write_text("-\nb1\n")
    names = {"OUT": str(tmp_path), "POLICY": str(policy), "WORD": str(word)}
    argv = [names.get(a, a) for a in PRINTING_RUNS[command]]
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "mitlplan.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=300)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


CASE1_MISSION = ["--formula-file", str(DATA / "case1.mitl")]
CASE1_MODEL = [*CASE1_MISSION, "--grid", str(DATA / "case1.grid"),
               "--uniform-T", "4"]

# one run per subcommand on case1, then one per exit code of a failing
# stage (141 is `test_closed_stdout_exits_141`)
EXIT_PATH_RUNS = {
    "translate": (["translate", *CASE1_MISSION, "--out", "OUT"], 0),
    "plan": (["plan", *CASE1_MODEL, "--out", "OUT"], 0),
    "simulate": (["simulate", *CASE1_MODEL, "--policy", "POLICY",
                  "-n", "500", "--seed", "3", "--out", "OUT"], 0),
    "monitor": (["monitor", *CASE1_MISSION, "--word",
                 str(DATA / "case1.word")], 0),
    "bench": (["bench", *CASE1_MODEL[:-2], "--uniform-T", "2,4"], 0),
    "exit-2-formula": (["translate", "--formula", "( a", "--out", "OUT"], 2),
    "exit-3-grid": (["plan", *CASE1_MISSION, "--grid", "MISSING",
                     "--uniform-T", "4", "--out", "OUT"], 3),
    "exit-4-cap": (["plan", *CASE1_MODEL, "--cap", "2", "--out", "OUT"], 4),
    "exit-5-solver": (["plan", *CASE1_MODEL, "--max-iter", "2",
                       "--tol", "1e-14", "--out", "OUT"], 5),
    "exit-6-stale": (["simulate", *CASE1_MODEL[:-1], "3", "--policy",
                      "POLICY", "--out", "OUT"], 6),
}


@pytest.fixture(scope="module")
def case1_policy(tmp_path_factory):
    out = tmp_path_factory.mktemp("case1")
    assert main(["plan", *CASE1_MODEL, "--out", str(out)]) == 0
    return str(out / "policy.txt")


def _timings_masked(command, stdout):
    stdout = re.sub(r"^solve-time-s: .*$", "solve-time-s: *", stdout,
                    flags=re.M)
    if command == "bench":      # the last CSV column is wall_time_s
        stdout = re.sub(r",[0-9.]+$", ",*", stdout, flags=re.M)
    return stdout


@pytest.mark.parametrize("argv, code", EXIT_PATH_RUNS.values(),
                         ids=EXIT_PATH_RUNS)
def test_exit_path_matches_main(tmp_path, capsys, case1_policy, argv, code):
    # `python -m mitlplan.cli` exits through `run`, which freezes the heap
    # after `main` returns: nothing a user sees may change
    def outcome(out, call):
        out.mkdir()
        names = {"OUT": str(out), "POLICY": case1_policy,
                 "MISSING": str(tmp_path / "missing.grid")}
        got, stdout, stderr = call([names.get(a, a) for a in argv])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return (got, _timings_masked(argv[0], stdout.replace(str(out), "OUT")),
                stderr.replace(str(out), "OUT"), files)

    def in_process(args):
        got = main(args)
        captured = capsys.readouterr()
        return got, captured.out, captured.err

    def child(args):
        done = subprocess.run([sys.executable, "-m", "mitlplan.cli", *args],
                              capture_output=True, text=True,
                              env=package_env(), timeout=300)
        return done.returncode, done.stdout, done.stderr

    expected = outcome(tmp_path / "main", in_process)
    assert expected[0] == code
    assert (expected[2] == "") == (code == 0)
    assert outcome(tmp_path / "exit", child) == expected


def _simulate_logs(policy, seed, n_logs, out):
    assert main(["simulate", *CASE1_MODEL, "--policy", policy, "-n", "1",
                 "--seed", str(seed), "--logs", str(n_logs),
                 "--out", str(out)]) == 0
    return [(out / f"trajectory_{i:03d}.log").read_text()
            for i in range(n_logs)]


@pytest.mark.parametrize("seed", [3, 2**64 - 1])
def test_simulate_logs_follow_the_streams_of_the_seed(tmp_path, capsys,
                                                      case1_policy, seed):
    # log i is rollout i of the estimate, `rollout` on stream i of the
    # seed.  The seeds are those where logs on seed + i would alias: log 1
    # of --seed 3 with log 0 of --seed 4, and log 1 of the largest seed
    # with log 0 of --seed 0
    logs = _simulate_logs(case1_policy, seed, 3, tmp_path / "a")
    assert logs[1] != _simulate_logs(case1_policy, (seed + 1) % 2**64, 1,
                                     tmp_path / "b")[0]
    capsys.readouterr()
    built = build_model(build_parser().parse_args(
        ["simulate", *CASE1_MODEL, "--policy", case1_policy]))
    m, policy = built.product, cli.read_policy(case1_policy, built)
    for i, log in enumerate(logs):
        traj = rollout(m, policy, seed=stream_seed(seed, i))
        assert log == traj.render()
        # the estimate's rollout i ends as the log does
        after = estimate_success(m, policy, i + 1, seed).outcomes
        before = (estimate_success(m, policy, i, seed).outcomes if i
                  else dict.fromkeys(OUTCOMES, 0))
        assert [name for name in OUTCOMES
                if after[name] > before[name]] == [traj.outcome]


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path, capsys,
                                                  case1_policy):
    for argv in (EXIT_PATH_RUNS["plan"][0], EXIT_PATH_RUNS["simulate"][0]):
        names = {"OUT": str(tmp_path), "POLICY": case1_policy}
        assert main([names.get(a, a) for a in argv]) == 0
        assert gc.get_freeze_count() == 0


def test_main_in_process_leaves_the_environment_as_it_found_it(
        tmp_path, capsys, monkeypatch, case1_policy):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    for argv, _ in EXIT_PATH_RUNS.values():
        names = {"OUT": str(tmp_path), "POLICY": case1_policy,
                 "MISSING": str(tmp_path / "missing.grid")}
        main([names.get(a, a) for a in argv])
        assert dict(os.environ) == before


@pytest.mark.parametrize("formula, code", [(BUS_CASE1, 0), ("( a", 2)],
                         ids=["exit-0", "exit-2"])
def test_run_freezes_the_heap_and_exits_with_mains_code(tmp_path, capsys,
                                                        monkeypatch,
                                                        formula, code):
    # `run` owns its process's environment: here it gets a copy
    monkeypatch.setattr(os, "environ", {
        k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"})
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run(["translate", "--formula", formula,
                     "--out", str(tmp_path)])
        assert exc.value.code == code
        assert gc.get_freeze_count() > 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    finally:
        gc.unfreeze()


# prints, from an `atexit` hook, the process's thread count, its
# OPENBLAS_NUM_THREADS and whether numpy was loaded, after `run` ran the
# command line given as its arguments
_THREADS_AT_EXIT = """import atexit, os, sys
atexit.register(lambda: print(
    len(os.listdir("/proc/self/task")),
    os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules,
    file=sys.stderr))
from mitlplan.cli import run
run(sys.argv[1:])
"""


def _numpy_blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):    # numpy before 1.26 returns no dicts
        return None
    return blas["name"]


@pytest.mark.skipif(sys.platform != "linux",
                    reason="threads are counted in /proc/self/task")
@pytest.mark.skipif("openblas" not in str(_numpy_blas()),
                    reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("caller", [None, "2"], ids=["unset", "caller-2"])
def test_run_plans_without_a_blas_pool_unless_the_caller_asks(tmp_path,
                                                              caller):
    env = package_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    done = subprocess.run(
        [sys.executable, "-c", _THREADS_AT_EXIT, "plan", *CASE1_MODEL,
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    threads, setting, numpy_loaded = done.stderr.split()
    assert (setting, numpy_loaded) == (caller or "1", "True")
    # OpenBLAS runs at most one thread per core it may use
    cores = len(os.sched_getaffinity(0))
    assert int(threads) == min(int(caller or 1), cores)


def test_console_script_takes_the_exit_path():
    # the target of `[project.scripts] mitlplan` is the function that
    # `python -m mitlplan.cli` calls; read as text, since Python 3.10 has
    # no tomllib
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = pyproject.read_text().split("[project.scripts]\n")[1]
    target = re.match(r'mitlplan = "(.*)"\n', scripts).group(1)
    module = ast.parse(Path(cli.__file__).read_text())
    entry, = [node.body for node in module.body
              if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    call, = entry
    assert target == f"mitlplan.cli:{ast.unparse(call.value.func)}"
    assert target == "mitlplan.cli:run"


def test_plan_outputs_independent_of_hash_seed(tmp_path):
    # outcome probabilities multiply per-event hazards; in the iteration
    # order of a set of event names the last digits of this mission's
    # values changed with the string hash seed
    grid = DATA / "three_bus.grid"
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hashseed{seed}"
        env = package_env(PYTHONHASHSEED=seed)
        subprocess.run([sys.executable, "-m", "mitlplan.cli", "plan",
                        "--formula", THREE_BUS, "--grid", str(grid),
                        "--eps", "0.2", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    for name in ("values.txt", "policy.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_plan_on_explicit_game(tmp_path, capsys):
    code, out, _ = run(capsys, "plan",
                       "--formula", "D{geom:0.5} b & F (b & F[0,1] goal)",
                       "--game", str(DATA / "toy.game"),
                       "--eps", "0.05", "--out", str(tmp_path))
    assert code == 0
    v = float(out.split("satisfaction-probability: ")[1].splitlines()[0])
    assert 0.0 < v < 1.0


def test_plan_eps_and_T_conflict(tmp_path, capsys):
    err = usage_error(capsys, "plan", "--formula", BUS_CASE2,
                      "--grid", str(DATA / "case2.grid"),
                      "--uniform-T", "3", "--eps", "0.1")
    assert "argument --eps: not allowed with argument --uniform-T" in err


def test_plan_grid_event_mismatch(tmp_path, capsys):
    code, _, err = run(capsys, "plan", "--formula", BUS_CASE1,
                       "--grid", str(DATA / "case2.grid"), "--uniform-T", "3")
    assert code == 3
    assert "disagree" in err


def test_monitor_accept(tmp_path, capsys):
    word = tmp_path / "w.txt"
    word.write_text("-\nb1\n-\nb3\n")
    code, out, _ = run(capsys, "monitor", "--formula", BUS_CASE1,
                       "--word", str(word))
    assert code == 0
    assert "verdict: accept" in out
    lik = float(out.split("likelihood: ")[1].splitlines()[0])
    assert abs(lik - 0.56 * 0.7 * 0.7) < 1e-12


def test_monitor_reject_after_blown_deadlines(tmp_path, capsys):
    word = tmp_path / "w.txt"
    word.write_text("-\nb1 b2\n" + "-\n" * 7 + "b3 b4\n")
    code, out, _ = run(capsys, "monitor", "--formula", BUS_CASE1,
                       "--word", str(word))
    assert code == 0
    assert "verdict: reject" in out


def test_monitor_empty_word_inconclusive(tmp_path, capsys):
    word = tmp_path / "w.txt"
    word.write_text("")
    code, out, _ = run(capsys, "monitor", "--formula", BUS_CASE1,
                       "--word", str(word))
    assert code == 0
    assert "verdict: inconclusive-prefix" in out


@pytest.mark.parametrize("formula, verdict", [
    ("false", "reject"), ("a & !a", "reject"), ("true", "accept"),
    ("!false", "accept")])
def test_monitor_judges_the_empty_word_at_the_initial_location(
        tmp_path, capsys, formula, verdict):
    word = tmp_path / "w.txt"
    word.write_text("")
    code, out, _ = run(capsys, "monitor", "--formula", formula,
                       "--word", str(word))
    assert code == 0
    assert f"verdict: {verdict}\n" in out


def test_monitor_unknown_proposition(tmp_path, capsys):
    word = tmp_path / "w.txt"
    word.write_text("zz\n")
    code, _, err = run(capsys, "monitor", "--formula", BUS_CASE1,
                       "--word", str(word))
    assert code == 2
    assert "unknown propositions" in err


@pytest.mark.parametrize("formula, word, message", [
    (BUS_CASE1, "-\nb1\nb1 b3\n", "2: events ['b1'] already occurred"),
    (BUS_CASE1, "b1\nb1\n", "0: events ['b1'] cannot occur at time 0"),
    ("D{table:1:1.0} b1 & F (b1 & F[0,2] b3)", "-\n-\n-\n",
     "2: no probability mass remains"),
], ids=["event-twice", "event-at-step-0-twice", "no-mass-left"])
def test_monitor_word_the_model_cannot_produce_exits_2(tmp_path, capsys,
                                                       formula, word,
                                                       message):
    path = tmp_path / "w.txt"
    path.write_text(word)
    code, _, err = run(capsys, "monitor", "--formula", formula,
                       "--word", str(path))
    assert code == 2
    assert err.startswith(f"error: word step {message}")


def test_monitor_likelihood_of_a_word_past_a_hazard_of_one(tmp_path, capsys):
    # the table's hazard at step 3 rounded to 1.0000000000000002, so b1
    # not arriving by step 3 had probability -2e-16
    path = tmp_path / "w.txt"
    path.write_text("-\n-\n-\n-\n")
    code, out, _ = run(capsys, "monitor", "--formula",
                       "D{table:1:0.05,2:0.05,3:0.9} b1 & F (b1 & F[0,2] s1)",
                       "--word", str(path))
    assert code == 0
    assert out == "verdict: inconclusive-prefix\nlikelihood: 0.0\n"


@pytest.mark.parametrize("steps, code, expected", [
    (4, 0, "verdict: inconclusive-prefix\nlikelihood: 0.0\n"),
    (5, 2, "error: word step 4: no probability mass remains at step 4\n"),
], ids=["four-steps", "five-steps"])
def test_monitor_past_a_hazard_that_rounded_below_one(tmp_path, capsys, steps,
                                                      code, expected):
    # the table's masses sum to 1, but pmf/survival at step 3 rounded to
    # 0.9999999999999998, so b1 not arriving by step 3 kept 1.3e-16
    path = tmp_path / "w.txt"
    path.write_text("-\n" * steps)
    got, out, err = run(capsys, "monitor", "--formula",
                        "D{table:1:0.1,2:0.3,3:0.6} b1 & F (b1 & F[0,2] s1)",
                        "--word", str(path))
    assert got == code
    assert (out if code == 0 else err) == expected


@pytest.mark.parametrize("stations, target", [("b3 b4", "b3"), ("b4", "b4")])
def test_plan_sees_every_station_on_a_shared_cell(tmp_path, capsys, stations,
                                                  target):
    grid = tmp_path / "task.grid"
    grid.write_text("width = 3\nheight = 3\nslip = 1.0,0.0,0.0\n" + "".join(
        f"stations.{s} = (2,2)\n" for s in stations.split()))
    code, out, _ = run(capsys, "plan", "--formula",
                       f"D{{geom:0.5}} b1 & F (b1 & F[0,6] {target})",
                       "--grid", str(grid), "--uniform-T", "6",
                       "--out", str(tmp_path))
    assert code == 0
    assert "satisfaction-probability: 0.984375\n" in out


# 3x3 without slip: four moves from the start to the station s
CORNER_GRID = ("width = 3\nheight = 3\nstart = (0,0)\nstations.s = (2,2)\n"
               "slip = 1.0,0.0,0.0\n")


@pytest.fixture
def corner_grid(tmp_path):
    path = tmp_path / "corner.grid"
    path.write_text(CORNER_GRID)
    return path


def corner_mission(event):
    return f"D{{geom:0.5}} {event} & F ({event} & F[0,2] s)"


def test_plan_keeps_an_event_named_like_a_window_clock(tmp_path, capsys,
                                                       corner_grid):
    # the event win1 and the window clock of F[0,2] are two clocks: the
    # mission plans as it does with the event named b
    lines = {}
    for event in ("win1", "b"):
        code, out, _ = run(capsys, "plan", "--formula", corner_mission(event),
                           "--grid", str(corner_grid), "--uniform-T", "1",
                           "--out", str(tmp_path))
        assert code == 0
        lines[event] = dict(line.split(": ", 1) for line in out.splitlines())
    got = lines["win1"]
    assert got["satisfaction-probability"] == "0.0"
    assert got["eps-achieved"] == "0.5"
    assert got["truncation"] == "win1=1 win1=2"
    assert got["states"] == "33"
    for key in ("satisfaction-probability", "eps-achieved", "states", "edges"):
        assert got[key] == lines["b"][key]


def test_default_max_steps_counts_an_event_named_like_a_window_clock(
        corner_grid):
    args = build_parser().parse_args(
        ["plan", "--formula", corner_mission("win1"),
         "--grid", str(corner_grid), "--uniform-T", "1"])
    # the event clock's cap, then the window's bound, then the margin
    assert default_max_steps(build_model(args).product) == 1 + 2 + 8


def test_policy_and_value_files_hold_python_floats(tmp_path, capsys):
    argv = ["--formula", BUS_CASE2, "--grid", str(DATA / "case2.grid"),
            "--uniform-T", "3"]
    assert run(capsys, "plan", *argv, "--out", str(tmp_path))[0] == 0
    args = build_parser().parse_args(["plan", *argv])
    m = build_model(args).product
    want = value_iteration(m, tol=args.tol, max_iter=args.max_iter).values
    for name in ("policy.txt", "values.txt"):
        lines = (tmp_path / name).read_text().splitlines()
        assert not [line for line in lines if "np." in line]
        got = np.array([float(line.split()[-1]) for line in lines
                        if not line.startswith("#")])
        assert got.tobytes() == want.tobytes()
    # `read_policy` also reads values as numpy 2 prints them
    new = tmp_path / "policy.txt"
    old = tmp_path / "old_policy.txt"
    old.write_text("".join(
        line + "\n" if line.startswith("#")
        else "{} {} np.float64({})\n".format(*line.split())
        for line in new.read_text().splitlines()))
    outs = []
    for policy in (new, old):
        code, out, _ = run(capsys, "simulate", *argv, "--policy", str(policy),
                           "-n", "500", "--logs", "1", "--out", str(tmp_path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_bench_case1_csv(capsys):
    code, out, _ = run(capsys, "bench", "--formula", BUS_CASE1,
                       "--grid", str(DATA / "case1.grid"),
                       "--uniform-T", "3,4,5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "T,eps_achieved,states,value,iterations,wall_time_s"
    eps = [float(line.split(",")[1]) for line in lines[1:]]
    assert eps == [(1 - 0.3) ** T for T in (3, 4, 5)]
    values = [float(line.split(",")[3]) for line in lines[1:]]
    assert values == sorted(values)


def test_bench_eps_list(capsys):
    code, out, _ = run(capsys, "bench", "--formula", BUS_CASE2,
                       "--grid", str(DATA / "case2.grid"),
                       "--eps-list", "0.25,0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        eps_req_achieved = float(line.split(",")[1])
        assert eps_req_achieved < 0.25


def test_bench_needs_sweep(capsys):
    err = usage_error(capsys, "bench", "--formula", BUS_CASE2,
                      "--grid", str(DATA / "case2.grid"))
    assert "one of the arguments --uniform-T --eps-list is required" in err


def test_bench_uniform_T_and_eps_list_conflict(capsys):
    # a sweep over one of the two would drop the other silently
    err = usage_error(capsys, "bench", "--formula", BUS_CASE2,
                      "--grid", str(DATA / "case2.grid"),
                      "--uniform-T", "3", "--eps-list", "0.1")
    assert "argument --eps-list: not allowed with argument --uniform-T" in err


@pytest.mark.parametrize("option, value, message", [
    ("--uniform-T", "3,x", "expected comma-separated integers, got '3,x'"),
    ("--eps-list", "0.1,abc",
     "expected comma-separated numbers, got '0.1,abc'"),
], ids=["uniform-T", "eps-list"])
def test_bench_malformed_sweep_list_exits_2(capsys, option, value, message):
    err = usage_error(capsys, "bench", "--formula", BUS_CASE2,
                      "--grid", str(DATA / "case2.grid"), option, value)
    assert f"argument {option}: {message}" in err


def test_bench_eps_list_without_events(capsys, corner_grid):
    # no event clock to truncate: the T column shows 0
    code, out, _ = run(capsys, "bench", "--formula", "F[0,3] s",
                       "--grid", str(corner_grid), "--eps-list", "0.1")
    assert code == 0
    assert out.splitlines()[1].split(",")[:4] == ["0", "0.0", "18", "0.0"]


# ---------------------------------------------------------------------------
# one row per input branch: the command line, the text of its input file
# IN, the exit code, and the line it prints (stderr on failure).  An oracle
# row names a formula instead, and IN is an explicit automaton checked
# against its progression automaton: the line is what `oracle_line` gives
# ---------------------------------------------------------------------------

TOY_GAME = (DATA / "toy.game").read_text()
# accepts F a: stays in A until a, then accepting B
F_A_ORACLE = ("locations A B\nclocks x y z\ninit A\naccepting B\n"
              "edge A [true] {!a} -> A\nedge A [true] {a} -> B\n")
ORACLE_F_A = ("oracle", "F a")
PLAN_GRID = ["plan", "--formula", "F s", "--grid", "IN", "--uniform-T", "1",
             "--out", "OUT"]
PLAN_TOY = ["plan", "--formula", "D{geom:0.5} b & F goal", "--game", "IN",
            "--uniform-T", "3", "--out", "OUT"]


def translate_formula(text):
    return ["translate", "--formula", text, "--out", "OUT"]


def toy_game(old, new):
    assert old in TOY_GAME
    return TOY_GAME.replace(old, new, 1)


def f_a_oracle(old, new):
    assert old in F_A_ORACLE
    return F_A_ORACLE.replace(old, new, 1)


INPUT_BRANCHES = {
    # command line
    "game-events-disagree": (
        ["plan", "--formula", "F goal", "--game", "IN", "--uniform-T", "3"],
        TOY_GAME, 3,
        "error: game: game events ['b'] disagree with the formula's []"),
    "cap-not-a-number": (
        ["translate", "--formula", "F a", "--cap", "abc"], None, 2,
        "mitlplan translate: error: argument --cap: expected an integer, "
        "got 'abc'"),
    "tol-not-a-number": (
        ["plan", "--formula", "F s", "--grid", "IN", "--tol", "abc"], None, 2,
        "mitlplan plan: error: argument --tol: expected a number, got 'abc'"),
    "negative-uniform-T": (
        ["plan", "--formula", "F s", "--grid", "IN", "--uniform-T", "-1"],
        CORNER_GRID, 2,
        "error: truncation: truncation point must be non-negative"),
    # formulas
    "unexpected-character": (
        translate_formula("a $ b"), None, 2,
        "error: formula: 1:3: unexpected character '$'"),
    "bad-geometric-parameter": (
        translate_formula("D{geom:x} b"), None, 2,
        "error: formula: 1:1: bad geometric parameter 'x'"),
    "table-entry-arity": (
        translate_formula("D{table:1} b"), None, 2,
        "error: formula: 1:1: bad table entry '1'"),
    "table-entry-not-a-number": (
        translate_formula("D{table:1:x} b"), None, 2,
        "error: formula: 1:1: bad table entry '1:x'"),
    "table-mass-above-one": (
        translate_formula("D{table:1:1.5} b"), None, 2,
        "error: formula: 1:1: table mass 1.5 outside [0,1]"),
    "trailing-input": (
        translate_formula("a )"), None, 2,
        "error: formula: 1:3: unexpected trailing input ')'"),
    "upper-bound-not-an-integer": (
        translate_formula("F[0,x] a"), None, 2,
        "error: formula: 1:5: expected integer or inf, found 'x'"),
    "lower-bound-not-an-integer": (
        translate_formula("F[x,2] a"), None, 2,
        "error: formula: 1:3: expected integer, found 'x'"),
    "distribution-on-a-keyword": (
        translate_formula("D{geom:0.5} true"), None, 2,
        "error: formula: 1:13: distribution eventuality must apply to an "
        "event name"),
    "until-without-left-operand": (
        translate_formula("U a"), None, 2,
        "error: formula: 1:1: until operator needs a left operand"),
    "negated-true-plans-to-zero": (
        ["plan", "--formula", "!true", "--grid", "IN", "--uniform-T", "1",
         "--out", "OUT"], CORNER_GRID, 0, "satisfaction-probability: 0.0"),
    # grids
    "grid-line-without-equals": (
        PLAN_GRID, "width 3\n", 3,
        "error: grid: line 1: expected key = value"),
    "grid-bad-event-law": (
        PLAN_GRID, CORNER_GRID + "events.b = geom:2\n", 3,
        "error: grid: line 6: geometric parameter must be in (0,1], got 2.0"),
    "grid-missing-width": (
        PLAN_GRID, CORNER_GRID.replace("width = 3\n", ""), 3,
        "error: grid: missing grid key 'width'"),
    "grid-two-part-slip": (
        PLAN_GRID, CORNER_GRID.replace("1.0,0.0,0.0", "1.0,0.0"), 3,
        "error: grid: slip needs three components: forward,left,right"),
    "initial-goal-plans-to-one": (
        PLAN_GRID, CORNER_GRID.replace("(2,2)", "(0,0)"), 0,
        "satisfaction-probability: 1.0"),
    # explicit games
    "game-initial-label-holds-an-event": (
        PLAN_TOY, toy_game("label h0:", "label h0: b"), 3,
        "error: game: initial label may not contain external events"),
    "game-malformed-trans": (
        PLAN_TOY, toy_game("wait {} -> h0 : 1.0", "wait {} h0 : 1.0"), 3,
        "error: game: line 22: bad trans line"),
    "game-unknown-directive": (
        PLAN_TOY, TOY_GAME + "teleport h0 t1\n", 3,
        "error: game: line 45: unknown directive 'teleport'"),
    "game-missing-init": (
        PLAN_TOY, toy_game("init h0\n", ""), 3,
        "error: game: missing init state"),
    "game-undeclared-target": (
        PLAN_TOY, toy_game("wait {} -> h0 : 1.0", "wait {} -> h9 : 1.0"), 3,
        "error: game: undeclared state 'h9' in transitions"),
    "game-undeclared-action": (
        PLAN_TOY, toy_game("h0 wait {} -> h0", "h0 hop {} -> h0"), 3,
        "error: game: undeclared action 'hop'"),
    "game-undeclared-event": (
        PLAN_TOY, toy_game("h0 wait {b} -> hb", "h0 wait {c} -> hb"), 3,
        "error: game: undeclared event 'c'"),
    # oracles that fail to load
    "oracle-bad-invariant-line": (
        ORACLE_F_A, F_A_ORACLE + "invariant A x <= 1\n", None,
        "line 7: bad invariant line"),
    "oracle-bad-edge-line": (
        ORACLE_F_A, F_A_ORACLE + "edge A {a} B\n", None,
        "line 7: bad edge line"),
    "oracle-unknown-directive": (
        ORACLE_F_A, F_A_ORACLE + "final B\n", None,
        "line 7: unknown directive 'final'"),
    "oracle-missing-init": (
        ORACLE_F_A, f_a_oracle("init A\n", ""), None,
        "missing init location"),
    "oracle-undeclared-init": (
        ORACLE_F_A, f_a_oracle("init A", "init C"), None,
        "initial location 'C' not declared"),
    "oracle-undeclared-accepting": (
        ORACLE_F_A, f_a_oracle("accepting B", "accepting B C"), None,
        "accepting location 'C' not declared"),
    "oracle-undeclared-edge-source": (
        ORACLE_F_A, F_A_ORACLE + "edge C [true] {a} -> B\n", None,
        "edge from undeclared location 'C'"),
    "oracle-unparsable-guard": (
        ORACLE_F_A, F_A_ORACLE + "edge B [x <> 1] {a} -> B\n", None,
        "line 7: cannot parse clock constraint 'x <> 1'"),
    "oracle-temporal-predicate": (
        ORACLE_F_A, F_A_ORACLE + "edge B [true] {F a} -> B\n", None,
        "symbol predicate must be boolean: F a"),
    # an atom left out of the atoms line used to read false on every step
    "oracle-undeclared-atom": (
        ("oracle", "F q"),
        "locations A B\nclocks x\natoms p\ninit A\naccepting B\n"
        "edge A [true] {q} -> B\nedge A [true] {!q} -> A\n", None,
        "unknown atom 'q' on edge A->B"),
    # oracles that load and agree with F a, or F[0,1] a
    "oracle-false-guard": (
        ORACLE_F_A, F_A_ORACLE + "edge A [false] {a} -> A\n", None,
        "oracle-agreement: 200/200"),
    "oracle-parenthesized-guard": (
        ORACLE_F_A,
        F_A_ORACLE + "edge A [(x <= 1 | y > 2) & z < 3] {a & !a} -> B\n"
        "edge B [true & false] {a} -> B\n", None,
        "oracle-agreement: 200/200"),
    "oracle-false-predicate": (
        ORACLE_F_A, F_A_ORACLE + "edge A [true] {false} -> B\n", None,
        "oracle-agreement: 200/200"),
    # a late a enters B past its invariant: the run is rejected there
    "oracle-target-invariant-fails": (
        ("oracle", "F[0,1] a"),
        F_A_ORACLE + "invariant B [x <= 1]\n", None,
        "oracle-agreement: 200/200"),
    # words
    "word-with-comments-and-blank-lines": (
        ["monitor", "--formula", "F[0,1] a", "--word", "IN"],
        "# one symbol a line\n\n-   # nothing yet\n\na\n", 0,
        "verdict: accept"),
}


@pytest.mark.parametrize("argv, text, code, line", INPUT_BRANCHES.values(),
                         ids=INPUT_BRANCHES)
def test_input_branch_exit_code_and_line(tmp_path, capsys, argv, text, code,
                                         line):
    if argv[0] == "oracle":
        assert oracle_line(argv[1], text) == line
        return
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    argv = [{"IN": str(path), "OUT": str(tmp_path)}.get(a, a) for a in argv]
    try:
        got = main(argv)
    except SystemExit as exc:      # argparse rejected the command line
        got = exc.code
    out = capsys.readouterr()
    assert got == code
    assert line in (out.out if code == 0 else out.err).splitlines()


def test_translate_dot_leaves_out_edges_into_the_reject_location(tmp_path,
                                                                  capsys):
    code, _, _ = run(capsys, "translate", "--formula", "F[0,2] goal",
                     "--out", str(tmp_path))
    assert code == 0
    dump = (tmp_path / "dta.txt").read_text()
    reject = dump.split("\nreject ")[1].split()[0]
    assert reject != "q-1"
    assert f"-> {reject}\n" in dump
    dot = (tmp_path / "dta.dot").read_text()
    assert f"{reject} [shape=circle" in dot
    assert f"-> {reject} " not in dot
