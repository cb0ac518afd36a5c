"""Golden digests of progression automata and of planner outputs.

This prints, as JSON, for a fixed corpus of formulas, the sha256 of each
automaton's location list (one ``pretty`` rendering per line, in location
order) and of its transition table (``json.dumps`` of ``ProgressionDta.table``).
The corpus is a two-bus mission (the oracle mission of the test suite)
and a three-bus mission, with their distribution eventualities
substituted, four formulas whose negations stand over connectives
(``NEGATION_FORMULAS``), and every tenth of the 1 000 random formulas
that ``test_criterion_9_progression_soundness`` draws.

Under the key ``plans`` it records the sha256 of the ``policy.txt``,
``values.txt`` and ``product.txt`` that ``mitlplan plan --uniform-T 4
--dump-product`` writes, and of its stdout without the ``solve-time-s:``
and ``wrote:`` lines, for the two bus grids ``case1`` and ``case2`` of
the test suite, for the explicit game ``toy.game``, for the three-bus
mission on the 5x5 grid ``three_bus.grid`` and for the two-bus mission on
``no_slip.grid`` (no slip, a station on the start cell); the same four
for ``case1`` under ``--eps 0.05``; the exit code and stderr of ``plan``
on ``case1``'s grid for the formulas of ``REJECTED_FORMULAS``, which
validation refuses; of two
``mitlplan bench`` CSVs without their ``wall_time_s`` column, of the
``dta.txt`` and ``dta.dot`` that ``mitlplan translate`` writes for the
formulas of ``TRANSLATE_FORMULAS`` (the two- and three-bus missions,
``F a`` and ``false``), and of ``mitlplan monitor``'s stdout on the fixed
words of ``MONITOR_WORDS`` (the bus missions, two table laws whose
hazard reaches 1, and 16 eventualities, whose automaton table passes its
entry bound), or its exit code and stderr where it refuses a word or the
mission.
For ``case1``, ``toy.game`` and ``three_bus.grid`` at ``--uniform-T 4``,
and for the mission of e2ebench's ``simulate`` workload on
``two_bus_8x8.grid`` at ``--uniform-T 8``, it also records ``mitlplan
simulate``'s stdout, with the `` -> path`` suffixes of its trajectory
lines cut, and every trajectory log those lines name, at the fixed
``SIMULATE_RUNS``; and the exit code and stderr of ``simulate`` on
``case1`` with a policy file whose ``# model-hash:`` line is deleted.

A change keeps automata and planner outputs identical when this script
prints the same file on the change as on its parent::

    PYTHONPATH=src python tools/dta_digests.py > tests/data/dta_digests.json

``tests/test_timed_automata.py::test_golden_dta_digests`` and
``::test_golden_plan_digests`` check the committed file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"

BUS_MISSIONS = {
    "two-bus": ("D{geom:0.8} b1 & F (b1 & F[0,3] b3) | "
                "D{geom:0.3} b2 & F (b2 & F[0,3] b4)"),
    "three-bus": ("D{geom:0.6} b1 & F (b1 & F[0,2] s1) | "
                  "D{geom:0.62} b2 & F (b2 & F[0,4] s2) | "
                  "D{geom:0.6} b3 & F (b3 & F[0,3] s3)"),
}

# formulas whose negations stand over a connective, a negation or a
# constant, which `canonical` pushes down to the atoms
NEGATION_FORMULAS = {
    "negated-or": "!(p | !q) U[0,3] q",
    "negated-and": "F[1,4] !(p & !(q | false))",
    "negated-negation": "!!p U[0,2] !(!q & true)",
    "negated-mixed": "F (!(p | q) & F[0,2] !!r) | !(!(r & !p) | false)",
}

# formulas that validation refuses, their negations reaching an until or
# a distribution eventuality through connectives, negations and constants
REJECTED_FORMULAS = {
    "negated-and-over-F": "!(p & F D{geom:0.5} b)",
    "negated-or-over-D": "!(q | D{geom:0.5} b) & F b",
    "negations-over-F": "!(p | !!(F[0,2] !D{geom:0.5} b)) | F q",
    "negated-until-and-repeated-D":
        "!(true & (D{geom:0.5} b U a)) | D{geom:0.5} b",
}

# formulas `mitlplan translate` runs: the bus missions, whose automata
# have no rejecting location, and `false`, whose automaton has no
# accepting one; `dta.txt` marks a missing location `none`
TRANSLATE_FORMULAS = {**BUS_MISSIONS, "eventually": "F a", "false": "false"}

# missions `mitlplan monitor` runs: the bus missions, two table laws
# whose hazard at step 3 is 1 but whose pmf/survival quotient rounds above
# 1 (it printed a negative likelihood) and below 1 (a likelihood of 1e-16),
# and 16 eventualities, whose automaton has a location per subset of its
# 16 atoms, so that the end verdict's search passes the table's entry bound
MONITOR_MISSIONS = {
    **BUS_MISSIONS,
    "table-hazard-one": "D{table:1:0.05,2:0.05,3:0.9} b1 & F (b1 & F[0,2] s1)",
    "table-hazard-below-one":
        "D{table:1:0.1,2:0.3,3:0.6} b1 & F (b1 & F[0,2] s1)",
    "sixteen-eventualities": " & ".join(f"F a{i}" for i in range(16)),
}

# words for `mitlplan monitor`, one string per step, "-" for the empty set;
# the last two-bus word shows b1 at step 0, which monitor refuses
MONITOR_WORDS = {
    "two-bus": [(), ("-",), ("-", "b1", "b3"), ("-", "b1", "-", "-", "-", "-"),
                ("-", "-", "b2", "-", "b4"), ("b3", "b1 b4", "-", "b2", "b3"),
                ("-", "b1 b2", "b3 b4"), ("-", "b1 b2", "-", "-", "-", "-"),
                ("b1", "-", "b3")],
    "three-bus": [("-", "b1", "s1"), ("-", "b2", "-", "-", "-", "s2"),
                  ("-", "b1 b2 b3", "-", "-", "-", "-"),
                  ("s1 s2 s3", "-", "b3", "s3")],
    "table-hazard-one": [("-", "-", "-", "-")],
    "table-hazard-below-one": [("-", "-", "-", "-")],
    "sixteen-eventualities": [("-",)],
}

# the mission of e2ebench's simulate workload, on ``two_bus_8x8.grid``
SIMULATE_MISSION = ("D{geom:0.4} b1 & F (b1 & F[0,3] s1) | "
                    "D{geom:0.7} b2 & F (b2 & F[0,3] s2)")

# rollouts of the `mitlplan simulate` digests: the model's truncation
# point, and the arguments
SIMULATE_ARGS = ("-n", "1000", "--seed", "7", "--logs", "5")
SIMULATE_RUNS = {
    "case1": (4, SIMULATE_ARGS),
    "toy": (4, SIMULATE_ARGS),
    # the bundled model with the longest rows (24 successors), so that the
    # batch samples from a wide threshold table
    "three-bus": (4, ("-n", "20000", "--seed", "7", "--logs", "1")),
    # the simulate workload's model, where most rollouts reach a state
    # that can no longer hold and stop there
    "bench-two-bus": (8, ("-n", "20000", "--seed", "1", "--logs", "2")),
}

# the draw of test_criterion_9_progression_soundness, words included, so
# that formula i here is formula i there
CRITERION_9_SEED = 20260808
CRITERION_9_FORMULAS = 1000
CRITERION_9_STRIDE = 10


def corpus():
    """(name, distribution-free formula) pairs, in a fixed order."""
    from mitlplan.formula import parse, substitute_dist

    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    from _oracles import random_fragment_formula, random_word

    out = [(name, substitute_dist(parse(text)))
           for name, text in {**BUS_MISSIONS, **NEGATION_FORMULAS}.items()]
    rng = random.Random(CRITERION_9_SEED)
    atoms = ["p", "q", "r"]
    for i in range(CRITERION_9_FORMULAS):
        f = random_fragment_formula(rng, atoms, max_temporal=3, max_bound=5)
        for _ in range(3):
            random_word(rng, atoms, 12)
        if i % CRITERION_9_STRIDE == 0:
            out.append((f"criterion9-{i:03d}", f))
    return out


def dta_digest(dta) -> dict:
    from mitlplan.formula import pretty

    text = "\n".join(pretty(f) for f in dta.locations)
    return {
        "locations": dta.location_count,
        "locations_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "table_sha256": hashlib.sha256(
            json.dumps(dta.table).encode()).hexdigest(),
    }


def digests() -> dict:
    from mitlplan.timed_automata import build_dta

    return {name: dta_digest(build_dta(f)) for name, f in corpus()}


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _run(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of an in-process `mitlplan` run."""
    from mitlplan.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cli(*argv) -> str:
    """stdout of an in-process `mitlplan` run that must succeed."""
    code, stdout, _ = _run(*argv)
    if code != 0:
        raise RuntimeError(f"mitlplan {' '.join(argv)} exited with {code}")
    return stdout


def plan_digests() -> dict:
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    from conftest import BUS_CASE1, BUS_CASE2, DATA

    cases = {"case1": BUS_CASE1, "case2": BUS_CASE2}
    plans = {
        **{case: (formula, "--grid", DATA / f"{case}.grid")
           for case, formula in cases.items()},
        "toy": ("D{geom:0.5} b & F (b & F[0,1] goal)",
                "--game", DATA / "toy.game"),
        "three-bus": (BUS_MISSIONS["three-bus"],
                      "--grid", DATA / "three_bus.grid"),
        "no-slip": (BUS_MISSIONS["two-bus"], "--grid", DATA / "no_slip.grid"),
    }
    benches = {"bench-case1-eps": ("case1", "--eps-list", "0.1,0.05"),
               "bench-case2-T": ("case2", "--uniform-T", "3,4,5")}
    runs = {f"plan-{case}-T4": (*plan, "--uniform-T", "4")
            for case, plan in plans.items()}
    runs["plan-case1-eps0.05"] = (*plans["case1"], "--eps", "0.05")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run, (formula, env_flag, env_path, *setting) in runs.items():
            stdout = _cli("plan", "--formula", formula, env_flag,
                          str(env_path), *setting, "--dump-product",
                          "--out", tmp)
            out[run] = {
                f"{name}_sha256": _sha256(Path(tmp, f"{name}.txt").read_text())
                for name in ("policy", "values", "product")}
            kept = [line for line in stdout.splitlines(keepends=True)
                    if not line.startswith(("solve-time-s:", "wrote:"))]
            out[run]["stdout_sha256"] = _sha256("".join(kept))
    models = {**plans, "bench-two-bus": (
        SIMULATE_MISSION, "--grid", DATA / "two_bus_8x8.grid")}
    with tempfile.TemporaryDirectory() as tmp:
        for case, (T, simulate_args) in SIMULATE_RUNS.items():
            formula, env_flag, env_path = models[case]
            model = ("--formula", formula, env_flag, str(env_path),
                     "--uniform-T", str(T))
            _cli("plan", *model, "--out", tmp)
            stdout = _cli("simulate", *model, "--policy",
                          str(Path(tmp, "policy.txt")), *simulate_args,
                          "--out", tmp)
            lines = [line.split(" -> ", 1) for line in stdout.splitlines()]
            out[f"simulate-{case}-T{T}"] = {
                "stdout_sha256": _sha256(
                    "".join(line[0] + "\n" for line in lines)),
                **{f"{Path(log).stem}_sha256": _sha256(Path(log).read_text())
                   for _, log in (line for line in lines if len(line) == 2)}}
        # case1's policy without its hash line, which `simulate` refuses
        # as malformed; stderr names the file, so the directory is cut
        formula, env_flag, env_path = plans["case1"]
        model = ("--formula", formula, env_flag, str(env_path),
                 "--uniform-T", "4")
        _cli("plan", *model, "--out", tmp)
        policy = Path(tmp, "policy.txt")
        policy.write_text("".join(
            line for line in policy.read_text().splitlines(keepends=True)
            if not line.startswith("# model-hash:")))
        code, _, stderr = _run("simulate", *model, "--policy", str(policy),
                               "--out", tmp)
        out["simulate-case1-T4-hashless-policy"] = {
            "exit_code": code,
            "stderr_sha256": _sha256(stderr.replace(tmp, "TMP"))}
    for name, formula in REJECTED_FORMULAS.items():
        code, _, stderr = _run("plan", "--formula", formula, "--grid",
                               str(DATA / "case1.grid"), "--uniform-T", "4")
        out[f"plan-rejected-{name}"] = {"exit_code": code,
                                        "stderr_sha256": _sha256(stderr)}
    for name, (case, *setting) in benches.items():
        csv = _cli("bench", "--formula", cases[case],
                   "--grid", str(DATA / f"{case}.grid"), *setting)
        rows = [line.rsplit(",", 1)[0] for line in csv.splitlines()]
        out[name] = {"csv_sha256": _sha256("\n".join(rows) + "\n")}
    with tempfile.TemporaryDirectory() as tmp:
        for mission, formula in TRANSLATE_FORMULAS.items():
            _cli("translate", "--formula", formula, "--out", tmp)
            out[f"translate-{mission}"] = {
                f"{name.replace('.', '_')}_sha256":
                    _sha256(Path(tmp, name).read_text())
                for name in ("dta.txt", "dta.dot")}
        for mission, formula in MONITOR_MISSIONS.items():
            for i, word in enumerate(MONITOR_WORDS[mission]):
                path = Path(tmp, "word.txt")
                path.write_text("".join(step + "\n" for step in word))
                # a word the model cannot produce pins its refusal
                code, stdout, stderr = _run("monitor", "--formula", formula,
                                            "--word", str(path))
                out[f"monitor-{mission}-{i}"] = (
                    {"stdout_sha256": _sha256(stdout)} if code == 0 else
                    {"exit_code": code, "stderr_sha256": _sha256(stderr)})
    return out


def main():
    json.dump({**digests(), "plans": plan_digests()}, sys.stdout, indent=1,
              sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
