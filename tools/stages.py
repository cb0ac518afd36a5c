"""Per-stage cost of the planning pipeline on a ladder of grid missions.

Each rung is a mission on an N x N grid at ``--uniform-T`` N, with start
(0,0), station ``b3`` at (0,N-1), ``b4`` at (N-1,0) and slip 0.8/0.1/0.1:

- ``two-bus``, the ``case1`` mission of the test data, at 16, 32 and 64;
- ``unbounded``, the same buses with untimed eventualities,
  ``D{geom:0.8} b1 & F (b1 & F b3) | D{geom:0.3} b2 & F (b2 & F b4)``,
  at 16 and 32.

Every run of a rung is a fresh process, so that peaks stay apart; the
rung reports the median of its k runs.  A run builds the model through
the public API and times, in seconds, the stages ``game``
(`build_gridworld`), ``automaton`` (parse, validation, truncation vector,
`build_dta` and `truncate`), ``product`` (all of `build_product`),
``prob0`` (the part of ``product`` that finds the states that cannot
reach acceptance and makes them absorbing, `product_mdp._absorb_lost`;
null where the module has no such step), ``value_iteration`` and
``extract_policy``.  It records the sizes ``states``, ``edges``,
``sinks`` (outcome code 2), ``live_rows`` (the CSR rows of the states
with outcome code 0, which are all that value iteration and policy
extraction back up) and ``sweeps`` of value iteration, ``v0``,
the `repr` of V(z0), and ``peak_rss_mb``, the process's peak resident
set from the rusage that ``os.wait4`` returns for that one child.  Sizes
and ``v0`` must agree between the runs of a rung.

The JSON also holds the git revision, with ``-dirty`` appended when
tracked files differ from it (null outside a git checkout), the Python
and numpy versions and ``nproc``.  Run it from the repository
root with the package importable; it writes ``BENCH_stages.json`` there::

    PYTHONPATH=src python tools/stages.py
    PYTHONPATH=src python tools/stages.py --rung two-bus:8 -k 1 --out x.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MISSIONS = {
    "two-bus": ("D{geom:0.8} b1 & F (b1 & F[0,3] b3) | "
                "D{geom:0.3} b2 & F (b2 & F[0,3] b4)"),
    "unbounded": ("D{geom:0.8} b1 & F (b1 & F b3) | "
                  "D{geom:0.3} b2 & F (b2 & F b4)"),
}
LADDER = ("two-bus:16", "two-bus:32", "two-bus:64", "unbounded:16",
          "unbounded:32")
STAGES = ("game", "automaton", "product", "prob0", "value_iteration",
          "extract_policy")


def parse_rung(text: str) -> tuple[str, int]:
    mission, _, size = text.partition(":")
    if mission not in MISSIONS or not size.isdecimal() or int(size) < 2:
        raise argparse.ArgumentTypeError(
            f"rung {text!r} is not MISSION:N with MISSION one of "
            f"{', '.join(MISSIONS)} and N at least 2")
    return mission, int(size)


def run_rung(mission: str, n: int) -> dict:
    """One run of a rung in this process: stage times and sizes."""
    import numpy as np

    from mitlplan import formula as fm
    from mitlplan import product_mdp
    from mitlplan.game_model import GridWorldConfig, build_gridworld
    from mitlplan.solver import extract_policy, value_iteration
    from mitlplan.stochastic_ta import StaModel, truncate
    from mitlplan.timed_automata import build_dta

    times = dict.fromkeys(STAGES, 0.0)
    lost_step = getattr(product_mdp, "_absorb_lost", None)
    if lost_step is None:
        times["prob0"] = None
    else:
        def timed(*args):
            t = time.perf_counter()
            lost_step(*args)
            times["prob0"] += time.perf_counter() - t
        product_mdp._absorb_lost = timed

    t = time.perf_counter()
    f = fm.parse(MISSIONS[mission])
    u = fm.EventSet.from_formula(f)
    report = fm.validate_fragment(f, u)
    if not report.ok:
        raise SystemExit(f"formula rejected: {report.violations}")
    trunc = fm.uniform_truncation_vector(f, u, n)
    tsta = truncate(StaModel(build_dta(fm.substitute_dist(f)), u), trunc)
    times["automaton"] = time.perf_counter() - t
    t = time.perf_counter()
    game = build_gridworld(GridWorldConfig(
        n, n, (0, 0), (("b3", (0, n - 1)), ("b4", (n - 1, 0))),
        tuple(u.entries), (0.8, 0.1, 0.1)))
    times["game"] = time.perf_counter() - t
    t = time.perf_counter()
    m = product_mdp.build_product(game, tsta)
    times["product"] = time.perf_counter() - t
    t = time.perf_counter()
    res = value_iteration(m)
    times["value_iteration"] = time.perf_counter() - t
    t = time.perf_counter()
    extract_policy(m, res.values)
    times["extract_policy"] = time.perf_counter() - t
    return {"stages_s": times,
            "sizes": {"states": m.n_states, "edges": m.n_edges,
                      "sinks": int(np.count_nonzero(m.sink)),
                      "live_rows": int(np.count_nonzero(m.outcome_code == 0))
                      * m.n_actions,
                      "sweeps": res.iterations},
            "v0": repr(float(res.values[m.z0]))}


def _child(mission: str, n: int) -> dict:
    """`run_rung` in a fresh interpreter, with its peak RSS in MB."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, __file__, "--child", f"{mission}:{n}"],
            stdout=out, stderr=err)
        # reaped here, not by `proc.wait`, for this one child's rusage
        _, status, usage = os.wait4(proc.pid, 0)
        out.seek(0)
        err.seek(0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit(f"rung {mission}:{n} failed:\n"
                             f"{err.read().decode()}")
        run = json.loads(out.read())
    run["peak_rss_mb"] = usage.ru_maxrss / 1024
    return run


def _median(values):
    return None if None in values else statistics.median(values)


def measure(mission: str, n: int, k: int) -> dict:
    runs = [_child(mission, n) for _ in range(k)]
    first = runs[0]
    for run in runs[1:]:
        if (run["sizes"], run["v0"]) != (first["sizes"], first["v0"]):
            raise SystemExit(f"rung {mission}:{n}: runs disagree: "
                             f"{first['sizes']} {run['sizes']}")
    return {"mission": mission, "formula": MISSIONS[mission], "grid": n,
            "T": n,
            "stages_s": {stage: _median([r["stages_s"][stage] for r in runs])
                         for stage in STAGES},
            "sizes": first["sizes"], "v0": first["v0"],
            "peak_rss_mb": round(_median([r["peak_rss_mb"] for r in runs]),
                                 2)}


def _rev() -> str | None:
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty",
                               "--abbrev=40"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rung", type=parse_rung, action="append",
                    help="MISSION:N, repeatable (default: the ladder)")
    ap.add_argument("-k", type=int, default=3,
                    help="runs per rung (default 3)")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_stages.json")
    ap.add_argument("--child", type=parse_rung, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(run_rung(*args.child)))
        return 0
    if args.k < 1:
        ap.error("-k must be at least 1")
    import numpy as np

    rungs = args.rung or [parse_rung(text) for text in LADDER]
    report = {
        "rev": _rev(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "runs": args.k,
        "rungs": {f"{mission}-{n}x{n}-T{n}": measure(mission, n, args.k)
                  for mission, n in rungs},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
