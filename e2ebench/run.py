#!/usr/bin/env python3
"""End-to-end benchmark of mitlplan.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload plan-grid --seed 1 --seconds 15 --trace 0

Workloads: plan-grid, translate-random, simulate, monitor (see
workloads.py and README.md).  With --trace 0 the last stdout line is

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

carrying the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a traced run of the same inputs.  The lines before it print
every metric by name with its unit, the notes and the first failures.
Everything else (environment, digests of outputs, spans) goes to
.bench_out/results/<workload>-seed<seed>-trace<0|1>.json.

Exit codes: 0 when the run completed (output checks that failed are
counted in `failed`, not turned into an exit code), 2 when the benchmark
cannot run here, e.g. without the sources under src/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    OUT,
    ROOT,
    BenchError,
    NullTracer,
    OpLog,
    Tracer,
    child_env,
    close_environment,
    environment,
    gmean,
    peak_rss_mb,
    run_child,
    use_checkout_sources,
)

SETUP_PROBES = 5

# (name, unit): the gated end-to-end metrics of every workload
END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def results_path(workload, seed, trace) -> Path:
    return OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"


def measure_setup(name) -> list[float]:
    """Wall time of SETUP_PROBES fresh processes doing the set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        run_child([sys.executable, str(HERE / "setup_probe.py"), name],
                  120, check=True, env=child_env(), cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def run_loop(w, tracer, seconds, ops):
    """Closed loop: issue op i, wait for it, then issue op i+1.  Stops at
    a multiple of the workload's quantum once `seconds` have passed, or
    after `ops` operations (the workload's own count if it has one)."""
    if ops is None:
        ops = w.ops_for(seconds)
    log = OpLog()
    t0 = time.perf_counter()
    i = 0
    while True:
        if i % w.quantum == 0 and i > 0:
            if ops is not None and i >= ops:
                break
            if ops is None and time.perf_counter() - t0 >= seconds:
                break
        log.append(w.op(i, tracer))
        i += 1
    return log, time.perf_counter() - t0


def make_workload(args, trace):
    from workloads import WORKLOADS

    work_dir = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    w = WORKLOADS[args.workload](args.seed, work_dir)
    w.generate(args.seconds)
    return w


def windows(w, n_ops):
    """Consecutive runs of whole quanta, `w.windows` of them (or one per
    quantum when there are fewer)."""
    quanta = n_ops // w.quantum
    k = min(w.windows, quanta) or 1
    bounds = [round(j * quanta / k) * w.quantum for j in range(k)] + [n_ops]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def end_to_end_metrics(w, log, setup_times, rss):
    """Latency and work rate per window, and the median over windows, so
    that a slow spell of the shared machine during one window does not
    move the run's figure.  Within a window the latency is the geometric
    mean over operations; so is the rate, or it is total work over total
    time for a workload whose operations share work (`w.pooled`)."""
    lat, rate = [], []
    for ops in windows(w, len(log)):
        lat.append(gmean(log.latencies(w.latency_kind, ops)))
        if w.pooled:
            work, seconds = log.totals(w.work_kind, ops)
            rate.append(work / seconds)
        else:
            rate.append(gmean(log.rates(w.work_kind, ops)))
    return {
        "setup_s": statistics.median(setup_times),
        "latency_ms": statistics.median(lat) * 1e3,
        "work_per_s": statistics.median(rate),
        "peak_rss_mb": rss,
    }


def emit(lines, result, path, extra):
    for line in lines:
        print(line)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**extra, "result": result}, indent=1,
                               default=str) + "\n")
    print(f"results file: {path.relative_to(ROOT)}")
    print(json.dumps(result))


def plain_run(args, env):
    setup_times = measure_setup(args.workload)
    w = make_workload(args, 0)
    tracer = NullTracer()
    w.prepare(tracer)
    w.prepare_checks()
    log, wall = run_loop(w, tracer, args.seconds, None)
    rss = peak_rss_mb()
    w.finish(log)
    failures = [log.failures[i] for i in sorted(log.failures)]
    failed = len(failures)
    metrics = end_to_end_metrics(w, log, setup_times, rss)
    named = w.named_metrics(log)
    named["failed_share"] = (failed / len(log), "ratio")
    close_environment(env)
    units = dict(END_TO_END)
    lines = [f"workload {w.name}: seed {args.seed}, {len(log)} ops in "
             f"{wall:.2f} s, {failed} failed; work unit: {w.work_unit}"]
    lines += [f"{k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
    lines += [f"{k} = {v:.6g} {u}" for k, (v, u) in named.items()]
    lines += [f"note: {n}" for n in w.notes]
    lines += [f"failure: {f}" for f in failures[:10]]
    result = {"correct": failed == 0, "attempted": len(log),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    extra = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
             "environment": env, "ops": len(log), "phase_wall_s": wall,
             "setup_probe_s": setup_times,
             "named_metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in named.items()},
             "notes": w.notes, "failures": failures, "digests": w.digests}
    emit(lines, result, results_path(w.name, args.seed, 0), extra)
    return 0


def traced_run(args, env):
    """Untraced reference in a child process, then the same operations
    traced in this (fresh) process; the difference is the overhead."""
    from layers import LAYER_METRICS, layer_metrics

    ref = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if ref.returncode != 0:
        raise BenchError(f"untraced reference run failed: {ref.stderr[-500:]}")
    reference = json.loads(results_path(args.workload, args.seed, 0).read_text())
    w = make_workload(args, 1)
    tracer = Tracer()
    t0 = time.perf_counter()
    w.prepare(tracer)
    w.prepare_checks()
    log, wall = run_loop(w, tracer, args.seconds, reference["ops"])
    total = time.perf_counter() - t0
    w.finish(log)
    failures = [log.failures[i] for i in sorted(log.failures)]
    failed = len(failures)
    overhead = (wall - reference["phase_wall_s"]) / reference["phase_wall_s"]
    metrics = layer_metrics(tracer, total, overhead, w.notes)
    close_environment(env)
    lines = [f"workload {w.name}: traced run of seed {args.seed}, "
             f"{len(log)} ops ({wall:.2f} s traced vs "
             f"{reference['phase_wall_s']:.2f} s untraced), {failed} failed"]
    lines += [f"{k} = {metrics[k]:.6g} {LAYER_METRICS[k][0]}" for k in LAYER_METRICS]
    lines += [f"note: {n}" for n in w.notes]
    lines += [f"failure: {f}" for f in failures[:10]]
    result = {"correct": failed == 0, "attempted": len(log),
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": LAYER_METRICS[k][0]}
                          for k in LAYER_METRICS}}
    extra = {"workload": w.name, "seed": args.seed, "environment": env,
             "reference_phase_wall_s": reference["phase_wall_s"],
             "traced_phase_wall_s": wall, "notes": w.notes,
             "failures": failures, "digests": w.digests,
             "trace": tracer.dump()}
    emit(lines, result, results_path(w.name, args.seed, 1), extra)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["plan-grid", "translate-random", "simulate",
                             "monitor"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        use_checkout_sources()
        env = environment()
        return traced_run(args, env) if args.trace else plain_run(args, env)
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
