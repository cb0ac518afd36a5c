"""Cold-start cost of the command line, one fresh process per run.

Each round runs, once each, two baselines, ``python -c pass`` and
``python -c "import numpy"``, then ``python -c "import mitlplan.cli"`` and
``python -m mitlplan.cli translate``, ``plan --uniform-T 4``, ``simulate
-n 1000``, ``monitor`` and ``bench --uniform-T 2,4`` on the ``case1``
mission of the test data; every other round runs them in reverse order,
so that drift in the machine's load reaches each command alike.
``simulate`` reads a policy that one ``plan`` process writes before the
rounds.  The processes inherit this one's environment and get no
interpreter flag of their own.  The script prints one JSON object:

- ``baselines``: per baseline, its argv, the median and quartiles of
  its wall time in ms over the rounds, and the medians over the rounds
  of ``cpu_ms``, the process's user plus system CPU time, and
  ``peak_rss_mb``, its peak resident set, both read from the rusage
  that ``os.wait4`` returns for that one child.  CPU time shows work
  that wall time hides while a core is idle, such as a thread pool
  spinning beside the main thread;
- ``commands``: the same per command, and ``lines_compiled``, the source
  lines of the ``mitlplan`` modules it loads (each is compiled from
  source when no bytecode cache is written, as under
  ``PYTHONDONTWRITEBYTECODE=1``);
- ``import_self_us``: each module's self import time in µs in one more
  process, ``python -X importtime -c "import mitlplan.cli"``.

Run it from the repository root with the package importable::

    PYTHONPATH=src python tools/startup.py -n 21
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

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"

# prints the source files of the `mitlplan` modules loaded after it runs
# the command line given as its arguments, if any
_LOADED = """import json, sys
from mitlplan.cli import main
if sys.argv[1:] and main(sys.argv[1:]) != 0:
    sys.exit("command failed")
print(json.dumps([m.__file__ for name, m in sorted(sys.modules.items())
                  if name.split(".")[0] == "mitlplan"]))
"""


BASELINES = {"python": ["-c", "pass"], "numpy": ["-c", "import numpy"]}


def commands(out: str, policy: str) -> dict[str, list[str]]:
    """The argv after ``python`` of each command, writing into `out`;
    ``simulate`` reads the policy file `policy`."""
    mission = ["--formula-file", str(DATA / "case1.mitl")]
    model = [*mission, "--grid", str(DATA / "case1.grid")]
    return {
        "import": ["-c", "import mitlplan.cli"],
        "translate": ["-m", "mitlplan.cli", "translate", *mission,
                      "--out", out],
        "plan": ["-m", "mitlplan.cli", "plan", *model, "--uniform-T", "4",
                 "--out", out],
        "simulate": ["-m", "mitlplan.cli", "simulate", *model,
                     "--uniform-T", "4", "--policy", policy, "-n", "1000",
                     "--out", out],
        "monitor": ["-m", "mitlplan.cli", "monitor", *mission, "--word",
                    str(DATA / "case1.word")],
        "bench": ["-m", "mitlplan.cli", "bench", *model,
                  "--uniform-T", "2,4"],
    }


def _run(argv: list[str]) -> tuple[str, float, float]:
    """The stdout of ``python *argv``, its user plus system CPU time in
    ms and its peak RSS in MB."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=err)
        # reaped here, not by `proc.wait`, for this one child's rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                             f"{err.read().decode()}")
        return (out.read().decode(),
                (usage.ru_utime + usage.ru_stime) * 1e3,
                usage.ru_maxrss / 1024)


def _lines_compiled(argv: list[str]) -> int:
    cli_args = argv[2:] if argv[0] == "-m" else []
    stdout, _, _ = _run(["-c", _LOADED, *cli_args])
    files = json.loads(stdout.splitlines()[-1])
    return sum(Path(f).read_bytes().count(b"\n") for f in files)


def _import_self_us() -> dict[str, int]:
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import mitlplan.cli"],
        capture_output=True, text=True, check=True)
    times = {}
    for line in done.stderr.splitlines():
        # "import time: <self us> | <cumulative us> | <indented name>"
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[0].strip().isdigit():
            times[parts[2].strip()] = int(parts[0])
    return times


def _summary(ms: list[float], cpu_ms: list[float],
             rss_mb: list[float]) -> dict[str, float]:
    if len(ms) == 1:
        q1 = median = q3 = ms[0]
    else:
        q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median_ms": round(median, 2), "q1_ms": round(q1, 2),
            "q3_ms": round(q3, 2),
            "cpu_ms": round(statistics.median(cpu_ms), 2),
            "peak_rss_mb": round(statistics.median(rss_mb), 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-n", type=int, default=21,
                    help="processes per command (default 21)")
    n = ap.parse_args(argv).n
    if n < 1:
        ap.error("-n must be at least 1")
    with tempfile.TemporaryDirectory() as out:
        planned = str(Path(out) / "planned")
        cmds = commands(out, str(Path(planned) / "policy.txt"))
        _run([*cmds["plan"][:-1], planned])    # plan's argv ends in its --out
        runs = {**BASELINES, **cmds}
        wall: dict[str, list[float]] = {name: [] for name in runs}
        cpu: dict[str, list[float]] = {name: [] for name in runs}
        rss: dict[str, list[float]] = {name: [] for name in runs}
        for i in range(n):
            for name in (list(runs) if i % 2 == 0 else list(runs)[::-1]):
                t = time.perf_counter()
                _, cpu_ms, peak_mb = _run(runs[name])
                wall[name].append((time.perf_counter() - t) * 1e3)
                cpu[name].append(cpu_ms)
                rss[name].append(peak_mb)
        report = {
            "runs": n,
            "python": sys.version.split()[0],
            "baselines": {
                name: {"argv": argv,
                       **_summary(wall[name], cpu[name], rss[name])}
                for name, argv in BASELINES.items()},
            "commands": {
                name: {"argv": argv,
                       **_summary(wall[name], cpu[name], rss[name]),
                       "lines_compiled": _lines_compiled(argv)}
                for name, argv in cmds.items()},
            "import_self_us": _import_self_us(),
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
