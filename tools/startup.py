"""Cold-start cost of the command line, one fresh process per run.

Each round runs, once each, ``python -m mitlplan.cli translate``, ``plan
--uniform-T 4`` and ``monitor`` on the ``case1`` mission of the test data,
and ``python -c "import mitlplan.cli"``; every other round runs them in
reverse order, so that drift in the machine's load reaches each command
alike.  The processes inherit this one's environment and get no
interpreter flag of their own.  The script prints one JSON object:

- ``commands``: per command, its argv and the median and quartiles of its
  wall time in ms over the rounds, and ``lines_compiled``, the source
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


def commands(out: str) -> dict[str, list[str]]:
    """The argv after ``python`` of each command, writing into `out`."""
    mission = ["--formula-file", str(DATA / "case1.mitl")]
    return {
        "import": ["-c", "import mitlplan.cli"],
        "translate": ["-m", "mitlplan.cli", "translate", *mission,
                      "--out", out],
        "plan": ["-m", "mitlplan.cli", "plan", *mission, "--grid",
                 str(DATA / "case1.grid"), "--uniform-T", "4", "--out", out],
        "monitor": ["-m", "mitlplan.cli", "monitor", *mission, "--word",
                    str(DATA / "case1.word")],
    }


def _run(argv: list[str]) -> str:
    done = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return done.stdout


def _lines_compiled(argv: list[str]) -> int:
    cli_args = argv[2:] if argv[0] == "-m" else []
    files = json.loads(_run(["-c", _LOADED, *cli_args]).splitlines()[-1])
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


def _summary(ms: list[float]) -> dict[str, float]:
    if len(ms) == 1:
        q1 = median = q3 = ms[0]
    else:
        q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median_ms": round(median, 2), "q1_ms": round(q1, 2),
            "q3_ms": round(q3, 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-n", type=int, default=21,
                    help="processes per command (default 21)")
    n = ap.parse_args(argv).n
    if n < 1:
        ap.error("-n must be at least 1")
    with tempfile.TemporaryDirectory() as out:
        cmds = commands(out)
        wall: dict[str, list[float]] = {name: [] for name in cmds}
        for i in range(n):
            for name in (list(cmds) if i % 2 == 0 else list(cmds)[::-1]):
                t = time.perf_counter()
                _run(cmds[name])
                wall[name].append((time.perf_counter() - t) * 1e3)
        report = {
            "runs": n,
            "python": sys.version.split()[0],
            "commands": {
                name: {"argv": argv, **_summary(wall[name]),
                       "lines_compiled": _lines_compiled(argv)}
                for name, argv in cmds.items()},
            "import_self_us": _import_self_us(),
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
