"""Shared plumbing: where the sources are, tracing, statistics, environment.

The benchmark runs from a plain checkout (not necessarily a git work tree,
and with nothing installed), so it always imports `mitlplan` from the
checkout's own `src/` and hands that path to every child process.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. the sources are missing)."""


def use_checkout_sources() -> None:
    """Put the checkout's `src/` first on the import path and make sure
    `mitlplan` really comes from there."""
    if not (SRC / "mitlplan" / "__init__.py").is_file():
        raise BenchError(f"no mitlplan sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mitlplan

    if Path(mitlplan.__file__).resolve().parent != SRC / "mitlplan":
        raise BenchError(f"mitlplan imported from {mitlplan.__file__}, "
                         f"not from {SRC}")


def child_env() -> dict:
    """Environment of every child: the checkout's sources, and a fixed
    string-hash seed, without which the last digits of policy and value
    files of multi-event missions change from one run to the next (sums
    over frozensets run in hash order), so digests would not compare."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd, timeout, check=False, **kwargs):
    """`subprocess.run` with a timeout that does not quantize the timing.

    Given a timeout, `Popen.wait` polls with sleeps that double up to
    50 ms, so a timed child seemed to end only at the next poll: set-up
    probes read 0.114, 0.165 or 0.215 s and nothing between.  Here the
    wait blocks, and a timer kills a child that overstays."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        expired = []

        def kill():
            expired.append(True)
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
            timer.join()
    if expired:
        raise subprocess.TimeoutExpired(cmd, timeout, out, err)
    if check and proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out, err)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans and counters kept in memory and written out at the end.

    A span is (name, start, end, index of the enclosing span).  Per-name
    totals are kept for every span; raw spans only for the first
    `keep` so that long runs stay small.
    """

    enabled = True

    def __init__(self, keep: int = 5000):
        self.keep = keep
        self.spans: list[list] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        index = -1
        if len(self.spans) < self.keep:
            index = len(self.spans)
            self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self.totals[name] += record[2] - record[1]

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def merge(self, totals: dict, counts: dict) -> None:
        for k, v in totals.items():
            self.totals[k] += v
        for k, v in counts.items():
            self.counts[k] += v

    def dump(self) -> dict:
        return {"totals": dict(self.totals), "counts": dict(self.counts),
                "spans": self.spans}


class NullTracer:
    enabled = False

    def span(self, name):
        return nullcontext()

    def add(self, name, value=1.0):
        pass


# ---------------------------------------------------------------------------
# Operation results
# ---------------------------------------------------------------------------

class OpLog:
    """Results of a run's operations, one record each: kind, latency_s,
    work, done and failure.  Plain records go into arrays, so that 10^5
    monitor words do not show up in the run's peak memory; a record with
    more fields (a plan job's value and digests) is also kept whole."""

    BASE = {"kind", "latency_s", "work", "failure", "done"}

    def __init__(self):
        self.codes: dict[str, int] = {}
        self.kind = array("b")
        self.latency = array("d")
        self.work = array("d")
        self.done = array("b")
        self.failures: dict[int, str] = {}
        self.extra: dict[int, dict] = {}

    def append(self, rec: dict) -> None:
        i = len(self.kind)
        self.kind.append(self.codes.setdefault(rec["kind"], len(self.codes)))
        self.latency.append(rec["latency_s"])
        self.work.append(rec["work"])
        self.done.append(bool(rec["done"]))
        if rec["failure"]:
            self.failures[i] = rec["failure"]
        if rec.keys() - self.BASE:
            self.extra[i] = rec

    def __len__(self):
        return len(self.kind)

    def indices(self, kind, ops=None):
        code = self.codes.get(kind)
        ops = range(len(self.kind)) if ops is None else ops
        return [i for i in ops if self.kind[i] == code]

    def latencies(self, kind, ops=None):
        """Latencies of the completed operations of a kind (among `ops`)."""
        return [self.latency[i] for i in self.indices(kind, ops) if self.done[i]]

    def rates(self, kind, ops=None):
        return [self.work[i] / self.latency[i] for i in self.indices(kind, ops)
                if self.done[i] and self.work[i] and self.latency[i] > 0]

    def totals(self, kind, ops=None):
        """(work, seconds) summed over the completed operations of a kind."""
        idx = [i for i in self.indices(kind, ops) if self.done[i]]
        return (sum(self.work[i] for i in idx),
                sum(self.latency[i] for i in idx))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def gmean(values) -> float:
    xs = [v for v in values if v > 0]
    if not xs:
        raise ValueError("no positive samples")
    return math.exp(math.fsum(math.log(v) for v in xs) / len(xs))


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or f"unknown ({out.stderr.strip()})"


def environment() -> dict:
    """The record taken at start.  It imports nothing of the program's,
    so that the traced `cli.import` span covers the whole import."""
    return {
        "git_rev": _git_rev(),
        "src_sha256_16": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "loadavg_1min_start": os.getloadavg()[0],
    }


def close_environment(env: dict) -> None:
    """Complete the record once the timed phase is over."""
    import numpy

    env["numpy"] = numpy.__version__
    env["loadavg_1min_end"] = os.getloadavg()[0]
