"""Line-coverage gate for ``src/mitlplan`` with no dependency beyond pytest.

This runs the Tier-1 suite in this process under ``sys.settrace``.  The
global trace function hands a local tracer only to frames whose code lies
in ``src/mitlplan/*.py``, so the suite's own code runs untraced.  A module's
executable lines are the line numbers of its compiled code objects
(``co_lines``), nested code included.  Code that runs only in a
subprocess of the suite is not seen.

It prints ``file:line: text`` for every executable line that no test ran
and that ``tools/linecov_allow.txt`` does not list, then every allow entry
that matches no unexecuted line, and fails on either, or when the suite
fails.  An allow entry is ``file: stripped line  # category``; it covers
every unexecuted line of that file with that text.  The categories are
``ALLOWED_CATEGORIES``.  Line tables differ between Python versions; the
allowlist is kept for Python 3.11.  Run from anywhere::

    python tools/linecov.py
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mitlplan"
ALLOW = ROOT / "tools" / "linecov_allow.txt"

ALLOWED_CATEGORIES = {
    "abstract",          # a base-class stub every subclass overrides
    "type-fallthrough",  # the error after the last node type callers pass
    "argument-check",    # a value-type or API argument check no input reaches
    "subprocess",        # runs only in a subprocess of the suite
    "slow-guard",        # a guard that costs seconds of the suite to reach
}


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(), str(path), "exec")
    lines = set()
    stack = [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def run_suite(files: list[Path]) -> tuple[int, dict[str, set[int]]]:
    """Pytest's exit code for Tier-1, and the lines run per file name."""
    hits = {str(path): set() for path in files}

    def trace(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    os.chdir(ROOT)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
    return int(code), hits


def read_allow() -> set[tuple[str, str]]:
    """The (file name, stripped line) of each allow entry."""
    allow = set()
    for n, raw in enumerate(ALLOW.read_text().splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        name, _, rest = raw.partition(": ")
        text, sep, category = rest.rpartition("  # ")
        if not sep or category not in ALLOWED_CATEGORIES:
            sys.exit(f"{ALLOW.name}:{n}: expected 'file: line  # category' "
                     f"with a category in {sorted(ALLOWED_CATEGORIES)}")
        allow.add((name, text.strip()))
    return allow


def main() -> int:
    if any(name.startswith("mitlplan") for name in sys.modules):
        sys.exit("linecov: mitlplan was imported before tracing began")
    allow = read_allow()
    files = sorted(PACKAGE.glob("*.py"))
    code, hits = run_suite(files)
    if code != 0:
        print(f"linecov: the suite failed (pytest exit {code})")
        return 1
    matched = set()
    missed = allowed = total = 0
    for path in files:
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for n in sorted(lines - hits[str(path)]):
            text = source[n - 1].strip()
            if (path.name, text) in allow:
                matched.add((path.name, text))
                allowed += 1
            else:
                print(f"{path.relative_to(ROOT)}:{n}: {text}")
                missed += 1
    stale = [key for key in allow if key not in matched]
    for name, text in stale:
        print(f"{ALLOW.relative_to(ROOT)}: stale entry: {name}: {text}")
    print(f"linecov: {total} executable lines, {missed + allowed} unexecuted, "
          f"{allowed} of them allowed; {len(stale)} stale allow entries")
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
