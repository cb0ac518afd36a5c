"""Command-line front end.

Subcommands: translate (formula to automaton), plan (synthesize a policy),
simulate (roll out a stored policy), monitor (verdict and likelihood of an
observed word), bench (truncation sweep as CSV).  This module holds the
parser, the exit codes, formula loading, `translate`, `monitor` and `run`,
on the layers that import no numpy (`formula`, `timed_automata`,
`stochastic_ta`).  `plan`, `simulate` and `bench`, the model they build
and the policy and value files live in `mitlplan.pipeline`, which
`COMMANDS` names and which is imported only when one of those three runs
or one of `PIPELINE_NAMES` is read from this module.  So `translate` and
`monitor` load no numpy, and no subcommand loads OpenSSL: `model_hash`
takes the interpreter's builtin sha256.  Data goes to stdout,
diagnostics to stderr.  Exit codes: 2 parse/validation, 3 environment
load, 4 automaton or product build, 5 solver non-convergence, 6 stale
policy, 141 stdout closed by its reader (128 + SIGPIPE).  Exit 2 also
covers an input file that cannot be read or decoded (3 for a --grid or
--game file), an --out that cannot be made a directory, and an output
file that cannot be written.  `failing` maps a stage's error types to its
code.

`main` runs one command line and returns its exit code; tests and
benchmarks call it in process, so it leaves the garbage collector and
the environment as it found them.  `run` is the entry of ``python -m
mitlplan.cli`` and of the ``mitlplan`` console script, and owns its
process:

- Before `main`, it sets ``OPENBLAS_NUM_THREADS`` to 1 unless the caller
  set it.  numpy's OpenBLAS otherwise starts a pool of worker threads
  when numpy is imported, and they spin for tens of ms of CPU although
  the package calls no BLAS routine (no ``dot``, ``@``, ``matmul``,
  ``einsum`` or ``linalg``).  `plan`, `simulate` and `bench` import
  numpy after this, inside `main`.
- Once `main` has returned, it freezes the heap: `gc.freeze` moves every
  tracked object into a generation no collection visits, so the
  interpreter's shutdown collection skips the module objects of numpy
  and the package, memory the operating system reclaims at exit anyway.
  Stdout and stderr are still flushed and `atexit` handlers still run.
  A freeze inside `main` would keep every later object of a long-lived
  caller out of collection.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import formula as fm
from .formula import DEFAULT_MAX_ITER, DEFAULT_TOL
from .stochastic_ta import StaError, StaModel, TimedWord
from .timed_automata import (
    LOCATION_CAP,
    AutomatonError,
    ProgressionDta,
    build_dta,
    dta_to_dot,
    pretty,
)

EXIT_VALIDATION = 2
EXIT_GAME = 3
EXIT_PRODUCT = 4
EXIT_SOLVER = 5
EXIT_STALE = 6
EXIT_CLOSED_STDOUT = 141

SEED_MAX = 2**64 - 1


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _fail(code, message):
    raise CliError(code, message)


@contextmanager
def failing(code, prefix, *errors):
    """An error of the listed types exits with `code` and its text after
    `prefix`."""
    try:
        yield
    except errors as exc:
        _fail(code, f"{prefix}{exc}")


# ---------------------------------------------------------------------------
# Shared by every subcommand
# ---------------------------------------------------------------------------

def _read(path, code=EXIT_VALIDATION):
    with failing(code, f"cannot read {path}: ", OSError, UnicodeDecodeError):
        return Path(path).read_text()


def _out_dir(path):
    """The output directory `path`, made if it is missing."""
    out = Path(path)
    with failing(EXIT_VALIDATION, f"cannot write to {path}: ", OSError):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path, text):
    with failing(EXIT_VALIDATION, f"cannot write to {path}: ", OSError):
        Path(path).write_text(text)


def load_formula(args):
    text = args.formula if args.formula_file is None else _read(args.formula_file)
    with failing(EXIT_VALIDATION, "formula: ", fm.FormulaError):
        f = fm.parse(text)
        u = fm.EventSet.from_formula(f)
        report = fm.validate_fragment(f, u)
    if not report.ok:
        _fail(EXIT_VALIDATION,
              "formula rejected:\n  " + "\n  ".join(report.violations))
    return f, u


def stepping():
    """A progression automaton's errors exit with code 4: a formula over
    more than `MAX_ATOMS` propositions when it is built, and, as its
    steps compute the table entries they read, more than `--cap`
    locations or `MAX_TABLE_ENTRIES` entries."""
    return failing(EXIT_PRODUCT, "automaton: ", AutomatonError)


def progression(f, args):
    """The progression automaton of formula f with its distribution
    eventualities substituted, capped at `--cap` locations."""
    with stepping():
        return ProgressionDta(fm.substitute_dist(f), cap=args.cap)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_translate(args):
    f, u = load_formula(args)
    phid = fm.substitute_dist(f)
    with stepping():
        dta = build_dta(phid, cap=args.cap)
    out = _out_dir(args.out)
    # `none` where no residual is `true` (accepting) or `false` (reject)
    accept, reject = (f"q{j}" if j >= 0 else "none"
                      for j in (dta.accept_index, dta.reject_index))
    dump = ["# progression automaton",
            f"# formula: {pretty(f)}",
            f"# substituted: {pretty(phid)}",
            f"locations {dta.location_count}",
            f"atoms {' '.join(dta.atoms)}",
            f"init q{dta.init_index}",
            f"accepting {accept}",
            f"reject {reject}"]
    for src, masks, dst in dta.edges():
        dump.append(f"edge q{src} masks={masks} -> q{dst}")
    _write(out / "dta.txt", "\n".join(dump) + "\n")
    _write(out / "dta.dot", dta_to_dot(dta))
    sta_lines = ["# stochastic automaton skeleton",
                 f"events {' '.join(u.names)}"]
    for name, d in u:
        sta_lines.append(f"dist {name} {d}")
    _write(out / "sta.txt", "\n".join(sta_lines) + "\n")
    print(f"substituted: {pretty(phid)}")
    print(f"locations: {dta.location_count}")
    print(f"atoms: {' '.join(dta.atoms)}")
    print(f"wrote: {out / 'dta.txt'} {out / 'dta.dot'} {out / 'sta.txt'}")
    return 0


def cmd_monitor(args):
    f, u = load_formula(args)
    dta = progression(f, args)
    sta = StaModel(dta, u)
    word = TimedWord.from_text(_read(args.word))
    for i, sym in enumerate(word):
        unknown = sym - sta.reads
        if unknown:
            _fail(EXIT_VALIDATION,
                  f"word step {i} references unknown propositions "
                  f"{sorted(unknown)}")
    with failing(EXIT_VALIDATION, "", StaError), stepping():
        verdict, likelihood, _states = sta.run_word(word)
    print(f"verdict: {verdict}")
    print(f"likelihood: {likelihood!r}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _at_least(minimum, maximum=None):
    """An argparse type for integers no smaller than `minimum` and, if
    `maximum` is given, no larger than it."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                f"must be at most {maximum}, got {value}")
        return value
    return parse


def _comma_list(kind, what):
    """An argparse type for comma-separated values of `kind`."""
    def parse(text):
        try:
            return [kind(x) for x in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
    return parse


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    if value == float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _add_formula_args(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--formula", help="formula text")
    source.add_argument("--formula-file", help="file containing the formula")
    p.add_argument("--cap", type=_at_least(1), default=LOCATION_CAP,
                   help="most automaton locations a run may reach")


def _add_env_args(p):
    env = p.add_mutually_exclusive_group(required=True)
    env.add_argument("--grid", help="grid world config file")
    env.add_argument("--game", help="explicit game file")


def _add_trunc_args(p):
    trunc = p.add_mutually_exclusive_group()
    trunc.add_argument("--eps", type=float, default=0.01,
                       help="requested error bound (default 0.01)")
    trunc.add_argument("--uniform-T", type=int, dest="uniform_T",
                       help="common truncation point for all event clocks")


def _add_solver_args(p):
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=_at_least(1), default=DEFAULT_MAX_ITER)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mitlplan",
        description="Planner for metric-interval temporal logic tasks with "
                    "probabilistically timed external events")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="compile a formula to an automaton")
    _add_formula_args(p)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("plan", help="synthesize the optimal policy")
    _add_formula_args(p)
    _add_env_args(p)
    _add_trunc_args(p)
    _add_solver_args(p)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--dump-product", action="store_true")

    p = sub.add_parser("simulate", help="roll out a stored policy")
    _add_formula_args(p)
    _add_env_args(p)
    _add_trunc_args(p)
    p.add_argument("--policy", required=True, help="policy file from plan")
    p.add_argument("-n", type=_at_least(1), default=10000,
                   help="rollout count")
    # the rollout streams take the seed modulo 2**64: a seed outside that
    # range would silently alias one inside it
    p.add_argument("--seed", type=_at_least(0, SEED_MAX), default=0,
                   help=f"rollout seed in 0..{SEED_MAX} (default 0)")
    p.add_argument("--max-steps", type=_at_least(0), default=None)
    p.add_argument("--logs", type=_at_least(0), default=None,
                   help="trajectory logs to write (default min(n, 5))")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("monitor", help="verdict and likelihood of a word")
    _add_formula_args(p)
    p.add_argument("--word", required=True, help="timed word file")

    p = sub.add_parser("bench", help="truncation sweep, CSV on stdout")
    _add_formula_args(p)
    _add_env_args(p)
    _add_solver_args(p)
    sweep = p.add_mutually_exclusive_group(required=True)
    sweep.add_argument("--uniform-T", dest="uniform_T",
                       type=_comma_list(int, "integers"),
                       help="comma-separated uniform truncation points")
    sweep.add_argument("--eps-list", dest="eps_list",
                       type=_comma_list(float, "numbers"),
                       help="comma-separated error bounds")
    return ap


# ---------------------------------------------------------------------------
# Subcommand table
# ---------------------------------------------------------------------------

# The function of each subcommand.  A string names a function of
# `mitlplan.pipeline`, the one module of the command line on numpy, which
# is imported when that subcommand runs.
COMMANDS = {
    "translate": cmd_translate,
    "plan": "cmd_plan",
    "simulate": "cmd_simulate",
    "monitor": cmd_monitor,
    "bench": "cmd_bench",
}
# the pipeline's names that read through this module as its own:
# `e2ebench` builds and checks plans through the model and file functions
PIPELINE_NAMES = frozenset({
    "Built", "build_model", "read_policy", "write_policy", "write_values"})


def _pipeline():
    """`mitlplan.pipeline`, imported on first call.  It imports this module
    by name; under ``python -m mitlplan.cli`` this module runs as
    ``__main__``, so it is entered under its own name first, and the
    pipeline shares its `CliError` instead of loading a second copy."""
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    from . import pipeline
    return pipeline


def __getattr__(name):
    if name in PIPELINE_NAMES:
        return getattr(_pipeline(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    if isinstance(command, str):
        command = getattr(_pipeline(), command)
    try:
        try:
            code = command(args)
        except CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the interpreter's last flush goes to
        # the null device, as the Python `signal` docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


def run(argv=None):
    """Exit the process with `main`'s code, its heap frozen first.  Before
    `main`, numpy's OpenBLAS gets one thread unless the caller chose a
    count: no module calls a BLAS routine, and a pool would spin idle."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main(argv)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
