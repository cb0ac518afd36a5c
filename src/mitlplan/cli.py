"""Command-line front end.

Subcommands: translate (formula to automaton), plan (synthesize a policy),
simulate (roll out a stored policy), monitor (verdict and likelihood of an
observed word), bench (truncation sweep as CSV).  Data goes to stdout,
diagnostics to stderr.  Exit codes: 2 parse/validation, 3 environment
load, 4 automaton or product build, 5 solver non-convergence, 6 stale
policy, 141 stdout closed by its reader (128 + SIGPIPE).  Exit 2 also
covers an input file that cannot be read or decoded (3 for a --grid or
--game file), an --out that cannot be made a directory, and an output
file that cannot be written.  `failing` maps a stage's error types to its
code.

`main` runs one command line and returns its exit code; tests and
benchmarks call it in process, so it leaves the garbage collector as it
found it.  `run`, the entry of ``python -m mitlplan.cli`` and of the
``mitlplan`` console script, freezes the heap once `main` has returned:
`gc.freeze` moves every tracked object into a generation no collection
visits, so the interpreter's shutdown collection skips the module objects
of numpy and the package, memory the operating system reclaims at exit
anyway.  Stdout and stderr are still flushed and `atexit` handlers still
run.  A freeze inside `main` would keep every later object of a
long-lived caller out of collection.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import formula as fm
from .game_model import (
    GameError,
    GridWorldConfig,
    build_gridworld,
    load_game,
    parse_gridworld_config,
)
from .product_mdp import (
    DOT_MAX_STATES,
    STAY_ACTION,
    ProductError,
    build_product,
    model_hash,
)
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Policy,
    extract_policy,
    satisfaction_probability,
    value_iteration,
)
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
# Shared pipeline
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


def load_environment(args, u):
    """Returns (game, canonical environment text)."""
    if args.grid is not None:
        with failing(EXIT_GAME, "grid: ", GameError):
            cfg = parse_gridworld_config(_read(args.grid, EXIT_GAME))
            if cfg.events:
                declared = {n: str(d) for n, d in cfg.events}
                expected = {n: str(d) for n, d in u}
                if declared != expected:
                    raise GameError(
                        f"grid events {declared} disagree with the formula's "
                        f"{expected}")
            else:
                cfg = GridWorldConfig(cfg.width, cfg.height, cfg.start,
                                      cfg.stations, tuple(u.entries), cfg.slip)
            return build_gridworld(cfg), cfg.canonical_text()
    text = _read(args.game, EXIT_GAME)
    with failing(EXIT_GAME, "game: ", GameError):
        game = load_game(text)
        if set(game.events) != set(u.names):
            raise GameError(
                f"game events {sorted(game.events)} disagree with the "
                f"formula's {sorted(u.names)}")
        return game, text


def truncation(f, u, uniform_T, eps):
    """A common truncation point if `uniform_T` is not None, else
    per-event points with tails below `eps`."""
    with failing(EXIT_VALIDATION, "truncation: ", ValueError):
        if uniform_T is not None:
            return fm.uniform_truncation_vector(f, u, uniform_T)
        return fm.truncation_vector(f, u, eps)


def stepping():
    """A progression automaton's errors exit with code 4: a formula over
    more than `MAX_ATOMS` propositions when it is built, and more than
    `--cap` locations as its steps, which compute its table entries as
    they read them, reach new ones."""
    return failing(EXIT_PRODUCT, "automaton: ", AutomatonError)


def progression(f, args):
    """The progression automaton of formula f with its distribution
    eventualities substituted, capped at `--cap` locations."""
    with stepping():
        return ProgressionDta(fm.substitute_dist(f), cap=args.cap)


def validated_product(game, tsta):
    with failing(EXIT_PRODUCT, "product: ", ProductError), stepping():
        product = build_product(game, tsta)
        product.validate()
    return product


class Built(NamedTuple):
    trunc: object
    product: object
    hash: str


def build_model(args):
    f, u = load_formula(args)
    game, env_text = load_environment(args, u)
    trunc = truncation(f, u, args.uniform_T, args.eps)
    dta = progression(f, args)
    product = validated_product(game, StaModel(dta, u, trunc))
    return Built(trunc, product, model_hash(pretty(f), env_text, trunc))


# ---------------------------------------------------------------------------
# Policy and value files
# ---------------------------------------------------------------------------

def write_policy(path, built, policy, values):
    m = built.product
    lines = ["# mitlplan-policy",
             f"# model-hash: {built.hash}",
             f"# actions: {' '.join(m.actions)}"]
    for z, v in enumerate(values.tolist()):
        lines.append(f"{z} {policy.action_name(z)} {v!r}")
    _write(path, "\n".join(lines) + "\n")


def write_values(path, built, values):
    lines = ["# mitlplan-values", f"# model-hash: {built.hash}"]
    for z, v in enumerate(values.tolist()):
        lines.append(f"{z} {v!r}")
    _write(path, "\n".join(lines) + "\n")


def read_policy(path, built):
    """The policy of a file written by `write_policy` for this model.

    Every non-absorbing state needs one line naming a model action;
    absorbing states may be left out or carry the stay action.  A
    malformed line, an index out of range, a repeated state, or a missing
    or unknown action fails with exit code 2.
    """
    m = built.product
    file_hash = None
    rows = []
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        if line.startswith("# model-hash:"):
            file_hash = line.split(":", 1)[1].strip()
        elif line.strip() and not line.startswith("#"):
            rows.append((lineno, line.split()))
    if file_hash != built.hash:
        _fail(EXIT_STALE,
              f"policy was built for model {file_hash}, current model is "
              f"{built.hash}")
    idx = np.full(m.n_states, -1, dtype=np.int64)
    for lineno, parts in rows:
        where = f"{path} line {lineno}"
        if len(parts) not in (2, 3) or not parts[0].isdecimal():
            _fail(EXIT_VALIDATION, f"{where}: expected 'state action value'")
        z = int(parts[0])
        if z >= m.n_states:
            _fail(EXIT_VALIDATION, f"{where}: state {z} is not in "
                                   f"0..{m.n_states - 1}")
        if idx[z] >= 0:
            _fail(EXIT_VALIDATION, f"{where}: state {z} appears twice")
        name = parts[1]
        if name in m.actions:
            idx[z] = m.actions.index(name)
        elif name == STAY_ACTION and m.absorbing[z]:
            idx[z] = 0
        else:
            _fail(EXIT_VALIDATION,
                  f"{where}: unknown action {name!r} at state {z}")
    missing = np.flatnonzero((idx < 0) & ~m.absorbing)
    if missing.size:
        _fail(EXIT_VALIDATION, f"{path}: no action for {missing.size} "
                               f"state(s), first {int(missing[0])}")
    idx[idx < 0] = 0
    return Policy(idx, m.actions, m.absorbing.copy())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_translate(args):
    f, u = load_formula(args)
    phid = fm.substitute_dist(f)
    with stepping():
        dta = build_dta(phid, cap=args.cap)
    out = _out_dir(args.out)
    dump = ["# progression automaton",
            f"# formula: {pretty(f)}",
            f"# substituted: {pretty(phid)}",
            f"locations {dta.location_count}",
            f"atoms {' '.join(dta.atoms)}",
            f"init q{dta.init_index}",
            f"accepting q{dta.accept_index}",
            f"reject q{dta.reject_index}"]
    for src, masks, dst in dta.edges():
        dump.append(f"edge q{src} masks={sorted(masks)} -> q{dst}")
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


def cmd_plan(args):
    built = build_model(args)
    m = built.product
    t0 = time.perf_counter()
    res = value_iteration(m, tol=args.tol, max_iter=args.max_iter)
    elapsed = time.perf_counter() - t0
    if not res.converged:
        _fail(EXIT_SOLVER,
              f"value iteration hit {res.iterations} iterations with "
              f"residual {res.residual!r} >= {args.tol!r}")
    policy = extract_policy(m, res.values)
    out = _out_dir(args.out)
    write_policy(out / "policy.txt", built, policy, res.values)
    write_values(out / "values.txt", built, res.values)
    print(f"satisfaction-probability: {satisfaction_probability(m, res.values)!r}")
    print(f"eps-achieved: {built.trunc.eps_achieved!r}")
    print(f"truncation: {' '.join(f'{k}={v}' for k, v in built.trunc.points)}")
    print(f"states: {m.n_states}")
    print(f"edges: {m.n_edges}")
    print(f"accepting-states: {int(m.accepting.sum())}")
    print(f"sink-states: {int(m.sink.sum())}")
    print(f"iterations: {res.iterations}")
    print(f"residual: {res.residual!r}")
    print(f"solve-time-s: {elapsed:.3f}")
    print(f"model-hash: {built.hash}")
    print(f"wrote: {out / 'policy.txt'} {out / 'values.txt'}")
    if args.dump_product:
        _write(out / "product.txt", m.to_text(header=built.hash))
        print(f"wrote: {out / 'product.txt'}")
        if m.n_states <= DOT_MAX_STATES:
            _write(out / "product.dot", m.to_dot())
            print(f"wrote: {out / 'product.dot'}")
    return 0


def cmd_simulate(args):
    # the one subcommand that runs the simulator is the one that loads it
    from .simulator import estimate_success, rollout, stream_seed

    built = build_model(args)
    m = built.product
    policy = read_policy(args.policy, built)
    out = _out_dir(args.out)
    n_logs = min(args.n, 5) if args.logs is None else args.logs
    for i in range(n_logs):
        # log i replays rollout i of the estimate below
        traj = rollout(m, policy, seed=stream_seed(args.seed, i),
                       max_steps=args.max_steps)
        path = out / f"trajectory_{i:03d}.log"
        _write(path, traj.render())
        print(f"trajectory {i}: {traj.outcome} ({traj.steps} steps) -> {path}")
    est = estimate_success(m, policy, args.n, seed=args.seed,
                           max_steps=args.max_steps)
    print(f"rollouts: {est.samples}")
    print(f"success-rate: {est.rate!r}")
    print(f"ci95: [{est.ci_low!r}, {est.ci_high!r}]")
    print(f"outcomes: accept={est.outcomes['accept']} "
          f"sink={est.outcomes['sink']} "
          f"step-limit={est.outcomes['step-limit']}")
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


def cmd_bench(args):
    f, u = load_formula(args)
    game, _ = load_environment(args, u)
    dta = progression(f, args)
    settings = ([("T", T, (T, None)) for T in args.uniform_T] if args.uniform_T
                else [("eps", e, (None, e)) for e in args.eps_list])
    rows = []
    for kind, value, setting in settings:
        trunc = truncation(f, u, *setting)
        t0 = time.perf_counter()
        m = validated_product(game, StaModel(dta, u, trunc))
        res = value_iteration(m, tol=args.tol, max_iter=args.max_iter)
        if not res.converged:
            _fail(EXIT_SOLVER, f"no convergence at {kind}={value}")
        elapsed = time.perf_counter() - t0
        T_shown = value if kind == "T" else max(
            (T for _, T in trunc.events), default=0)
        rows.append((T_shown, trunc.eps_achieved, m.n_states,
                     satisfaction_probability(m, res.values),
                     res.iterations, elapsed))
    print("T,eps_achieved,states,value,iterations,wall_time_s")
    for T, eps, n, v, it, dt in rows:
        print(f"{T},{eps!r},{n},{v!r},{it},{dt:.3f}")
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
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("plan", help="synthesize the optimal policy")
    _add_formula_args(p)
    _add_env_args(p)
    _add_trunc_args(p)
    _add_solver_args(p)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--dump-product", action="store_true")
    p.set_defaults(func=cmd_plan)

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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("monitor", help="verdict and likelihood of a word")
    _add_formula_args(p)
    p.add_argument("--word", required=True, help="timed word file")
    p.set_defaults(func=cmd_monitor)

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
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
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
    """Exit the process with `main`'s code, its heap frozen first."""
    code = main(argv)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
