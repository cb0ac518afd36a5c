"""Command-line front end.

Subcommands: translate (formula to automaton), plan (synthesize a policy),
simulate (roll out a stored policy), monitor (verdict and likelihood of an
observed word), bench (truncation sweep as CSV).  Data goes to stdout,
diagnostics to stderr.  Exit codes: 2 parse/validation, 3 environment
load, 4 product build, 5 solver non-convergence, 6 stale policy.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

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
from .simulator import estimate_success, rollout
from .solver import (
    Policy,
    extract_policy,
    satisfaction_probability,
    value_iteration,
)
from .stochastic_ta import StaModel, TimedWord, truncate
from .timed_automata import (
    AutomatonError,
    build_dta,
    dta_to_dot,
    load_dta,
    pretty,
    run_dta,
)

EXIT_VALIDATION = 2
EXIT_GAME = 3
EXIT_PRODUCT = 4
EXIT_SOLVER = 5
EXIT_STALE = 6


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _fail(code, message):
    raise CliError(code, message)


# ---------------------------------------------------------------------------
# Shared pipeline
# ---------------------------------------------------------------------------

def _read(path, code=EXIT_VALIDATION):
    try:
        return Path(path).read_text()
    except OSError as exc:
        _fail(code, f"cannot read {path}: {exc}")


def load_formula(args):
    if getattr(args, "formula", None):
        text = args.formula
    elif getattr(args, "formula_file", None):
        text = _read(args.formula_file)
    else:
        _fail(EXIT_VALIDATION, "need --formula or --formula-file")
    try:
        f = fm.parse(text)
        u = fm.EventSet.from_formula(f)
        report = fm.validate_fragment(f, u)
    except fm.FormulaError as exc:
        _fail(EXIT_VALIDATION, f"formula: {exc}")
    if not report.ok:
        _fail(EXIT_VALIDATION,
              "formula rejected:\n  " + "\n  ".join(report.violations))
    return f, u


def load_environment(args, u):
    """Returns (game, canonical environment text)."""
    if getattr(args, "grid", None) and getattr(args, "game", None):
        _fail(EXIT_VALIDATION, "give exactly one of --grid or --game")
    if getattr(args, "grid", None):
        try:
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
            game = build_gridworld(cfg)
            return game, cfg.canonical_text()
        except GameError as exc:
            _fail(EXIT_GAME, f"grid: {exc}")
    if getattr(args, "game", None):
        text = _read(args.game, EXIT_GAME)
        try:
            game = load_game(text)
            if set(game.events) != set(u.names):
                raise GameError(
                    f"game events {sorted(game.events)} disagree with the "
                    f"formula's {sorted(u.names)}")
            return game, text
        except GameError as exc:
            _fail(EXIT_GAME, f"game: {exc}")
    _fail(EXIT_VALIDATION, "need an environment: --grid or --game")


def truncation(f, u, uniform_T=None, eps=None):
    """A common truncation point if `uniform_T` is given, else per-event
    points with tails below `eps`."""
    try:
        if uniform_T is not None:
            return fm.uniform_truncation_vector(f, u, uniform_T)
        return fm.truncation_vector(f, u, eps)
    except (fm.FormulaError, ValueError) as exc:
        _fail(EXIT_VALIDATION, f"truncation: {exc}")


def make_truncation(args, f, u):
    uniform_T, eps = getattr(args, "uniform_T", None), getattr(args, "eps", None)
    if uniform_T is not None and eps is not None:
        _fail(EXIT_VALIDATION, "give one of --eps or --uniform-T, not both")
    return truncation(f, u, uniform_T, 0.01 if eps is None else eps)


def build_automaton(f, cap):
    """The distribution-substituted formula and its progression DTA."""
    phid = fm.substitute_dist(f)
    try:
        return phid, build_dta(phid, cap=cap)
    except AutomatonError as exc:
        _fail(EXIT_PRODUCT, f"automaton: {exc}")


def validated_product(game, tsta):
    try:
        product = build_product(game, tsta)
        product.validate()
    except ProductError as exc:
        _fail(EXIT_PRODUCT, f"product: {exc}")
    return product


@dataclass
class Built:
    trunc: object
    product: object
    hash: str


def build_model(args):
    f, u = load_formula(args)
    game, env_text = load_environment(args, u)
    trunc = make_truncation(args, f, u)
    _, dta = build_automaton(f, args.cap)
    product = validated_product(game, truncate(StaModel(dta, u), trunc))
    return Built(trunc, product, model_hash(pretty(f), env_text, trunc))


# ---------------------------------------------------------------------------
# Policy and value files
# ---------------------------------------------------------------------------

def write_policy(path, built, policy, values):
    m = built.product
    lines = ["# mitlplan-policy",
             f"# model-hash: {built.hash}",
             f"# actions: {' '.join(m.actions)}"]
    for z in range(m.n_states):
        lines.append(f"{z} {policy.action_name(z)} {values[z]!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_values(path, built, values):
    m = built.product
    lines = ["# mitlplan-values", f"# model-hash: {built.hash}"]
    for z in range(m.n_states):
        lines.append(f"{z} {values[z]!r}")
    Path(path).write_text("\n".join(lines) + "\n")


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
    phid, dta = build_automaton(f, args.cap)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    (out / "dta.txt").write_text("\n".join(dump) + "\n")
    (out / "dta.dot").write_text(dta_to_dot(dta))
    sta_lines = ["# stochastic automaton skeleton",
                 f"events {' '.join(u.names)}"]
    for name, d in u:
        sta_lines.append(f"dist {name} {d}")
    (out / "sta.txt").write_text("\n".join(sta_lines) + "\n")
    print(f"substituted: {pretty(phid)}")
    print(f"locations: {dta.location_count}")
    print(f"atoms: {' '.join(dta.atoms)}")
    print(f"wrote: {out / 'dta.txt'} {out / 'dta.dot'} {out / 'sta.txt'}")
    if args.oracle:
        try:
            oracle = load_dta(_read(args.oracle))
        except AutomatonError as exc:
            _fail(EXIT_VALIDATION, f"oracle: {exc}")
        agree = _equivalence_trials(dta, oracle, u.names, args.words,
                                    args.max_len, args.seed)
        print(f"oracle-agreement: {agree}/{args.words}")
        if agree != args.words:
            _fail(1, "oracle disagreement")
    return 0


def _equivalence_trials(dta, oracle, events, n_words, max_len, seed):
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
        (out / "product.txt").write_text(m.to_text(header=built.hash))
        print(f"wrote: {out / 'product.txt'}")
        if m.n_states <= DOT_MAX_STATES:
            (out / "product.dot").write_text(m.to_dot())
            print(f"wrote: {out / 'product.dot'}")
    return 0


def cmd_simulate(args):
    built = build_model(args)
    m = built.product
    policy = read_policy(args.policy, built)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_logs = min(args.n, 5) if args.logs is None else args.logs
    for i in range(n_logs):
        traj = rollout(m, policy, seed=args.seed + i,
                       max_steps=args.max_steps)
        path = out / f"trajectory_{i:03d}.log"
        path.write_text(traj.render())
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
    _, dta = build_automaton(f, args.cap)
    sta = StaModel(dta, u)
    word = TimedWord.from_text(_read(args.word))
    known = set(dta.atoms) | set(u.names)
    for i, sym in enumerate(word):
        unknown = set(sym) - known
        if unknown:
            _fail(EXIT_VALIDATION,
                  f"word step {i} references unknown propositions "
                  f"{sorted(unknown)}")
    verdict, likelihood, _states = sta.run_word(word)
    print(f"verdict: {verdict}")
    print(f"likelihood: {likelihood!r}")
    return 0


def cmd_bench(args):
    f, u = load_formula(args)
    game, _ = load_environment(args, u)
    _, dta = build_automaton(f, args.cap)
    sta = StaModel(dta, u)
    if args.uniform_T:
        settings = [("T", T, {"uniform_T": T}) for T in args.uniform_T]
    elif args.eps_list:
        settings = [("eps", e, {"eps": e}) for e in args.eps_list]
    else:
        _fail(EXIT_VALIDATION, "need --uniform-T or --eps-list")
    rows = []
    for kind, value, setting in settings:
        trunc = truncation(f, u, **setting)
        t0 = time.perf_counter()
        m = validated_product(game, truncate(sta, trunc))
        res = value_iteration(m, tol=args.tol, max_iter=args.max_iter)
        if not res.converged:
            _fail(EXIT_SOLVER, f"no convergence at {kind}={value}")
        elapsed = time.perf_counter() - t0
        T_shown = value if kind == "T" else max(
            T for name, T in trunc.points if name in u.names)
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

def _at_least(minimum):
    """An argparse type for integers no smaller than `minimum`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _add_formula_args(p):
    p.add_argument("--formula", help="formula text")
    p.add_argument("--formula-file", help="file containing the formula")
    p.add_argument("--cap", type=_at_least(1), default=20000,
                   help="automaton location cap")


def _add_env_args(p):
    p.add_argument("--grid", help="grid world config file")
    p.add_argument("--game", help="explicit game file")


def _add_trunc_args(p):
    p.add_argument("--eps", type=float, help="requested error bound")
    p.add_argument("--uniform-T", type=int, dest="uniform_T",
                   help="common truncation point for all event clocks")


def _add_solver_args(p):
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--max-iter", type=_at_least(1), default=100_000)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mitlplan",
        description="Planner for metric-interval temporal logic tasks with "
                    "probabilistically timed external events")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="compile a formula to an automaton")
    _add_formula_args(p)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--oracle", help="explicit automaton file to check against")
    p.add_argument("--words", type=_at_least(1), default=10000)
    p.add_argument("--max-len", type=_at_least(0), default=20)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--uniform-T", dest="uniform_T",
                   type=lambda s: [int(x) for x in s.split(",")],
                   help="comma-separated uniform truncation points")
    p.add_argument("--eps-list", dest="eps_list",
                   type=lambda s: [float(x) for x in s.split(",")],
                   help="comma-separated error bounds")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
