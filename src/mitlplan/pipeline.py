"""The numpy side of the command line: `plan`, `simulate` and `bench`, the
model they build, and the policy and value files.

`mitlplan.cli`, the front, imports this module when one of these three
subcommands runs, or when one of its names is read through the front
(`cli.PIPELINE_NAMES`), as `e2ebench` reads `build_model` and the file
functions.  The error type, exit codes, file helpers and formula loading
are the front's.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from . import formula as fm
from .cli import (
    EXIT_GAME,
    EXIT_PRODUCT,
    EXIT_SOLVER,
    EXIT_STALE,
    EXIT_VALIDATION,
    _fail,
    _out_dir,
    _read,
    _write,
    failing,
    load_formula,
    progression,
    stepping,
)
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
    Policy,
    extract_policy,
    satisfaction_probability,
    value_iteration,
)
from .stochastic_ta import StaModel
from .timed_automata import pretty


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
    absorbing states may be left out or carry the stay action.  A missing,
    repeated or empty `# model-hash:` line, a malformed line, an index out
    of range, a repeated state, or a missing or unknown action fails with
    exit code 2; a hash other than the model's fails with exit code 6.
    """
    m = built.product
    file_hash = None
    rows = []
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        if line.startswith("# model-hash:"):
            if file_hash is not None:
                _fail(EXIT_VALIDATION, f"{path} line {lineno}: a second "
                                       f"'# model-hash:' line")
            file_hash = line.split(":", 1)[1].strip()
            if not file_hash:
                _fail(EXIT_VALIDATION, f"{path} line {lineno}: no hash "
                                       f"after '# model-hash:'")
        elif line.strip() and not line.startswith("#"):
            rows.append((lineno, line.split()))
    if file_hash is None:
        _fail(EXIT_VALIDATION, f"{path}: no '# model-hash:' line")
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
