"""Per-layer tracing from the benchmark's side of each module boundary.

Nothing inside `mitlplan` is changed.  In-process workloads open spans
around their own calls into the public functions; the traced `plan`
child (`plan_child.py`) swaps the public functions the CLI calls for
timing wrappers.  Method-level counters (`TruncatedSta.step`,
`Game.transitions`) are instance attributes set on the objects handed to
`build_product` and removed afterwards, so they count only product
construction, and read zero if a later construction never calls them.
"""

from __future__ import annotations

import functools
import sys
import time

# name -> (unit, better); the order is the order printed
LAYER_METRICS = {
    "formula.parse_s": ("s", "lower"),
    "formula.validate_s": ("s", "lower"),
    "formula.truncation_s": ("s", "lower"),
    "timed_automata.build_dta_s": ("s", "lower"),
    "timed_automata.locations": ("count", "lower"),
    "timed_automata.transitions": ("count", "lower"),
    "stochastic_ta.step_calls": ("count", "lower"),
    "stochastic_ta.step_s": ("s", "lower"),
    "stochastic_ta.zero_prob_share": ("ratio", "lower"),
    "stochastic_ta.run_word_s": ("s", "lower"),
    "game_model.build_s": ("s", "lower"),
    "game_model.states": ("count", "lower"),
    "game_model.transitions_calls": ("count", "lower"),
    "game_model.transitions_s": ("s", "lower"),
    "product_mdp.build_s": ("s", "lower"),
    "product_mdp.self_s": ("s", "lower"),
    "product_mdp.states": ("count", "lower"),
    "product_mdp.edges": ("count", "lower"),
    "product_mdp.validate_s": ("s", "lower"),
    "product_mdp.csr_bytes_computed": ("B", "lower"),
    "solver.value_iteration_s": ("s", "lower"),
    "solver.sweeps": ("count", "lower"),
    "solver.extract_policy_s": ("s", "lower"),
    "simulator.estimate_s": ("s", "lower"),
    "simulator.rollout_s": ("s", "lower"),
    "simulator.accept_share": ("ratio", "higher"),
    "simulator.step_limit_share": ("ratio", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.other_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.spanned_share": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}

# span name -> per-layer time metric
SPAN_METRIC = {
    "formula.parse": "formula.parse_s",
    "formula.validate": "formula.validate_s",
    "formula.truncation": "formula.truncation_s",
    "timed_automata.build_dta": "timed_automata.build_dta_s",
    "stochastic_ta.run_word": "stochastic_ta.run_word_s",
    "game_model.build": "game_model.build_s",
    "product_mdp.build": "product_mdp.build_s",
    "product_mdp.validate": "product_mdp.validate_s",
    "solver.value_iteration": "solver.value_iteration_s",
    "solver.extract_policy": "solver.extract_policy_s",
    "simulator.estimate": "simulator.estimate_s",
    "simulator.rollout": "simulator.rollout_s",
    "cli.import": "cli.import_s",
    "cli.write": "cli.write_s",
}


def count_method(tracer, obj, name, prefix, zero_prob=False):
    """Count calls to and time spent in `obj.<name>` by shadowing the
    bound method with an instance attribute.  Returns an undo callable."""
    bound = getattr(obj, name, None)
    if bound is None or not tracer.enabled:
        return lambda: None

    @functools.wraps(bound)
    def counted(*args, **kwargs):
        t0 = time.perf_counter()
        out = bound(*args, **kwargs)
        tracer.counts[prefix + "_s"] += time.perf_counter() - t0
        tracer.counts[prefix + "_calls"] += 1
        if zero_prob and isinstance(out, tuple) and out[-1] <= 0.0:
            tracer.counts[prefix + "_zero_prob"] += 1
        return out

    try:
        setattr(obj, name, counted)
    except (AttributeError, TypeError):
        tracer.counts[prefix + "_uncountable"] = 1
        return lambda: None
    return lambda: delattr(obj, name)


def record_dta(tracer, dta):
    table = dta.table
    tracer.add("timed_automata.locations", len(table))
    tracer.add("timed_automata.transitions",
               sum(len(row) for row in table))


def record_product(tracer, m):
    tracer.add("product_mdp.states", m.n_states)
    tracer.add("product_mdp.edges", m.n_edges)
    tracer.add("product_mdp.csr_bytes_computed",
               sum(getattr(getattr(m, a, None), "nbytes", 0)
                   for a in ("row_ptr", "cols", "probs")))


def traced_build_product(tracer, build_product, game, tsta, *args, **kwargs):
    """`build_product` under a span, with the STA step and game
    transition counters active only for its duration."""
    undo = [count_method(tracer, tsta, "step", "stochastic_ta.step",
                         zero_prob=True),
            count_method(tracer, game, "transitions",
                         "game_model.transitions")]
    try:
        with tracer.span("product_mdp.build"):
            m = build_product(game, tsta, *args, **kwargs)
    finally:
        for u in undo:
            u()
    if tracer.enabled:
        record_product(tracer, m)
        validate = m.validate

        def traced_validate(*a, **k):
            with tracer.span("product_mdp.validate"):
                return validate(*a, **k)

        m.validate = traced_validate
    return m


def count_game_states(tracer, game):
    if tracer.enabled:
        with tracer.span("trace.count"):
            tracer.add("game_model.states", len(game.enumerate_states()))


def layer_metrics(tracer, wall_s, overhead_share, notes):
    """The per-layer metric dict from a traced phase's totals and counts.
    Layers the workload never reached read 0 and get a note."""
    t, c = tracer.totals, tracer.counts
    out = {}
    for span, metric in SPAN_METRIC.items():
        out[metric] = t.get(span, 0.0)
    for key in ("timed_automata.locations", "timed_automata.transitions",
                "game_model.states", "product_mdp.states",
                "product_mdp.edges", "product_mdp.csr_bytes_computed",
                "solver.sweeps", "cli.startup_s", "cli.other_s"):
        out[key] = c.get(key, 0.0)
    calls = c.get("stochastic_ta.step_calls", 0.0)
    out["stochastic_ta.step_calls"] = calls
    out["stochastic_ta.step_s"] = c.get("stochastic_ta.step_s", 0.0)
    out["stochastic_ta.zero_prob_share"] = (
        c.get("stochastic_ta.step_zero_prob", 0.0) / calls if calls else 0.0)
    out["game_model.transitions_calls"] = c.get("game_model.transitions_calls", 0.0)
    out["game_model.transitions_s"] = c.get("game_model.transitions_s", 0.0)
    out["product_mdp.self_s"] = max(
        out["product_mdp.build_s"] - out["stochastic_ta.step_s"]
        - out["game_model.transitions_s"], 0.0)
    rollouts = c.get("simulator.rollouts", 0.0)
    out["simulator.accept_share"] = (
        c.get("simulator.accepts", 0.0) / rollouts if rollouts else 0.0)
    out["simulator.step_limit_share"] = (
        c.get("simulator.step_limits", 0.0) / rollouts if rollouts else 0.0)
    for prefix in ("stochastic_ta.step", "game_model.transitions"):
        if c.get(prefix + "_uncountable"):
            notes.append(f"{prefix} could not be wrapped; its counters read 0")
    # every span in SPAN_METRIC is opened at top level
    top = (sum(t.get(k, 0.0) for k in SPAN_METRIC)
           + out["cli.startup_s"] + out["cli.other_s"])
    out["trace.wall_s"] = wall_s
    out["trace.spanned_share"] = top / wall_s if wall_s > 0 else 0.0
    out["trace.overhead_share"] = overhead_share
    unused = sorted(k for k, v in out.items()
                    if v == 0.0 and not k.startswith("trace."))
    if unused:
        notes.append("not exercised by this workload (reads 0): "
                     + ", ".join(unused))
    notes.append("single-threaded program with one client: no queue or "
                 "lock, so no layer has wait time to report")
    return out


def patch_everywhere(original, replacement):
    """Rebind every module-level name in `mitlplan.*` that refers to
    `original`, whichever way the caller imported it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("mitlplan"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
