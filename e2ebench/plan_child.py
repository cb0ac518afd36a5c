"""`mitlplan plan` with per-layer spans, for the traced plan-grid run.

Usage: python plan_child.py TRACE_JSON plan [plan arguments...]

Runs the CLI's own `main` after rebinding the public functions it calls
to timing wrappers, then writes the spans and counters to TRACE_JSON.
The CLI's stdout, files and exit code are unchanged.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from common import Tracer, use_checkout_sources  # noqa: E402
from layers import (  # noqa: E402
    count_game_states,
    patch_everywhere,
    record_dta,
    traced_build_product,
)


def wrap(tracer, module, name, span, after=None):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        with tracer.span(span):
            out = original(*args, **kwargs)
        if after is not None:
            after(out)
        return out

    patch_everywhere(original, wrapper)


def instrument(tracer):
    from mitlplan import cli, formula, game_model, product_mdp, solver
    from mitlplan import timed_automata

    wrap(tracer, formula, "parse", "formula.parse")
    wrap(tracer, formula, "validate_fragment", "formula.validate")
    wrap(tracer, formula, "truncation_vector", "formula.truncation")
    wrap(tracer, formula, "uniform_truncation_vector", "formula.truncation")
    wrap(tracer, timed_automata, "build_dta", "timed_automata.build_dta",
         after=lambda dta: record_dta(tracer, dta))
    wrap(tracer, game_model, "parse_gridworld_config", "game_model.build")
    wrap(tracer, game_model, "build_gridworld", "game_model.build",
         after=lambda game: count_game_states(tracer, game))
    wrap(tracer, solver, "value_iteration", "solver.value_iteration",
         after=lambda res: tracer.add("solver.sweeps", res.iterations))
    wrap(tracer, solver, "extract_policy", "solver.extract_policy")
    wrap(tracer, cli, "write_policy", "cli.write")
    wrap(tracer, cli, "write_values", "cli.write")
    original = product_mdp.build_product
    patch_everywhere(original, lambda game, tsta, *a, **k: traced_build_product(
        tracer, original, game, tsta, *a, **k))


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    use_checkout_sources()
    with tracer.span("cli.import"):
        from mitlplan import cli
    instrument(tracer)
    code = cli.main(argv)
    sys.stdout.flush()
    tracer.counts["internal_s"] = time.perf_counter() - T_START
    with open(trace_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
