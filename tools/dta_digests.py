"""Golden digests of progression automata.

For a fixed corpus of formulas this prints, as JSON, the sha256 of each
automaton's location list (one ``pretty`` rendering per line, in location
order) and of its transition table (``json.dumps`` of ``ProgressionDta.table``).
The corpus is a two-bus mission (the oracle mission of the test suite)
and a three-bus mission, with their distribution eventualities
substituted, and every tenth of the 1 000 random formulas that
``test_criterion_9_progression_soundness`` draws.

A change to the formula or automaton layer keeps the automata identical
when this script prints the same file on the change as on its parent::

    PYTHONPATH=src python tools/dta_digests.py > tests/data/dta_digests.json

``tests/test_timed_automata.py::test_golden_dta_digests`` checks the
committed file.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"

BUS_MISSIONS = {
    "two-bus": ("D{geom:0.8} b1 & F (b1 & F[0,3] b3) | "
                "D{geom:0.3} b2 & F (b2 & F[0,3] b4)"),
    "three-bus": ("D{geom:0.6} b1 & F (b1 & F[0,2] s1) | "
                  "D{geom:0.62} b2 & F (b2 & F[0,4] s2) | "
                  "D{geom:0.6} b3 & F (b3 & F[0,3] s3)"),
}

# the draw of test_criterion_9_progression_soundness, words included, so
# that formula i here is formula i there
CRITERION_9_SEED = 20260808
CRITERION_9_FORMULAS = 1000
CRITERION_9_STRIDE = 10


def corpus():
    """(name, distribution-free formula) pairs, in a fixed order."""
    from mitlplan.formula import parse, substitute_dist

    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    from _oracles import random_fragment_formula, random_word

    out = [(name, substitute_dist(parse(text)))
           for name, text in BUS_MISSIONS.items()]
    rng = random.Random(CRITERION_9_SEED)
    atoms = ["p", "q", "r"]
    for i in range(CRITERION_9_FORMULAS):
        f = random_fragment_formula(rng, atoms, max_temporal=3, max_bound=5)
        for _ in range(3):
            random_word(rng, atoms, 12)
        if i % CRITERION_9_STRIDE == 0:
            out.append((f"criterion9-{i:03d}", f))
    return out


def dta_digest(dta) -> dict:
    from mitlplan.formula import pretty

    text = "\n".join(pretty(f) for f in dta.locations)
    return {
        "locations": dta.location_count,
        "locations_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "table_sha256": hashlib.sha256(
            json.dumps(dta.table).encode()).hexdigest(),
    }


def digests() -> dict:
    from mitlplan.timed_automata import build_dta

    return {name: dta_digest(build_dta(f)) for name, f in corpus()}


def main():
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
