import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import mitlplan
from mitlplan.formula import EventSet, parse, substitute_dist, uniform_truncation_vector
from mitlplan.game_model import GridWorldConfig, build_gridworld
from mitlplan.product_mdp import build_product
from mitlplan.stochastic_ta import StaModel, truncate
from mitlplan.timed_automata import build_dta

DATA = Path(__file__).parent / "data"


def package_env(*paths, **variables):
    """This process's environment for a child interpreter that imports the
    `mitlplan` this one imported, then `paths`, with `variables` set."""
    src = str(Path(mitlplan.__file__).resolve().parent.parent)
    return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        [src, *paths, os.environ.get("PYTHONPATH", "")]))


BUS_CASE1 = ("D{geom:0.8} b1 & F (b1 & F[0,3] b3) | "
             "D{geom:0.3} b2 & F (b2 & F[0,3] b4)")
BUS_CASE2 = ("D{geom:0.4} b1 & F (b1 & F[0,3] b3) | "
             "D{geom:0.7} b2 & F (b2 & F[0,3] b4)")
THREE_BUS = ("D{geom:0.6} b1 & F (b1 & F[0,2] s1) | "
             "D{geom:0.62} b2 & F (b2 & F[0,4] s2) | "
             "D{geom:0.6} b3 & F (b3 & F[0,3] s3)")

# formula texts nested exactly n levels deep (`formula.MAX_FORMULA_DEPTH`)
DEEP_FORMULAS = {
    # `a` inside n - 1 parentheses and the F
    "parentheses": lambda n: ("(" * (n - 1) + "F a" + ")" * (n - 1)
                              + " & D{geom:0.5} b"),
    # n - 2 conjunctions over `F a`, so n nodes from the root to `a`
    "conjunction": lambda n: "F a & " * (n - 2) + "D{geom:0.5} b",
}


def grid_config(events):
    return GridWorldConfig(4, 4, (0, 0),
                           (("b3", (0, 3)), ("b4", (3, 0))),
                           tuple(events), (0.8, 0.1, 0.1))


def build_case(formula_text, T):
    f = parse(formula_text)
    u = EventSet.from_formula(f)
    dta = build_dta(substitute_dist(f))
    sta = StaModel(dta, u)
    trunc = uniform_truncation_vector(f, u, T)
    game = build_gridworld(grid_config(u.entries))
    product = build_product(game, truncate(sta, trunc))
    return product, trunc


@pytest.fixture(scope="session")
def bus1_formula():
    return parse(BUS_CASE1)


@pytest.fixture(scope="session")
def bus1_events(bus1_formula):
    return EventSet.from_formula(bus1_formula)


@pytest.fixture(scope="session")
def bus1_dta(bus1_formula):
    return build_dta(substitute_dist(bus1_formula))


@pytest.fixture(scope="session")
def bus1_sta(bus1_dta, bus1_events):
    return StaModel(bus1_dta, bus1_events)


@pytest.fixture(scope="session")
def case1_T3():
    return build_case(BUS_CASE1, 3)


@pytest.fixture(scope="session")
def case2_T3():
    return build_case(BUS_CASE2, 3)


@pytest.fixture(scope="session")
def case2_T5():
    return build_case(BUS_CASE2, 5)
