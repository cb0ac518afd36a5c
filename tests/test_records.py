"""The package's records: value semantics, checks, copies and pickles, and
that loading the package generates no class code."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mitlplan
from mitlplan.cli import Built
from mitlplan.formula import (
    EventSet,
    FiniteTable,
    FormulaError,
    Geometric,
    Interval,
    TruncationVector,
    ValidationReport,
)
from mitlplan.game_model import Game, GameState, GridWorldConfig
from mitlplan.simulator import SuccessEstimate, Trajectory
from mitlplan.solver import Policy, ValueIterationResult
from mitlplan.stochastic_ta import StaState
from mitlplan.timed_automata import RunResult, TimedWord

EVENTS = (("b1", Geometric(0.5)), ("b2", FiniteTable(((1, 0.5), (3, 0.5)))))

# one record of each immutable type, by its fields in constructor order
VALUES = {
    Interval: (2, 5),
    Geometric: (0.25,),
    FiniteTable: (((1, 0.5), (2, 0.25)),),
    EventSet: (EVENTS,),
    TruncationVector: ((("b1", 3),), (("win1", 4),), 0.125),
    TimedWord: ((frozenset({"a"}), frozenset()),),
    StaState: (3, (1, 2), frozenset({"b1"}), False),
    GameState: ((0, 1), frozenset({"b2"}), frozenset({"b1"})),
    GridWorldConfig: (4, 3, (0, 0), (("s", (3, 2)),), EVENTS,
                      (0.5, 0.25, 0.25)),
}

# the other records, which hold lists, dicts or arrays
OTHERS = {
    ValidationReport: (["a violation"],),
    RunResult: (True, [0, 1]),
    Trajectory: ("accept", [0, 1], ["N"], ["line"]),
    SuccessEstimate: (0.5, 0.25, 0.75, 1, 2, {"accept": 1}),
    Built: (None, None, "0123"),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_values_compare_and_hash_by_their_fields(cls):
    fields = VALUES[cls]
    a, b = cls(*fields), cls(*fields)
    assert a is not b
    assert a == b and not a != b
    # as a frozen dataclass hashed: the tuple of the fields
    assert hash(a) == hash(b) == hash(fields)
    assert len({a, b}) == 1
    first = (cls._fields if hasattr(cls, "_fields") else cls.__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(a, first, None)


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_values_survive_copies_and_pickles(cls):
    a = cls(*VALUES[cls])
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a and hash(b) == hash(a)


@pytest.mark.parametrize("cls", OTHERS, ids=lambda c: c.__name__)
def test_other_records_compare_by_their_fields(cls):
    fields = OTHERS[cls]
    a = cls(*fields)
    assert a == cls(*copy.deepcopy(fields))
    assert pickle.loads(pickle.dumps(a)) == a
    assert a != cls(*fields[:-1], "other")


def test_records_of_other_classes_differ():
    assert Interval(2, 5) != Interval(2, None)
    assert Geometric(0.5) != FiniteTable(((1, 0.5),))
    assert EventSet(()) != TimedWord(())


def test_defaults_are_kept():
    assert StaState(0, (), frozenset()).sink is False
    assert GridWorldConfig(2, 2, (0, 0), (), ()).slip == (0.8, 0.1, 0.1)
    # each record gets a list or dict of its own
    assert ValidationReport().violations == []
    assert ValidationReport().violations is not ValidationReport().violations
    t = Trajectory("accept", [0], [])
    assert t.lines == [] and t.lines is not Trajectory("accept", [0], []).lines
    assert SuccessEstimate(1.0, 0.5, 1.0, 1, 1).outcomes == {}
    assert Interval(lo=1, hi=2) == Interval(1, 2)
    assert Geometric(p=0.5) == Geometric(0.5)


def test_tuple_records_print_as_before():
    # the text a frozen dataclass printed for each
    assert repr(StaState(config=3, clocks=(1, 2), pending=frozenset({"b1"}))) \
        == "StaState(config=3, clocks=(1, 2), pending=frozenset({'b1'}), " \
           "sink=False)"
    assert repr(GameState((0, 1), frozenset(), frozenset())) \
        == "GameState(robot=(0, 1), pending=frozenset(), occurred=frozenset())"
    assert repr(TruncationVector((("b1", 3),), (), 0.5)) \
        == "TruncationVector(events=(('b1', 3),), windows=(), eps_achieved=0.5)"
    assert str(TruncationVector((("b1", 3),), (("win1", 4),), 0.5)) \
        == "{b1=3, win1=4} (eps_achieved=0.5)"
    assert repr(RunResult(True, [0])) == "RunResult(accepted=True, configs=[0])"
    assert repr(ValueIterationResult(np.zeros(1), 2, 0.0, True)) \
        == "ValueIterationResult(values=array([0.]), iterations=2, " \
           "residual=0.0, converged=True)"
    assert repr(Policy(np.zeros(1, dtype=np.int64), ("N",), np.ones(1, bool))) \
        == "Policy(action_index=array([0]), actions=('N',), " \
           "absorbing=array([ True]))"
    assert repr(Built(None, None, "ab")) \
        == "Built(trunc=None, product=None, hash='ab')"
    # the slotted records print the same way
    assert repr(Interval(0, None)) == "Interval(lo=0, hi=None)"
    assert repr(Geometric(0.5)) == "Geometric(p=0.5)"
    assert repr(ValidationReport()) == "ValidationReport(violations=[])"


@pytest.mark.parametrize("make, message", [
    (lambda: Interval(-1, 2), "interval lower bound -1 negative"),
    (lambda: Interval(3, 1), "interval [3,1] has hi < lo"),
    (lambda: Geometric(0.0), "geometric parameter must be in (0,1], got 0.0"),
    (lambda: Geometric(float("nan")),
     "geometric parameter must be in (0,1], got nan"),
    (lambda: FiniteTable(()), "finite table needs at least one entry"),
    (lambda: FiniteTable(((2, 0.5), (1, 0.5))),
     "table steps must be positive and strictly increasing"),
    (lambda: FiniteTable(((1, 1.5),)), "table mass 1.5 outside [0,1]"),
    (lambda: FiniteTable(((1, 0.75), (2, 0.5))),
     "table mass sums to 1.25 > 1"),
], ids=["interval-negative", "interval-reversed", "geometric-zero",
        "geometric-nan", "table-empty", "table-unsorted", "table-mass",
        "table-over-full"])
def test_checks_keep_their_messages(make, message):
    # the grid config's messages: test_game_model.py::test_config_validation
    with pytest.raises(FormulaError) as exc:
        make()
    assert str(exc.value) == message


def test_games_equal_only_themselves():
    fields = (("N",), (), (GameState(0, frozenset(), frozenset()),),
              (frozenset(),), np.zeros(1, dtype=np.int64),
              np.array([0, 1]), np.zeros(1, dtype=np.int64), np.ones(1))
    a, b = Game(*fields), Game(*fields)
    assert a == a and a != b
    assert hash(a) != hash(b)
    assert len({a, b}) == 2


def test_a_trajectory_copies_with_a_field_replaced():
    t = Trajectory("accept", [0, 1], ["N"], ["x"])
    u = dataclasses.replace(t, actions=["S"])
    assert u == Trajectory("accept", [0, 1], ["S"], ["x"])
    assert t.actions == ["N"]


def test_importing_the_package_generates_no_class_code():
    # a fresh interpreter: pytest itself loads `dataclasses`
    pkg = Path(mitlplan.__file__).resolve().parent
    names = sorted(f"mitlplan.{p.stem}" for p in pkg.glob("*.py")
                   if p.stem != "__init__")
    assert "mitlplan.simulator" in names and "mitlplan.cli" in names
    script = ("import importlib, sys\n"
              f"for name in {names!r}:\n"
              "    importlib.import_module(name)\n"
              "print('dataclasses' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pkg.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=300)
    assert done.stdout == "False\n"
