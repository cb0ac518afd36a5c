"""Explicit-clock deterministic timed automata: a test oracle.

Automata with named locations, clocks, guards, and resets, loaded from a
text file (`load_dta`).  The package never runs one; the tests use them
as hand-built references for the progression construction, such as
``tests/data/bus_oracle.dta``, and step them with
`mitlplan.timed_automata.run_dta` like a progression automaton.  A
config is a (location, clock value tuple) pair.  Time is discrete with
unit steps: a delay of tau adds tau to every clock.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product

from mitlplan.formula import (
    TRUE,
    And,
    Atom,
    FalseF,
    Formula,
    FormulaError,
    Not,
    Or,
    TrueF,
    mask_subsets,
    parse as parse_formula,
    pretty,
    subformulas,
)
from mitlplan.timed_automata import AutomatonError, formula_atoms


# ---------------------------------------------------------------------------
# Clock constraints
# ---------------------------------------------------------------------------

_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


class ClockConstraint:
    pass


@dataclass(frozen=True)
class FalseC(ClockConstraint):
    pass


@dataclass(frozen=True)
class Compare(ClockConstraint):
    clock: str
    op: str
    k: int


@dataclass(frozen=True)
class DiffCompare(ClockConstraint):
    clock_a: str
    clock_b: str
    op: str
    k: int


@dataclass(frozen=True)
class AndC(ClockConstraint):
    left: ClockConstraint
    right: ClockConstraint


@dataclass(frozen=True)
class OrC(ClockConstraint):
    left: ClockConstraint
    right: ClockConstraint


def eval_constraint(c: ClockConstraint | None,
                    v: Mapping[str, int]) -> bool:
    """Evaluate a clock constraint on clock values by name; None is the
    trivially true guard."""
    if c is None:
        return True
    if isinstance(c, FalseC):
        return False
    if isinstance(c, Compare):
        return _OPS[c.op](v[c.clock], c.k)
    if isinstance(c, DiffCompare):
        return _OPS[c.op](v[c.clock_a] - v[c.clock_b], c.k)
    if isinstance(c, AndC):
        return eval_constraint(c.left, v) and eval_constraint(c.right, v)
    if isinstance(c, OrC):
        return eval_constraint(c.left, v) or eval_constraint(c.right, v)
    raise TypeError(f"not a clock constraint: {c!r}")


def comparisons(c: ClockConstraint | None):
    """The clocks and constant of each comparison in `c`, left to right."""
    if isinstance(c, (AndC, OrC)):
        yield from comparisons(c.left)
        yield from comparisons(c.right)
    elif isinstance(c, Compare):
        yield (c.clock,), c.k
    elif isinstance(c, DiffCompare):
        yield (c.clock_a, c.clock_b), c.k


# ---------------------------------------------------------------------------
# Explicit automaton: symbol predicates and file format
# ---------------------------------------------------------------------------

def eval_symbol_predicate(pred: Formula, symbol: frozenset) -> bool:
    if isinstance(pred, TrueF):
        return True
    if isinstance(pred, FalseF):
        return False
    if isinstance(pred, Atom):
        return pred.name in symbol
    if isinstance(pred, Not):
        return not eval_symbol_predicate(pred.operand, symbol)
    if isinstance(pred, And):
        return (eval_symbol_predicate(pred.left, symbol)
                and eval_symbol_predicate(pred.right, symbol))
    if isinstance(pred, Or):
        return (eval_symbol_predicate(pred.left, symbol)
                or eval_symbol_predicate(pred.right, symbol))
    raise AutomatonError(f"temporal operator in symbol predicate: {pretty(pred)}")


def _check_boolean(pred: Formula):
    for g in subformulas(pred):
        if not isinstance(g, (TrueF, FalseF, Atom, Not, And, Or)):
            raise AutomatonError(f"symbol predicate must be boolean: {pretty(g)}")


def parse_clock_constraint(text: str) -> ClockConstraint | None:
    """Parse guards like ``true``, ``x3 <= 3``, ``x1 - x2 > 1 & x3 < 5``."""
    text = text.strip()
    if text in ("", "true"):
        return None
    if text == "false":
        return FalseC()

    def parse_or(s):
        parts = _split_top(s, "|")
        terms = [parse_and(p) for p in parts]
        acc = terms[0]
        for t in terms[1:]:
            acc = OrC(acc, t)
        return acc

    def parse_and(s):
        parts = _split_top(s, "&")
        terms = [parse_atom(p) for p in parts]
        acc = terms[0]
        for t in terms[1:]:
            acc = AndC(acc, t)
        return acc

    def parse_atom(s):
        s = s.strip()
        if s.startswith("(") and s.endswith(")"):
            return parse_or(s[1:-1])
        if s == "true":
            return None
        if s == "false":
            return FalseC()
        m = re.match(
            r"^\s*(\w+)\s*(?:-\s*(\w+)\s*)?(<=|>=|!=|=|<|>)\s*(\d+)\s*$", s)
        if not m:
            raise AutomatonError(f"cannot parse clock constraint {s!r}")
        a, b, op, k = m.groups()
        if b:
            return DiffCompare(a, b, op, int(k))
        return Compare(a, op, int(k))

    def _split_top(s, sep):
        parts = []
        depth = 0
        cur = []
        for ch in s:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == sep and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        parts.append("".join(cur))
        return parts

    result = parse_or(text)
    return result


REJECT_LOCATION = "__reject__"
# most (clock vector, symbol) pairs per location checked at load time
DETERMINISM_BOX_CAP = 200_000


def _symbol_text(symbol) -> str:
    """A symbol as a set of its sorted names, so that a message does not
    depend on the string hash seed: ``{'p', 'q'}``, or ``{}``."""
    return "{" + ", ".join(map(repr, sorted(symbol))) + "}"


@dataclass
class ExplicitEdge:
    source: str
    guard: ClockConstraint | None
    predicate: Formula
    target: str
    resets: frozenset[str]


class ExplicitDta:
    """Named-location automaton with explicit clocks, guards, and resets.

    Configs are (location, clock value tuple).  Exactly one edge may be
    enabled for any (location, symbol, clock vector); uncovered cases fall
    into an implicit absorbing reject location.
    """

    def __init__(self, locations, clocks, init, accepting, edges,
                 invariants=None, atoms=None):
        self.locations = list(locations)
        self.clocks = tuple(clocks)
        self.init = init
        self.accepting = frozenset(accepting)
        self.edge_list = list(edges)
        self.invariants: dict[str, ClockConstraint | None] = invariants or {}
        self._by_source: dict[str, list[ExplicitEdge]] = {}
        for e in self.edge_list:
            self._by_source.setdefault(e.source, []).append(e)
        inferred = set()
        for e in self.edge_list:
            inferred |= formula_atoms(e.predicate)
        self.atoms = tuple(sorted(atoms if atoms is not None else inferred))
        # one above the largest guard or invariant constant: no constraint
        # tells clock values at or above it apart
        constraints = [e.guard for e in self.edge_list]
        constraints += self.invariants.values()
        self.clock_bound = 1 + max(
            [0] + [k for c in constraints for _, k in comparisons(c)])
        self._validate()

    def _validate(self):
        if self.init not in self.locations:
            raise AutomatonError(f"initial location {self.init!r} not declared")
        for loc in self.accepting:
            if loc not in self.locations:
                raise AutomatonError(f"accepting location {loc!r} not declared")
        for e in self.edge_list:
            if e.source not in self.locations:
                raise AutomatonError(f"edge from undeclared location {e.source!r}")
            if e.target not in self.locations:
                raise AutomatonError(f"edge to undeclared location {e.target!r}")
            where = f"on edge {e.source}->{e.target}"
            self._check_clocks(e.guard, e.resets, where)
            _check_boolean(e.predicate)
            unknown = sorted(formula_atoms(e.predicate) - set(self.atoms))
            if unknown:
                raise AutomatonError(f"unknown atom {unknown[0]!r} {where}")
        for loc, inv in self.invariants.items():
            if loc not in self.locations:
                raise AutomatonError(f"invariant of undeclared location {loc!r}")
            self._check_clocks(inv, (), f"in invariant of {loc!r}")
        self._validate_determinism()

    def _check_clocks(self, constraint, resets, where):
        used = [c for cs, _ in comparisons(constraint) for c in cs]
        for c in used + sorted(resets):
            if c not in self.clocks:
                raise AutomatonError(f"unknown clock {c!r} {where}")

    def _validate_determinism(self):
        """Enumerate symbol masks and clock vectors over the bounded box
        [0, K+1]^M, first clock fastest; two simultaneously enabled edges
        are an error."""
        box = range(self.clock_bound + 1)
        masks = mask_subsets(self.atoms)
        if len(box) ** len(self.clocks) * len(masks) > DETERMINISM_BOX_CAP:
            return  # box too large; rely on the run-time check
        for loc in self.locations:
            for last_first in product(box, repeat=len(self.clocks)):
                values = last_first[::-1]
                named = dict(zip(self.clocks, values))
                for symbol in masks:
                    enabled = self._enabled(loc, symbol, named)
                    if len(enabled) > 1:
                        raise AutomatonError(
                            f"nondeterministic edges from {loc!r} on "
                            f"{_symbol_text(symbol)} at "
                            f"{self._clock_text(values)}: "
                            f"{enabled[0].target!r} vs {enabled[1].target!r}")

    def _enabled(self, loc, symbol, named) -> list[ExplicitEdge]:
        return [e for e in self._by_source.get(loc, [])
                if eval_symbol_predicate(e.predicate, symbol)
                and eval_constraint(e.guard, named)]

    def _clock_text(self, values) -> str:
        body = ", ".join(f"{c}={v}" for c, v in zip(self.clocks, values))
        return f"[{body}]"

    @property
    def location_count(self):
        return len(self.locations)

    def initial_config(self):
        return (self.init, (0,) * len(self.clocks))

    def step_config(self, config, symbol, tau):
        loc, values = config
        if loc == REJECT_LOCATION:
            return config
        if tau > 0:
            # the source invariant must still hold when the delay ends
            values = tuple(v + tau for v in values)
            inv = self.invariants.get(loc)
            if inv is not None and not eval_constraint(
                    inv, dict(zip(self.clocks, values))):
                return (REJECT_LOCATION, values)
        symbol = frozenset(symbol) & set(self.atoms)
        enabled = self._enabled(loc, symbol, dict(zip(self.clocks, values)))
        if len(enabled) > 1:
            raise AutomatonError(
                f"nondeterministic step from {loc!r} on "
                f"{_symbol_text(symbol)} at {self._clock_text(values)}")
        if not enabled:
            return (REJECT_LOCATION, values)
        e = enabled[0]
        values = tuple(0 if c in e.resets else v
                       for c, v in zip(self.clocks, values))
        inv2 = self.invariants.get(e.target)
        if inv2 is not None and not eval_constraint(
                inv2, dict(zip(self.clocks, values))):
            return (REJECT_LOCATION, values)
        return (e.target, values)

    def is_accepting(self, config):
        return config[0] in self.accepting


def load_dta(text: str) -> ExplicitDta:
    """Parse the explicit automaton format.

    Line directives::

        locations Init l1 l2 ...
        clocks x1 x2 ...
        atoms b1 b2 ...            (optional; inferred from predicates)
        init Init
        accepting l3 ...
        invariant l1 [x3 <= 10]
        edge l1 [x3 <= 3] {!b2 & b3} -> l3 reset{x1,x2}

    '#' starts a comment.  An `atoms` line names every predicate atom.
    """
    locations: list[str] = []
    clocks: list[str] = []
    atoms = None
    init = None
    accepting: list[str] = []
    invariants: dict[str, ClockConstraint | None] = {}
    edges: list[ExplicitEdge] = []
    edge_re = re.compile(
        r"^edge\s+(\S+)\s*\[(.*?)\]\s*\{(.*?)\}\s*->\s*(\S+)\s*"
        r"(?:reset\{(.*?)\})?\s*$")
    inv_re = re.compile(r"^invariant\s+(\S+)\s*\[(.*?)\]\s*$")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        try:
            if head == "locations":
                locations.extend(line.split()[1:])
            elif head == "clocks":
                clocks.extend(line.split()[1:])
            elif head == "atoms":
                atoms = line.split()[1:]
            elif head == "init":
                if len(line.split()) != 2:
                    raise AutomatonError("expected 'init <location>'")
                init = line.split()[1]
            elif head == "accepting":
                accepting.extend(line.split()[1:])
            elif head == "invariant":
                m = inv_re.match(line)
                if not m:
                    raise AutomatonError("bad invariant line")
                invariants[m.group(1)] = parse_clock_constraint(m.group(2))
            elif head == "edge":
                m = edge_re.match(line)
                if not m:
                    raise AutomatonError("bad edge line")
                src, guard_s, pred_s, dst, resets_s = m.groups()
                guard = parse_clock_constraint(guard_s)
                pred = parse_formula(pred_s) if pred_s.strip() else TRUE
                resets = frozenset(
                    r.strip() for r in (resets_s or "").split(",") if r.strip())
                edges.append(ExplicitEdge(src, guard, pred, dst, resets))
            else:
                raise AutomatonError(f"unknown directive {head!r}")
        except (AutomatonError, FormulaError) as exc:
            raise AutomatonError(f"line {lineno}: {exc}") from None
    if init is None:
        raise AutomatonError("missing init location")
    return ExplicitDta(locations, clocks, init, accepting, edges,
                       invariants, atoms)
