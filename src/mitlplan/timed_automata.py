"""Clocks, timed words, and deterministic timed automata.

Two automaton representations share one stepping interface:

* :class:`ProgressionDta` is built from a formula by one-step progression;
  window bounds live inside the location formulas, so it carries no clocks.
  It is the automaton the stochastic TA steps.
* :class:`ExplicitDta` is loaded from a text file with named locations,
  clocks, guards, and resets.  It is the format of hand-built reference
  automata, such as the oracle of ``translate --oracle``.

Time is discrete with unit steps: the word entry at index i carries
timestamp i, the first symbol is consumed with zero elapsed time, and every
later symbol advances all clocks by one before guards are checked.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

from .formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    FalseF,
    Formula,
    FormulaError,
    Interval,
    Not,
    Or,
    TrueF,
    Until,
    normalize,
    parse as parse_formula,
    pretty,
    until,
)


class AutomatonError(ValueError):
    """Raised for malformed automata or automaton construction failures."""


# ---------------------------------------------------------------------------
# Clock vectors and constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClockVector:
    """Integer clock values, one per named clock."""

    clocks: tuple[str, ...]
    values: tuple[int, ...]

    def index(self, clock: str) -> int:
        try:
            return self.clocks.index(clock)
        except ValueError:
            raise AutomatonError(f"unknown clock {clock!r}") from None

    def value(self, clock: str) -> int:
        return self.values[self.index(clock)]

    def advance(self, t: int) -> "ClockVector":
        """Advance every clock by t."""
        if t == 0:
            return self
        return ClockVector(self.clocks, tuple(v + t for v in self.values))

    def reset(self, zero=()) -> "ClockVector":
        """Zero the clocks in `zero`."""
        zero = set(zero)
        for c in zero:
            self.index(c)
        vals = tuple(0 if c in zero else v
                     for c, v in zip(self.clocks, self.values))
        return ClockVector(self.clocks, vals)

    def __str__(self):
        body = ", ".join(f"{c}={v}" for c, v in zip(self.clocks, self.values))
        return f"[{body}]"


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


def eval_constraint(c: ClockConstraint | None, v: ClockVector) -> bool:
    """Evaluate a clock constraint; None is the trivially true guard."""
    if c is None:
        return True
    if isinstance(c, FalseC):
        return False
    if isinstance(c, Compare):
        return _OPS[c.op](v.value(c.clock), c.k)
    if isinstance(c, DiffCompare):
        return _OPS[c.op](v.value(c.clock_a) - v.value(c.clock_b), c.k)
    if isinstance(c, AndC):
        return eval_constraint(c.left, v) and eval_constraint(c.right, v)
    if isinstance(c, OrC):
        return eval_constraint(c.left, v) or eval_constraint(c.right, v)
    raise TypeError(f"not a clock constraint: {c!r}")


def constraint_constants(c: ClockConstraint | None) -> list[int]:
    if c is None or isinstance(c, FalseC):
        return []
    if isinstance(c, (Compare, DiffCompare)):
        return [c.k]
    return constraint_constants(c.left) + constraint_constants(c.right)


def constraint_clocks(c: ClockConstraint | None) -> set[str]:
    if c is None or isinstance(c, FalseC):
        return set()
    if isinstance(c, Compare):
        return {c.clock}
    if isinstance(c, DiffCompare):
        return {c.clock_a, c.clock_b}
    return constraint_clocks(c.left) | constraint_clocks(c.right)


# ---------------------------------------------------------------------------
# Timed words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimedWord:
    """Finite unit-step word: symbol i is read at timestamp i."""

    symbols: tuple[frozenset[str], ...]

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    @classmethod
    def from_sets(cls, sets) -> "TimedWord":
        return cls(tuple(frozenset(s) for s in sets))

    @classmethod
    def from_text(cls, text: str) -> "TimedWord":
        """One line per step; propositions separated by spaces; '-' = empty."""
        symbols = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line == "-":
                symbols.append(frozenset())
            else:
                symbols.append(frozenset(line.split()))
        return cls(tuple(symbols))

    def to_text(self) -> str:
        lines = []
        for sym in self.symbols:
            lines.append(" ".join(sorted(sym)) if sym else "-")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Formula progression
# ---------------------------------------------------------------------------

def _clauses(f: Formula) -> frozenset[frozenset[Formula]]:
    """Disjunctive normal form over non-boolean units.

    A formula maps to a set of clauses (disjuncts); each clause is a set of
    unit formulas (conjuncts).  True is the single empty clause, False the
    empty clause set.  Units (atoms, literals, untils) must already be
    canonical.
    """
    if isinstance(f, TrueF):
        return frozenset([frozenset()])
    if isinstance(f, FalseF):
        return frozenset()
    if isinstance(f, Or):
        return _clauses(f.left) | _clauses(f.right)
    if isinstance(f, And):
        left = _clauses(f.left)
        right = _clauses(f.right)
        return frozenset(a | b for a in left for b in right)
    return frozenset([frozenset([f])])


class _Progression:
    """Memo tables of one automaton build.

    Canonical forms and one-step progressions are memoized per
    (subformula, symbol) for as long as the context lives.  `build_dta`
    owns one context and drops it when it returns, so nothing at module
    level outlives a build; sort keys are the ``pretty`` text cached on
    each node.
    """

    def __init__(self):
        self.canonical_forms: dict[Formula, Formula] = {}
        self.progressed: dict[tuple[Formula, frozenset], Formula] = {}

    def canonical(self, f: Formula) -> Formula:
        got = self.canonical_forms.get(f)
        if got is None:
            got = self._canonical_node(f)
            self.canonical_forms[f] = got
            self.canonical_forms[got] = got
        return got

    def _canonical_node(self, f: Formula) -> Formula:
        canonical = self.canonical
        if isinstance(f, (TrueF, FalseF, Atom)):
            return f
        if isinstance(f, Not):
            g = canonical(f.operand)
            if isinstance(g, TrueF):
                return FALSE
            if isinstance(g, FalseF):
                return TRUE
            if isinstance(g, Not):
                return g.operand
            return Not(g)
        if isinstance(f, Until):
            left = canonical(f.left)
            right = canonical(f.right)
            if isinstance(right, FalseF):
                return FALSE
            iv = f.interval
            if isinstance(right, TrueF) and (iv is None or iv.lo == 0):
                return TRUE
            if isinstance(left, FalseF) and (iv is not None and iv.lo > 0):
                return FALSE
            return until(left, right, iv)
        if isinstance(f, (And, Or)):
            ctor = And if isinstance(f, And) else Or
            clauses = _clauses(ctor(canonical(f.left), canonical(f.right)))
            # absorption: a clause implied by a smaller one is redundant
            kept = [c for c in clauses
                    if not any(other < c for other in clauses)]
            if not kept:
                return FALSE
            if frozenset() in kept:
                return TRUE
            disjuncts = []
            for clause in kept:
                units = sorted(clause, key=pretty)
                acc = units[0]
                for g in units[1:]:
                    acc = And(acc, g)
                disjuncts.append(acc)
            disjuncts.sort(key=pretty)
            acc = disjuncts[0]
            for g in disjuncts[1:]:
                acc = Or(acc, g)
            return acc
        raise TypeError(f"not a formula: {f!r}")

    def progress(self, f: Formula, symbol: frozenset) -> Formula:
        key = (f, symbol)
        got = self.progressed.get(key)
        if got is None:
            got = self.canonical(self._progress_node(f, symbol))
            self.progressed[key] = got
        return got

    def _progress_node(self, g: Formula, symbol: frozenset) -> Formula:
        progress = self.progress
        if isinstance(g, TrueF) or isinstance(g, FalseF):
            return g
        if isinstance(g, Atom):
            return TRUE if g.name in symbol else FALSE
        if isinstance(g, Not):
            if not isinstance(g.operand, Atom):
                raise FormulaError(
                    f"cannot progress negation over {type(g.operand).__name__}")
            return TRUE if g.operand.name not in symbol else FALSE
        if isinstance(g, And):
            return And(progress(g.left, symbol), progress(g.right, symbol))
        if isinstance(g, Or):
            return Or(progress(g.left, symbol), progress(g.right, symbol))
        if isinstance(g, Until):
            iv = g.interval
            if iv is None:
                return Or(progress(g.right, symbol),
                          And(progress(g.left, symbol), g))
            if iv.lo > 0:
                nxt = Interval(iv.lo - 1, None if iv.hi is None else iv.hi - 1)
                return And(progress(g.left, symbol), until(g.left, g.right, nxt))
            if iv.hi is None:
                return Or(progress(g.right, symbol),
                          And(progress(g.left, symbol), until(g.left, g.right)))
            if iv.hi == 0:
                return progress(g.right, symbol)
            nxt = Interval(0, iv.hi - 1)
            return Or(progress(g.right, symbol),
                      And(progress(g.left, symbol), until(g.left, g.right, nxt)))
        raise FormulaError(f"cannot progress {type(g).__name__}")


def canonical(f: Formula) -> Formula:
    """Canonical form: residuals are flattened into a subsumption-reduced
    disjunction of conjunctions of temporal units, with operands sorted by
    a total structural order and constants absorbed.  Keeping residuals in
    this shape is what makes the progression closure finite.

    Memoized only within this call; `build_dta` keeps one memo for a
    whole build.
    """
    return _Progression().canonical(f)


def progress(f: Formula, symbol) -> Formula:
    """Residual obligation after consuming `symbol` at the current step.

    TRUE means the prefix already satisfies the formula, FALSE that it
    already violates it.  The input must be distribution-free and in
    negation normal form.  Results are canonical.  They are memoized per
    (subformula, symbol) within one build, which is what keeps closure
    construction cheap; this function memoizes only within the call.
    """
    if not isinstance(symbol, frozenset):
        symbol = frozenset(symbol)
    return _Progression().progress(f, symbol)


def formula_atoms(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, Not):
        return formula_atoms(f.operand)
    if isinstance(f, (And, Or, Until)):
        return formula_atoms(f.left) | formula_atoms(f.right)
    return set()


# ---------------------------------------------------------------------------
# Automaton interface
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    accepted: bool
    trace: list


class Dta:
    """Deterministic timed automaton interface shared by both builds."""

    atoms: tuple[str, ...]

    def initial_config(self):
        raise NotImplementedError

    def step_config(self, config, symbol: frozenset, tau: int):
        raise NotImplementedError

    def is_accepting(self, config) -> bool:
        raise NotImplementedError

    def is_rejecting(self, config) -> bool:
        raise NotImplementedError

    def location_label(self, config) -> str:
        raise NotImplementedError

    def clock_values(self, config) -> tuple[int, ...]:
        return ()


def run_dta(dta: Dta, word: TimedWord) -> RunResult:
    """Run a finite word; accepted iff an accepting location is visited."""
    config = dta.initial_config()
    trace = [(dta.location_label(config), dta.clock_values(config))]
    accepted = dta.is_accepting(config)
    for i, symbol in enumerate(word):
        # the first symbol is read at time 0, each later one a step after
        config = dta.step_config(config, frozenset(symbol), min(i, 1))
        trace.append((dta.location_label(config), dta.clock_values(config)))
        accepted = accepted or dta.is_accepting(config)
    return RunResult(accepted, trace)


# ---------------------------------------------------------------------------
# Progression automaton
# ---------------------------------------------------------------------------

class ProgressionDta(Dta):
    """Automaton whose locations are canonical residual formulas.

    Configs are integer location indices.  The transition table is total
    over subsets of the tracked atoms; symbols are restricted to the
    tracked atoms before lookup, so untracked propositions are ignored.
    """

    def __init__(self, init_formula, locations, table, atoms):
        self.locations: list[Formula] = locations
        self.table: list[list[int]] = table
        self.atoms = tuple(atoms)
        self._atom_bit = {a: 1 << i for i, a in enumerate(self.atoms)}
        self.init_index = locations.index(init_formula)
        self.accept_index = self._find(TRUE)
        self.reject_index = self._find(FALSE)

    def _find(self, f):
        try:
            return self.locations.index(f)
        except ValueError:
            return -1

    @property
    def location_count(self) -> int:
        return len(self.locations)

    def mask_of(self, symbol) -> int:
        m = 0
        for a in symbol:
            m |= self._atom_bit.get(a, 0)
        return m

    def initial_config(self):
        return self.init_index

    def step_config(self, config, symbol, tau):
        return self.table[config][self.mask_of(symbol)]

    def is_accepting(self, config):
        return config == self.accept_index

    def is_rejecting(self, config):
        return config == self.reject_index

    def location_label(self, config):
        return pretty(self.locations[config])

    def edges(self):
        """Symbol-predicate edges: (src, frozenset of masks, dst) grouped
        by destination."""
        out = []
        for i, row in enumerate(self.table):
            groups: dict[int, list[int]] = {}
            for mask, dst in enumerate(row):
                groups.setdefault(dst, []).append(mask)
            for dst, masks in sorted(groups.items()):
                out.append((i, frozenset(masks), dst))
        return out


def build_dta(phi_d: Formula, cap: int = 20000) -> ProgressionDta:
    """Closure of one-step progression from the canonicalized formula.

    The progression memo lives for this call only: once the automaton is
    returned, its locations are all that is kept of the build.
    Raises AutomatonError when more than `cap` locations are discovered,
    which indicates the formula is outside the intended desk scale.
    """
    memo = _Progression()
    init = memo.canonical(normalize(phi_d))
    atoms = tuple(sorted(formula_atoms(init)))
    # symbol i holds the atoms of bit mask i, built once per automaton
    symbols = [frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
               for mask in range(1 << len(atoms))]
    index: dict[Formula, int] = {init: 0}
    locations: list[Formula] = [init]
    table: list[list[int]] = []
    frontier = deque([init])
    while frontier:
        f = frontier.popleft()
        row = []
        for symbol in symbols:
            succ = memo.progress(f, symbol)
            j = index.get(succ)
            if j is None:
                if len(locations) >= cap:
                    raise AutomatonError(
                        f"progression closure exceeded {cap} locations")
                j = len(locations)
                index[succ] = j
                locations.append(succ)
                frontier.append(succ)
            row.append(j)
        # rows land in discovery order, matching `locations`
        table.append(row)
    return ProgressionDta(init, locations, table, atoms)


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
    if isinstance(pred, (TrueF, FalseF, Atom)):
        return
    if isinstance(pred, Not):
        _check_boolean(pred.operand)
        return
    if isinstance(pred, (And, Or)):
        _check_boolean(pred.left)
        _check_boolean(pred.right)
        return
    raise AutomatonError(f"symbol predicate must be boolean: {pretty(pred)}")


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


@dataclass
class ExplicitEdge:
    source: str
    guard: ClockConstraint | None
    predicate: Formula
    target: str
    resets: frozenset[str]


class ExplicitDta(Dta):
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
            [0] + [k for c in constraints for k in constraint_constants(c)])
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
            for c in constraint_clocks(e.guard) | set(e.resets):
                if c not in self.clocks:
                    raise AutomatonError(f"unknown clock {c!r} on edge "
                                         f"{e.source}->{e.target}")
            _check_boolean(e.predicate)
        self._validate_determinism()

    def _validate_determinism(self, box_cap: int = 200_000):
        """Enumerate symbol masks and clock vectors over the bounded box
        [0, K+1]^M; two simultaneously enabled edges are an error."""
        k = self.clock_bound
        n_vectors = (k + 1) ** len(self.clocks)
        n_masks = 1 << len(self.atoms)
        if n_vectors * n_masks > box_cap:
            n_vectors = 0  # box too large; rely on the run-time check
        masks = [frozenset(a for i, a in enumerate(self.atoms) if m >> i & 1)
                 for m in range(n_masks)]
        for loc in self.locations:
            for vec_id in range(n_vectors):
                vals = []
                rest = vec_id
                for _ in self.clocks:
                    vals.append(rest % (k + 1))
                    rest //= k + 1
                v = ClockVector(self.clocks, tuple(vals))
                for symbol in masks:
                    enabled = self._enabled(loc, symbol, v)
                    if len(enabled) > 1:
                        raise AutomatonError(
                            f"nondeterministic edges from {loc!r} on "
                            f"{set(symbol) or '{}'} at {v}: "
                            f"{enabled[0].target!r} vs {enabled[1].target!r}")

    def _enabled(self, loc, symbol, v) -> list[ExplicitEdge]:
        return [e for e in self._by_source.get(loc, [])
                if eval_symbol_predicate(e.predicate, symbol)
                and eval_constraint(e.guard, v)]

    @property
    def location_count(self):
        return len(self.locations)

    def initial_config(self):
        return (self.init, (0,) * len(self.clocks))

    def step_config(self, config, symbol, tau):
        loc, values = config
        if loc == REJECT_LOCATION:
            return config
        v = ClockVector(self.clocks, values)
        if tau > 0:
            # invariant must hold while time elapses in the source location
            inv = self.invariants.get(loc)
            if inv is not None and not eval_constraint(inv, v):
                return (REJECT_LOCATION, values)
        v = v.advance(tau)
        symbol = frozenset(symbol) & set(self.atoms)
        enabled = self._enabled(loc, symbol, v)
        if len(enabled) > 1:
            raise AutomatonError(
                f"nondeterministic step from {loc!r} on {set(symbol)} at {v}")
        if not enabled:
            return (REJECT_LOCATION, v.values)
        e = enabled[0]
        v = v.reset(zero=e.resets)
        inv2 = self.invariants.get(e.target)
        if inv2 is not None and not eval_constraint(inv2, v):
            return (REJECT_LOCATION, v.values)
        return (e.target, v.values)

    def is_accepting(self, config):
        return config[0] in self.accepting

    def is_rejecting(self, config):
        return config[0] == REJECT_LOCATION

    def location_label(self, config):
        return config[0]

    def clock_values(self, config):
        return config[1]


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

    '#' starts a comment.
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


def dta_to_dot(dta: Dta, max_masks: int = 3) -> str:
    """GraphViz rendering; mask groups abbreviated on progression edges."""
    lines = ["digraph dta {", "  rankdir=LR;", '  node [shape=circle];']
    if isinstance(dta, ProgressionDta):
        names = {i: f"q{i}" for i in range(dta.location_count)}
        for i, f in enumerate(dta.locations):
            shape = "doublecircle" if i == dta.accept_index else "circle"
            label = pretty(f).replace('"', "'")
            lines.append(f'  q{i} [shape={shape}, label="q{i}\\n{label}"];')
        for src, masks, dst in dta.edges():
            if dst == dta.reject_index:
                continue
            shown = []
            for m in sorted(masks)[:max_masks]:
                sym = {a for k, a in enumerate(dta.atoms) if m >> k & 1}
                shown.append("{" + ",".join(sorted(sym)) + "}")
            extra = "" if len(masks) <= max_masks else f" (+{len(masks) - max_masks})"
            lines.append(
                f'  {names[src]} -> {names[dst]} [label="{" ".join(shown)}{extra}"];')
        lines.append(f"  init [shape=point]; init -> q{dta.init_index};")
    else:
        for loc in dta.locations:
            shape = "doublecircle" if loc in dta.accepting else "circle"
            lines.append(f'  "{loc}" [shape={shape}];')
        for e in dta.edge_list:
            guard = "" if e.guard is None else f"[{e.guard}] "
            resets = "" if not e.resets else f" r{{{','.join(sorted(e.resets))}}}"
            label = f"{guard}{pretty(e.predicate)}{resets}".replace('"', "'")
            lines.append(f'  "{e.source}" -> "{e.target}" [label="{label}"];')
        lines.append(f'  init [shape=point]; init -> "{dta.init}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
