"""Task formulas: syntax, parsing, validation, distributions, truncation.

The specification language is metric-interval temporal logic over unit-step
discrete time, extended with a distribution-eventuality operator ``D{..} e``
that declares the first occurrence time of an external event ``e`` to follow
a known probability distribution.  Text syntax::

    phi  := "true" | "false" | ident | "!" phi | phi "&" phi | phi "|" phi
          | phi "U" bound? phi | "F" bound? phi | "D{" dist "}" ident
          | "(" phi ")"
    bound := "[" int "," (int | "inf") "]"
    dist  := "geom:" float | "table:" int ":" float ("," int ":" float)*

Precedence: ``!``/``F``/``D`` bind tightest, then ``U``, then ``&``, then
``|``.  Intervals written by the user must be nonsingular (lo < hi unless
hi is inf); singular intervals do arise internally while a formula is
progressed and are accepted by the constructors.

Syntax nodes are interned (hash-consed): constructing a node equal to a
live one returns that node, so equality is identity and a node's hash is
its identity.  The intern table holds nodes weakly, and ``pretty`` caches
each node's text on the node.  Nodes, laws and event sets are `Record`s,
slotted classes whose fields their ``__slots__`` list.
"""

from __future__ import annotations

import re
import weakref
from itertools import combinations
from typing import NamedTuple


class FormulaError(ValueError):
    """Raised for malformed formulas, intervals, or distributions."""


class ParseError(FormulaError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ZeroSurvivalError(FormulaError):
    """Hazard requested at a step the event cannot reach (no mass left)."""


class Record:
    """Base of the package's immutable records: a subclass lists its fields,
    in constructor order, as its ``__slots__``, and its constructor sets
    each once, as `_set` does.  A record equals a record of its class with
    equal fields, hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)``, and copies and pickles through its
    constructor, which checks the fields again."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(type(self).__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, type(self).__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        cls = type(self)
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in cls.__slots__)
        return f"{cls.__name__}({body})"


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

class DistributionSpec(Record):
    """First-occurrence distribution over steps k >= 1."""

    __slots__ = ()

    def pmf(self, k: int) -> float:
        raise NotImplementedError

    def tail(self, T: int) -> float:
        """Probability mass strictly after step T (sum of pmf over k > T)."""
        raise NotImplementedError

    def hazard(self, t: int) -> float:
        """P(first occurrence at step t | no occurrence before t): exactly 1
        where no mass remains after step t, and at most 1 where the quotient
        rounds up."""
        if t < 1:
            return 0.0
        survival = self.tail(t - 1)
        if survival <= 0.0:
            raise ZeroSurvivalError(
                f"no probability mass remains at step {t}")
        if self.tail(t) == 0.0:
            return 1.0
        return min(self.pmf(t) / survival, 1.0)


class Geometric(DistributionSpec):
    """Geometric on k >= 1 with per-step success probability p."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        if not (0.0 < p <= 1.0):
            raise FormulaError(f"geometric parameter must be in (0,1], got {p}")
        self._set(p)

    def pmf(self, k):
        if k < 1:
            return 0.0
        return (1.0 - self.p) ** (k - 1) * self.p

    def tail(self, T):
        # closed form: sum_{k>T} (1-p)^(k-1) p = (1-p)^T
        return (1.0 - self.p) ** T

    def hazard(self, t):
        if t < 1:
            return 0.0
        if self.p == 1.0 and t > 1:
            raise ZeroSurvivalError(f"no probability mass remains at step {t}")
        return self.p

    def __str__(self):
        return f"geom:{self.p!r}"


TABLE_MASS_TOL = 1e-12


class FiniteTable(DistributionSpec):
    """Explicit pmf over listed steps; any missing mass never occurs.  A
    table whose masses sum to 1 (within `TABLE_MASS_TOL`) has no mass after
    its last step of positive mass, whatever the rounding of the sum."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, float], ...]):
        if not entries:
            raise FormulaError("finite table needs at least one entry")
        last = 0
        total = 0.0
        for k, m in entries:
            if k <= last:
                raise FormulaError("table steps must be positive and strictly increasing")
            if not (0.0 <= m <= 1.0):
                raise FormulaError(f"table mass {m} outside [0,1]")
            last = k
            total += m
        if total > 1.0 + TABLE_MASS_TOL:
            raise FormulaError(f"table mass sums to {total} > 1")
        self._set(entries)

    def pmf(self, k):
        for step, m in self.entries:
            if step == k:
                return m
        return 0.0

    def tail(self, T):
        acc = 1.0
        for step, m in self.entries:
            if step <= T:
                acc -= m
        if acc <= TABLE_MASS_TOL and not any(
                m for step, m in self.entries if step > T):
            return 0.0
        return max(acc, 0.0)

    @property
    def max_step(self) -> int:
        return self.entries[-1][0]

    @property
    def never_mass(self) -> float:
        """Mass never assigned to a finite step (the floor of every tail)."""
        return self.tail(self.max_step)

    def __str__(self):
        body = ",".join(f"{k}:{m!r}" for k, m in self.entries)
        return f"table:{body}"


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

class _Window(NamedTuple):
    lo: int
    hi: int | None


class Interval(_Window):
    """Discrete time window [lo, hi]; hi=None means unbounded.  A tuple, so
    that the interning keys of the nodes holding one hash in C."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int | None):
        if lo < 0:
            raise FormulaError(f"interval lower bound {lo} negative")
        if hi is not None and hi < lo:
            raise FormulaError(f"interval [{lo},{hi}] has hi < lo")
        return tuple.__new__(cls, (lo, hi))

    @property
    def bounded(self) -> bool:
        return self.hi is not None

    def __str__(self):
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo},{hi}]"


# (class, *fields) -> weak reference to the one live node with those fields;
# unlocked, so formulas are built from one thread at a time
_NODES: dict[tuple, weakref.KeyedRef] = {}


def _forget(ref):
    # the entry may already name a newer node built after this one died
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


def _interned(key: tuple) -> "Formula":
    """The live node for ``key == (cls, *field values)``, built if none is."""
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = object.__new__(key[0])
    node._set(*key[1:])
    _NODES[key] = weakref.KeyedRef(node, _forget, key)
    return node


class Formula(Record):
    """Base class of the immutable syntax nodes.

    Nodes are hash-consed: constructing a node whose class and fields equal
    those of a live node returns that node.  Equality is therefore
    identity, hashing is by identity, and comparing or hashing a node never
    walks its subtree.  The intern table holds nodes weakly, so a node lives
    exactly as long as something else refers to it.  Each subclass lists its
    fields, in constructor order, as its ``__slots__``, as a `Record` does;
    copies and unpickled nodes go through the constructor, so they come
    back as the interned node itself.  The fields holding nodes are its
    children.  `subformulas` (pre-order) and `map_children` (rebuild with
    each child mapped) read the children from those fields, so a walk that
    treats most nodes alike names no node's children.
    """

    __slots__ = ("_pretty", "__weakref__")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __str__(self):
        return pretty(self)


class TrueF(Formula):
    __slots__ = ()

    def __new__(cls):
        return _interned((cls,))


class FalseF(Formula):
    __slots__ = ()

    def __new__(cls):
        return _interned((cls,))


TRUE = TrueF()
FALSE = FalseF()


class Atom(Formula):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _interned((cls, name))


class Not(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand: Formula):
        return _interned((cls, operand))


class And(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return _interned((cls, left, right))


class Or(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return _interned((cls, left, right))


class Until(Formula):
    """left U right, optionally within `interval`; None means untimed, and
    [0,inf] is stored as None."""

    __slots__ = ("left", "right", "interval")

    def __new__(cls, left: Formula, right: Formula,
                interval: Interval | None = None):
        if interval is not None and interval.lo == 0 and interval.hi is None:
            interval = None
        return _interned((cls, left, right, interval))


class DistEventually(Formula):
    """External event `event` first occurs at a time distributed as `dist`."""

    __slots__ = ("event", "dist")

    def __new__(cls, event: str, dist: DistributionSpec):
        return _interned((cls, event, dist))


def eventually(phi: Formula, interval: Interval | None = None) -> Until:
    return Until(TRUE, phi, interval)


def subformulas(f: Formula):
    """Every node of `f` in pre-order: a parent before its children, and
    children in field order (left before right, as the text names them)."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        for name in reversed(type(g).__slots__):
            child = getattr(g, name)
            if isinstance(child, Formula):
                stack.append(child)


def map_children(f: Formula, fn) -> Formula:
    """`f` rebuilt, through its interning constructor, with `fn` applied to
    each child; a leaf comes back as itself."""
    fields = []
    for name in type(f).__slots__:
        value = getattr(f, name)
        fields.append(fn(value) if isinstance(value, Formula) else value)
    return type(f)(*fields)


# ---------------------------------------------------------------------------
# Event sets
# ---------------------------------------------------------------------------

def env_subsets(pending) -> list[frozenset[str]]:
    """The outcomes of one step: every subset of the pending events, by
    size, then by sorted names."""
    names = sorted(pending)
    return [frozenset(c) for k in range(len(names) + 1)
            for c in combinations(names, k)]


def mask_subsets(names) -> list[frozenset[str]]:
    """Every subset of `names` by bit mask: subset m holds ``names[i]``
    for each bit i set in m."""
    return [frozenset(n for i, n in enumerate(names) if m >> i & 1)
            for m in range(1 << len(names))]


class EventSet(Record):
    """Ordered external-event names with their occurrence distributions."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[str, DistributionSpec], ...]):
        self._set(entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def dist(self, name: str) -> DistributionSpec:
        for n, d in self.entries:
            if n == name:
                return d
        raise KeyError(name)

    def __contains__(self, name):
        return any(n == name for n, _ in self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @classmethod
    def from_formula(cls, f: Formula) -> "EventSet":
        """Collect the distribution-eventuality events, in syntactic order."""
        found: dict[str, DistributionSpec] = {}
        for g in subformulas(f):
            if isinstance(g, DistEventually):
                found.setdefault(g.event, g.dist)
        return cls(tuple(found.items()))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<dist>D\{[^}]*\})
  | (?P<ident>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<int>\d+)
  | (?P<sym>[!&|()\[\],])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"true", "false", "U", "F"}

# the deepest nesting `parse` accepts: parenthesized or operand levels, and
# nodes on a path of the formula; the parser spends up to 4 stack frames per
# level, `pretty` 3, and the other walks over formulas at most 2
MAX_FORMULA_DEPTH = 200
_TOO_DEEP = f"formula nested deeper than {MAX_FORMULA_DEPTH} levels"


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - line_start + 1)
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, tok, line, m.start() - line_start + 1))
        line += tok.count("\n")
        if "\n" in tok:
            line_start = m.start() + tok.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


def parse_distribution(body: str) -> DistributionSpec:
    """Parse the payload of a D{...} annotation."""
    if body.startswith("geom:"):
        try:
            p = float(body[5:])
        except ValueError:
            raise FormulaError(f"bad geometric parameter {body[5:]!r}") from None
        return Geometric(p)
    if body.startswith("table:"):
        entries = []
        for chunk in body[6:].split(","):
            parts = chunk.split(":")
            if len(parts) != 2:
                raise FormulaError(f"bad table entry {chunk!r}")
            try:
                entries.append((int(parts[0]), float(parts[1])))
            except ValueError:
                raise FormulaError(f"bad table entry {chunk!r}") from None
        return FiniteTable(tuple(entries))
    raise FormulaError(f"unknown distribution reference {body!r}")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def expect_sym(self, sym):
        tok = self.next()
        if tok.kind != "sym" or tok.text != sym:
            self.error(f"expected {sym!r}, found {tok.text!r}", tok)
        return tok

    def parse(self):
        f = self.parse_or(0)
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"unexpected trailing input {tok.text!r}")
        if _height(f) > MAX_FORMULA_DEPTH:
            raise FormulaError(_TOO_DEEP)
        return f

    # `depth` counts the operands and parentheses the text has opened
    # around the one being parsed; past MAX_FORMULA_DEPTH it is refused
    # before this parser recurses any further
    def parse_or(self, depth):
        f = self.parse_and(depth)
        while self.peek().kind == "sym" and self.peek().text == "|":
            self.next()
            f = Or(f, self.parse_and(depth))
        return f

    def parse_and(self, depth):
        f = self.parse_until(depth)
        while self.peek().kind == "sym" and self.peek().text == "&":
            self.next()
            f = And(f, self.parse_until(depth))
        return f

    def parse_until(self, depth):
        f = self.parse_unary(depth)
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "U":
            self.next()
            interval = self.parse_bound_opt()
            # right associative: a U b U c == a U (b U c)
            return Until(f, self.parse_until(depth + 1), interval)
        return f

    def parse_bound_opt(self):
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "[":
            self.next()
            lo = self.parse_int()
            self.expect_sym(",")
            hi_tok = self.next()
            if hi_tok.kind == "ident" and hi_tok.text == "inf":
                hi = None
            elif hi_tok.kind == "int":
                hi = int(hi_tok.text)
            else:
                self.error(f"expected integer or inf, found {hi_tok.text!r}", hi_tok)
            self.expect_sym("]")
            if hi is not None and lo >= hi:
                self.error(f"interval [{lo},{hi}] is singular or empty", tok)
            return Interval(lo, hi)
        return None

    def parse_int(self):
        tok = self.next()
        if tok.kind != "int":
            self.error(f"expected integer, found {tok.text!r}", tok)
        return int(tok.text)

    def parse_unary(self, depth):
        if depth > MAX_FORMULA_DEPTH:
            self.error(_TOO_DEEP)
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "!":
            self.next()
            return Not(self.parse_unary(depth + 1))
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            f = self.parse_or(depth + 1)
            self.expect_sym(")")
            return f
        if tok.kind == "dist":
            self.next()
            try:
                dist = parse_distribution(tok.text[2:-1])
            except FormulaError as exc:
                self.error(str(exc), tok)
            ev = self.next()
            if ev.kind != "ident" or ev.text in _KEYWORDS:
                self.error("distribution eventuality must apply to an event name", ev)
            return DistEventually(ev.text, dist)
        if tok.kind == "ident":
            if tok.text == "true":
                self.next()
                return TRUE
            if tok.text == "false":
                self.next()
                return FALSE
            if tok.text == "F":
                self.next()
                interval = self.parse_bound_opt()
                # the operand may chain an until: F a U b == F (a U b)
                return eventually(self.parse_until(depth + 1), interval)
            if tok.text == "U":
                self.error("until operator needs a left operand", tok)
            self.next()
            return Atom(tok.text)
        self.error(f"expected a formula, found {tok.text!r}", tok)


def parse(text: str) -> Formula:
    """Parse formula text into an AST.  Inverse of :func:`pretty`.

    A formula nested deeper than `MAX_FORMULA_DEPTH` is refused, so that
    no walk of the parser or of the modules that read formulas recurses
    past Python's default recursion limit of 1000 frames."""
    return _Parser(_tokenize(text)).parse()


def _height(f: Formula) -> int:
    """The number of nodes on the longest path from `f` to a leaf, found
    without recursion: in reversed pre-order, children precede parents."""
    height: dict[Formula, int] = {}
    for g in reversed(list(subformulas(f))):
        children = (getattr(g, name) for name in type(g).__slots__)
        height[g] = 1 + max((height[c] for c in children
                             if isinstance(c, Formula)), default=0)
    return height[f]


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {"or": 1, "and": 2, "until": 3, "unary": 4, "atom": 5}


def _prec(f: Formula) -> int:
    if isinstance(f, Or):
        return _PREC["or"]
    if isinstance(f, And):
        return _PREC["and"]
    if isinstance(f, Until) and not isinstance(f.left, TrueF):
        return _PREC["until"]
    if isinstance(f, (Not, DistEventually)) or (
            isinstance(f, Until) and isinstance(f.left, TrueF)):
        return _PREC["unary"]
    return _PREC["atom"]


def pretty(f: Formula) -> str:
    """Canonical text rendering; ``parse(pretty(f)) is f``.

    The text is cached on the node, so a node is rendered once however
    often it is printed or used as a sort key.
    """
    try:
        return f._pretty
    except AttributeError:
        text = _render(f)
        object.__setattr__(f, "_pretty", text)
        return text


def _render(f: Formula) -> str:
    def wrap(child, need):
        s = pretty(child)
        return f"({s})" if _prec(child) < need else s

    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + wrap(f.operand, _PREC["unary"] + 1)
    if isinstance(f, DistEventually):
        return f"D{{{f.dist}}} {f.event}"
    if isinstance(f, Until):
        bound = "" if f.interval is None else str(f.interval)
        if isinstance(f.left, TrueF):
            operand = pretty(f.right)
            if _prec(f.right) < _PREC["unary"]:
                operand = f"({operand})"
            return f"F{bound} {operand}"
        # keep U right associative in print: parenthesize an until on the
        # left, and any F-form too (a printed F swallows a following U)
        left = pretty(f.left)
        if _prec(f.left) <= _PREC["until"] or (
                isinstance(f.left, Until) and isinstance(f.left.left, TrueF)):
            left = f"({left})"
        right = pretty(f.right)
        if _prec(f.right) < _PREC["until"]:
            right = f"({right})"
        return f"{left} U{bound} {right}"
    if isinstance(f, And):
        return f"{wrap(f.left, _PREC['and'])} & {wrap(f.right, _PREC['and'] + 1)}"
    if isinstance(f, Or):
        return f"{wrap(f.left, _PREC['or'])} | {wrap(f.right, _PREC['or'] + 1)}"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class ValidationReport(Record):
    __slots__ = ("violations",)

    def __init__(self, violations: list[str] | None = None):
        self._set([] if violations is None else violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_fragment(f: Formula, u: EventSet) -> ValidationReport:
    """Check membership in the supported co-safety fragment.

    A negation may stand only on an atom once `timed_automata.canonical`
    has pushed it through double negations, constants, conjunctions and
    disjunctions; one walk over `f` tracks where each would stop.
    Violations reported: a negation that stops at an until or at a
    distribution eventuality, a distribution eventuality below a negated
    until or whose operand is not a declared external event, and
    duplicated or missing event references.  `parse` has already rejected
    singular or empty intervals.
    """
    report = ValidationReport()
    event_uses: dict[str, int] = {}

    def use(d):
        if d.event not in u:
            report.violations.append(
                f"distribution eventuality operand {d.event!r} is not a declared event")
        event_uses[d.event] = event_uses.get(d.event, 0) + 1

    def walk(g, flip, negated):
        # flip: an odd number of negations pushed down to g; negated: g is
        # below a negation that stopped at an until
        if isinstance(g, Not):
            walk(g.operand, not flip, negated)
        elif isinstance(g, (And, Or)):
            walk(g.left, flip, negated)
            walk(g.right, flip, negated)
        elif isinstance(g, Until):
            if flip:
                report.violations.append(
                    "negation over Until leaves the co-safety fragment")
                negated = True
            walk(g.left, False, negated)
            walk(g.right, False, negated)
        elif isinstance(g, DistEventually):
            if flip:
                # one fault, reported once: not again as "under negation"
                report.violations.append(
                    f"negated distribution eventuality on {g.event!r}")
            elif negated:
                report.violations.append(
                    f"distribution eventuality on {g.event!r} under negation")
            use(g)

    walk(f, False, False)
    for name in u.names:
        n = event_uses.get(name, 0)
        if n == 0:
            report.violations.append(f"declared event {name!r} never referenced")
        elif n > 1:
            report.violations.append(f"event {name!r} referenced {n} times")
    return report


def substitute_dist(f: Formula) -> Formula:
    """Replace every distribution eventuality with an untimed eventuality."""
    if isinstance(f, DistEventually):
        return eventually(Atom(f.event))
    return map_children(f, substitute_dist)


# ---------------------------------------------------------------------------
# Truncation points
# ---------------------------------------------------------------------------

class TruncationVector(NamedTuple):
    """Truncation points of the event clocks, in event declaration order,
    and of the window clocks ``win1, win2, ...`` of the bounded untils, in
    pre-order, plus the achieved event-tail bound.  The two kinds are kept
    apart, so an event may share a window clock's name."""

    events: tuple[tuple[str, int], ...]
    windows: tuple[tuple[str, int], ...]
    eps_achieved: float

    @property
    def points(self) -> tuple[tuple[str, int], ...]:
        """Both kinds merged, sorted by name."""
        return tuple(sorted(self.events + self.windows))

    def __str__(self):
        body = ", ".join(f"{name}={T}" for name, T in self.points)
        return f"{{{body}}} (eps_achieved={self.eps_achieved!r})"


def _minimal_T(d: DistributionSpec, eps: float) -> int:
    T = 0
    while d.tail(T) >= eps:
        if isinstance(d, FiniteTable) and T > d.max_step:
            raise FormulaError(
                f"distribution tail cannot fall below {eps}; "
                f"minimum achievable bound is {d.never_mass!r}")
        if isinstance(d, Geometric) and T > 10_000_000:
            raise FormulaError("geometric tail search exceeded 1e7 steps")
        T += 1
    return T


def _truncation(f: Formula, u: EventSet, event_T) -> TruncationVector:
    """The vector of `f`, in one walk: each event's clock truncated at
    ``event_T(name)``, and each bounded until's window clock ``win<n>``
    (numbered in pre-order) at its interval's upper bound.  The achieved
    bound is the largest tail of an event clock."""
    events: dict[str, int] = {}
    windows = []
    for g in subformulas(f):
        if isinstance(g, DistEventually):
            events.setdefault(g.event, event_T(g.event))
        elif isinstance(g, Until) and g.interval is not None and g.interval.bounded:
            windows.append((f"win{len(windows) + 1}", g.interval.hi))
    achieved = max((u.dist(n).tail(T) for n, T in events.items()), default=0.0)
    return TruncationVector(tuple(events.items()), tuple(windows), achieved)


def truncation_vector(f: Formula, u: EventSet, eps: float) -> TruncationVector:
    """Smallest per-event truncation points with tails below eps."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"error bound must be in (0,1), got {eps}")
    per_event = {name: _minimal_T(u.dist(name), eps) for name in u.names}
    return _truncation(f, u, per_event.__getitem__)


def uniform_truncation_vector(f: Formula, u: EventSet, T: int) -> TruncationVector:
    """Common truncation point T for every event clock."""
    if T < 0:
        raise ValueError("truncation point must be non-negative")
    return _truncation(f, u, lambda name: T)
