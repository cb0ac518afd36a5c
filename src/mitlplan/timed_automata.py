"""Timed words and the progression automaton.

:class:`ProgressionDta` is built from a formula by one-step progression,
one table entry at a time as steps read them; window bounds live inside
the location formulas, so it carries no clocks.  It is the automaton the
stochastic TA steps.  `run_dta` runs a word on any automaton with the
same stepping interface (`initial_config`, `step_config`,
`is_accepting`); the explicit-clock automata of the test suite
(``tests/_explicit_dta.py``) are run through it as oracles.

Time is discrete with unit steps: the word entry at index i carries
timestamp i, and `run_dta` reads the first symbol with zero elapsed time
and every later one a step after the one before.
"""

from __future__ import annotations

from typing import NamedTuple

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
    Record,
    TrueF,
    Until,
    pretty,
    subformulas,
)


class AutomatonError(ValueError):
    """Raised for malformed automata or automaton construction failures."""


# ---------------------------------------------------------------------------
# Timed words
# ---------------------------------------------------------------------------

class TimedWord(Record):
    """Finite unit-step word: symbol i is read at timestamp i."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[frozenset[str], ...]):
        object.__setattr__(self, "symbols", symbols)

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


# ---------------------------------------------------------------------------
# Formula progression
# ---------------------------------------------------------------------------

class _Progression:
    """Memo tables of one automaton build.

    Residuals are built by one step on canonical operands, `_combine`:
    the conjunction or disjunction of two canonical formulas is the
    product or union of their clause sets, absorbed and built as a
    canonical node once, with no intermediate node to canonicalize.
    Canonicalizing a conjunction or disjunction is the same step on its
    canonicalized operands.  A symbol is an integer mask over `bits`, the
    automaton's atom bits.  Each node keeps its support (the bits of its
    atoms), its residuals keyed by the mask restricted to that support,
    and, for an until, its window shifted down by one step, so a node
    over one atom is progressed at most twice.  Canonical forms, combine
    steps per (connective, left, right) and the clause set of every
    conjunction and disjunction the step builds, which a later step reads
    instead of walking the node again, are memoized for as long as the
    context lives.  Clauses are interned in a pool, with the conjunction
    node of each, so a clause shared by many clause sets is stored and
    built once.  An automaton owns one context and drops it once its
    table is closed, so nothing at module level outlives a build; sort
    keys are the ``pretty`` text cached on each node.
    """

    def __init__(self):
        self.bits: dict[str, int] = {}
        self.canonical_forms: dict[Formula, Formula] = {}
        # node -> (support, {mask & support: residual}, shifted until)
        self.nodes: dict[Formula, tuple[int, dict[int, Formula],
                                        Formula | None]] = {}
        self.combined: dict[tuple[bool, Formula, Formula], Formula] = {}
        self.clause_sets: dict[Formula, tuple[frozenset[Formula], ...]] = {}
        # clause -> (the pooled clause, its conjunction node)
        self.clause_pool: dict[frozenset[Formula],
                               tuple[frozenset[Formula], Formula]] = {}

    def canonical(self, f: Formula) -> Formula:
        got = self.canonical_forms.get(f)
        if got is None:
            got = self._canonical_node(f)
            self.canonical_forms[f] = got
            self.canonical_forms[got] = got
        return got

    def clauses(self, g: Formula) -> tuple[frozenset[Formula], ...]:
        """Disjunctive normal form of a canonical formula.

        A formula maps to its clauses (disjuncts); each clause is a set of
        unit formulas (conjuncts): atoms, literals and untils.  A canonical
        conjunction or disjunction was built by `_combine` from its clause
        set, which is read back from the memo.  Never called on a constant:
        `_combine`, the only caller, returns first on `true` or `false`.
        """
        if isinstance(g, (And, Or)):
            return self.clause_sets[g]
        return (frozenset([g]),)

    def _canonical_node(self, f: Formula) -> Formula:
        canonical = self.canonical
        if isinstance(f, (TrueF, FalseF, Atom)):
            return f
        if isinstance(f, Not):
            # negation normal form in the same walk: a negation moves
            # through a double negation, a constant and, by De Morgan, a
            # conjunction or disjunction; on anything else it stays
            g = f.operand
            if isinstance(g, Not):
                return canonical(g.operand)
            if isinstance(g, (TrueF, FalseF)):
                return FALSE if g is TRUE else TRUE
            if isinstance(g, (And, Or)):
                return self._combine(isinstance(g, Or), canonical(Not(g.left)),
                                     canonical(Not(g.right)))
            return Not(canonical(g))
        if isinstance(f, Until):
            return _until(canonical(f.left), canonical(f.right), f.interval)
        if isinstance(f, (And, Or)):
            return self._combine(isinstance(f, And), canonical(f.left),
                                 canonical(f.right))
        if isinstance(f, Formula):
            raise FormulaError(f"cannot canonicalize {type(f).__name__}")
        raise TypeError(f"not a formula: {f!r}")

    def _combine(self, conj: bool, left: Formula, right: Formula) -> Formula:
        """Canonical form of ``left & right`` (`conj`) or ``left | right``
        of two canonical formulas: the product (conjunction) or union
        (disjunction) of their clause sets, absorbed, built as a node."""
        # both connectives are idempotent, the unit of the connective
        # leaves the other operand, and its zero wins
        if left is right:
            return left
        unit, zero = (TRUE, FALSE) if conj else (FALSE, TRUE)
        if left is unit or right is zero:
            return right
        if right is unit or left is zero:
            return left
        key = (conj, left, right)
        got = self.combined.get(key)
        if got is None:
            got = self.combined[key] = self._combine_clauses(
                conj, self.clauses(left), self.clauses(right))
        return got

    def _combine_clauses(self, conj: bool, left, right) -> Formula:
        if conj:
            clauses = {a | b for a in left for b in right}
        else:
            clauses = {*left, *right}
        # absorption: a clause implied by a smaller one is redundant; only
        # a shorter clause can be smaller, and one that a kept clause
        # absorbs absorbs nothing that clause does not; no clause is empty
        kept = []
        for c in sorted(clauses, key=len):
            if not any(k < c for k in kept):
                kept.append(c)
        pool = self.clause_pool
        kept = [pool.get(c) or self._conjunction(c) for c in kept]
        disjuncts = sorted((node for _, node in kept), key=pretty)
        acc = disjuncts[0]
        for g in disjuncts[1:]:
            acc = Or(acc, g)
        if isinstance(acc, (And, Or)):
            self.clause_sets[acc] = tuple(c for c, _ in kept)
        return acc

    def _conjunction(self, clause):
        """Pool `clause` with its units, sorted, as a left-nested
        conjunction."""
        units = sorted(clause, key=pretty)
        acc = units[0]
        for g in units[1:]:
            acc = And(acc, g)
        self.clause_pool[clause] = entry = (clause, acc)
        return entry

    def progress(self, f: Formula, mask: int) -> Formula:
        """One-step progression of a canonical formula on the symbol of
        bit mask `mask`; canonical."""
        support, memo, shifted = self.nodes.get(f) or self._node(f)
        mask &= support
        got = memo.get(mask)
        if got is None:
            got = memo[mask] = self._progress_node(f, mask, shifted)
        return got

    def _node(self, g: Formula) -> tuple:
        """The memo entry of `g`; an untimed until shifts to itself, and
        one whose window closes now to None."""
        nodes, node = self.nodes, self._node
        shifted = None
        if isinstance(g, Atom):
            bits = self.bits[g.name]
        elif isinstance(g, Not):
            bits = (nodes.get(g.operand) or node(g.operand))[0]
        elif isinstance(g, (And, Or, Until)):
            bits = ((nodes.get(g.left) or node(g.left))[0]
                    | (nodes.get(g.right) or node(g.right))[0])
            if isinstance(g, Until):
                iv = g.interval
                if iv is None:
                    shifted = g
                elif iv.hi != 0:
                    hi = None if iv.hi is None else iv.hi - 1
                    shifted = _until(g.left, g.right,
                                     Interval(max(iv.lo - 1, 0), hi))
        else:
            bits = 0
        entry = nodes[g] = (bits, {}, shifted)
        return entry

    def _progress_node(self, g: Formula, mask: int, shifted) -> Formula:
        progress, combine = self.progress, self._combine
        # the most frequent node kinds first
        if isinstance(g, (Or, And)):
            return combine(isinstance(g, And), progress(g.left, mask),
                           progress(g.right, mask))
        if isinstance(g, Until):
            if g.interval is not None and g.interval.lo > 0:
                # the left operand now, and g with its window shifted
                return combine(True, progress(g.left, mask), shifted)
            # the right operand now, or the left now and g shifted
            now = progress(g.right, mask)
            if shifted is None:
                return now
            return combine(False, now,
                           combine(True, progress(g.left, mask), shifted))
        if isinstance(g, Atom):
            return TRUE if mask else FALSE
        if isinstance(g, Not):
            if not isinstance(g.operand, Atom):
                raise FormulaError(
                    f"cannot progress negation over {type(g.operand).__name__}")
            return FALSE if mask else TRUE
        if isinstance(g, (TrueF, FalseF)):
            return g
        raise FormulaError(f"cannot progress {type(g).__name__}")


def _until(left: Formula, right: Formula, iv: Interval | None) -> Formula:
    """Canonical form of ``left U_iv right`` of canonical operands."""
    if isinstance(right, FalseF):
        return FALSE
    if isinstance(right, TrueF) and (iv is None or iv.lo == 0):
        return TRUE
    if isinstance(left, FalseF) and (iv is not None and iv.lo > 0):
        return FALSE
    return Until(left, right, iv)


def canonical(f: Formula) -> Formula:
    """Canonical form: residuals are flattened into a subsumption-reduced
    disjunction of conjunctions of temporal units, with operands sorted by
    a total structural order and constants absorbed.  Keeping residuals in
    this shape is what makes the progression closure finite.

    Negations are pushed down in the same walk, through double negations,
    constants and, by De Morgan, conjunctions and disjunctions; this walk
    is the package's one definition of negation normal form, and
    `validate_fragment` refuses a formula in which a negation would stop
    at an until or a distribution eventuality.  A conjunction or
    disjunction is canonicalized by the combine step of progression on
    its canonicalized operands, so residuals and canonical forms have one
    definition.  Memoized only within this call; a `ProgressionDta` keeps
    one memo until its table is closed.
    """
    return _Progression().canonical(f)


def progress(f: Formula, symbol) -> Formula:
    """Residual obligation after consuming `symbol` at the current step.

    TRUE means the prefix already satisfies the formula, FALSE that it
    already violates it.  The input must be distribution-free; it is
    canonicalized first, since progression combines the canonical
    residuals of canonical operands.  Results are canonical.  Names in
    `symbol` that the formula does not mention are ignored.  A
    `ProgressionDta` keeps its memo (`_Progression`) until its table is
    closed, which is what keeps closure construction cheap; this
    function memoizes only within the call.
    """
    memo = _Progression()
    g = memo.canonical(f)
    bits = memo.bits = {a: 1 << i for i, a in enumerate(formula_atoms(g))}
    return memo.progress(g, sum(bits[a] for a in bits.keys() & symbol))


def formula_atoms(f: Formula) -> set[str]:
    return {g.name for g in subformulas(f) if isinstance(g, Atom)}


# ---------------------------------------------------------------------------
# Automaton interface
# ---------------------------------------------------------------------------

class RunResult(NamedTuple):
    accepted: bool
    configs: list


def run_dta(dta, word: TimedWord) -> RunResult:
    """Run a finite word on an automaton: the configurations visited,
    initial first, and whether one accepts.  `dta` is a `ProgressionDta`,
    or any object with its `initial_config`, `step_config` and
    `is_accepting`, such as the explicit-clock oracles of the tests."""
    config = dta.initial_config()
    configs = [config]
    accepted = dta.is_accepting(config)
    for i, symbol in enumerate(word):
        # the first symbol is read at time 0, each later one a step after
        config = dta.step_config(config, frozenset(symbol), min(i, 1))
        configs.append(config)
        accepted = accepted or dta.is_accepting(config)
    return RunResult(accepted, configs)


# ---------------------------------------------------------------------------
# Progression automaton
# ---------------------------------------------------------------------------

LOCATION_CAP = 20000
# most propositions a progression automaton tracks: its table holds a row
# of 2**atoms entries per location
MAX_ATOMS = 16
# most table entries (locations times 2**atoms) a progression automaton
# holds, 256 MB of list slots: 512 locations at 16 atoms, 4 096 at 13
MAX_TABLE_ENTRIES = 1 << 25


class ProgressionDta:
    """Automaton whose locations are canonical residual formulas.

    Configs are integer location indices.  The transition table is total
    over subsets of the tracked atoms; symbols are restricted to the
    tracked atoms before lookup, so untracked propositions are ignored.

    The automaton starts with its initial location alone, and a table
    entry is computed by progression the first time a step reads it (the
    on-the-fly construction of Couvreur, FM 1999).  Locations are numbered
    in the order steps first reach them, and the table holds -1 where an
    entry is not computed yet.  `close` computes every entry.  Raises
    AutomatonError when the formula has more than `MAX_ATOMS`
    propositions, before anything of their size is allocated, and when
    more than `cap` locations are reached or their rows would hold more
    than `MAX_TABLE_ENTRIES` entries.
    """

    def __init__(self, phi_d: Formula, cap: int = LOCATION_CAP):
        self._memo = _Progression()
        init = self._memo.canonical(phi_d)
        self.atoms = tuple(sorted(formula_atoms(init)))
        if len(self.atoms) > MAX_ATOMS:
            raise AutomatonError(
                f"formula has {len(self.atoms)} propositions, more than "
                f"the {MAX_ATOMS} a progression automaton tracks")
        self._atom_bit = self._memo.bits = {
            a: 1 << i for i, a in enumerate(self.atoms)}
        self.cap = cap
        self.locations: list[Formula] = []
        self.table: list[list[int]] = []
        self._index: dict[Formula, int] = {}
        self.accept_index = -1
        self.reject_index = -1
        self.init_index = self._intern(init)

    def _intern(self, f: Formula) -> int:
        j = self._index.get(f)
        if j is None:
            if len(self.locations) >= self.cap:
                raise AutomatonError(
                    f"progression closure exceeded {self.cap} locations")
            row = 1 << len(self.atoms)
            if (len(self.locations) + 1) * row > MAX_TABLE_ENTRIES:
                raise AutomatonError(
                    f"progression table exceeded {MAX_TABLE_ENTRIES} entries "
                    f"({row} per location)")
            j = self._index[f] = len(self.locations)
            self.locations.append(f)
            self.table.append([-1] * row)
            if isinstance(f, TrueF):
                self.accept_index = j
            elif isinstance(f, FalseF):
                self.reject_index = j
        return j

    def _fill(self, i: int, mask: int) -> int:
        """Compute table entry (i, mask) by progression."""
        f = self._memo.progress(self.locations[i], mask)
        j = self.table[i][mask] = self._intern(f)
        return j

    def close(self) -> "ProgressionDta":
        """Compute every missing entry, rows in index order, and drop what
        only filling entries needs.  On a fresh automaton this is the
        breadth-first closure, so locations are numbered in discovery
        order."""
        if self._memo is None:
            return self
        fill, table = self._fill, self.table
        i = 0
        while i < len(table):
            for mask, j in enumerate(table[i]):
                if j < 0:
                    fill(i, mask)
            i += 1
        self._memo = self._index = None
        return self

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
        mask = self.mask_of(symbol)
        j = self.table[config][mask]
        if j < 0:
            j = self._fill(config, mask)
        return j

    def is_accepting(self, config):
        return config == self.accept_index

    def is_rejecting(self, config):
        return config == self.reject_index

    def edges(self):
        """Symbol-predicate edges of the closed automaton: (src, ascending
        list of masks, dst) grouped by destination."""
        out = []
        for i, row in enumerate(self.close().table):
            groups: dict[int, list[int]] = {}
            for mask, dst in enumerate(row):
                groups.setdefault(dst, []).append(mask)
            for dst, masks in sorted(groups.items()):
                out.append((i, masks, dst))
        return out


def build_dta(phi_d: Formula, cap: int = LOCATION_CAP) -> ProgressionDta:
    """Closure of one-step progression from the canonicalized formula.

    The automaton is closed before it is returned, with locations numbered
    breadth-first, and its progression memo is dropped: its locations and
    table are all that is kept of the build.  Raises AutomatonError when
    more than `cap` locations are discovered, which indicates the formula
    is outside the intended desk scale.
    """
    return ProgressionDta(phi_d, cap).close()


# `dta_to_dot` shows at most this many symbols on an edge
DOT_MAX_MASKS = 3


def dta_to_dot(dta: ProgressionDta) -> str:
    """GraphViz rendering of a progression automaton; mask groups are
    abbreviated on edges."""
    lines = ["digraph dta {", "  rankdir=LR;", '  node [shape=circle];']
    edges = dta.edges()
    for i, f in enumerate(dta.locations):
        shape = "doublecircle" if i == dta.accept_index else "circle"
        label = pretty(f).replace('"', "'")
        lines.append(f'  q{i} [shape={shape}, label="q{i}\\n{label}"];')
    for src, masks, dst in edges:
        if dst == dta.reject_index:
            continue
        shown = []
        for m in masks[:DOT_MAX_MASKS]:
            names = sorted(a for k, a in enumerate(dta.atoms) if m >> k & 1)
            shown.append("{" + ",".join(names) + "}")
        extra = ("" if len(masks) <= DOT_MAX_MASKS
                 else f" (+{len(masks) - DOT_MAX_MASKS})")
        lines.append(f'  q{src} -> q{dst} [label="{" ".join(shown)}{extra}"];')
    lines.append(f"  init [shape=point]; init -> q{dta.init_index};")
    lines.append("}")
    return "\n".join(lines) + "\n"
