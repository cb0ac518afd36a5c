"""Independent test oracles and reference implementations.

- a brute-force discrete-time satisfaction checker (witness enumeration,
  no progression machinery) and random generators for fragment formulas
  and words;
- negation normal form by its rewrite rules (`normalize`), which the
  canonical walk of `mitlplan.timed_automata` must agree with, and the
  fragment check as a walk over it (`nnf_violations`), which the
  polarity walk of `mitlplan.formula.validate_fragment` must reproduce;
- node-level progression (`ReferenceProgression`): the residual is built
  as a formula and then put in a canonical form computed from clause sets
  directly, which the progression memo of `ProgressionDta` must
  reproduce;
- the grid world one state at a time (`ReferenceGrid`), and the
  breadth-first compile of such a kernel (`compile_one_at_a_time`) that
  the array compile `build_gridworld` and the explicit compile of
  `load_game` must reproduce;
- the state-at-a-time product construction that the array-based one must
  reproduce, with the outcome code of an automaton state by rewriting
  (`reference_code`), which `StaModel.number`'s walk must reproduce, and
  `product_state`, which decodes a state of a product;
- the all-row sweep (`full_value_iteration`, `full_extract_policy`,
  `full_policy_evaluation` on `q_values`), which the live-row sweeps of
  `mitlplan.solver` must reproduce bit for bit;
- scalar loops that the numpy Bellman sweep of `mitlplan.solver`, the
  memo walk `mitlplan.simulator.rollout` and its batch rollouts must
  reproduce (`walk` samples from the plain CSR arrays), and a
  finite-horizon reachability oracle for the solver;
- a trajectory log renderer that decodes every visited product state,
  which the logs of `mitlplan.simulator.rollout` must reproduce;
- a Monte Carlo check of the truncation error bound.

None of this runs in the command line tool.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import reduce

import numpy as np

from mitlplan.simulator import (default_max_steps, splitmix_init,
                                splitmix_next, wilson_interval)
from mitlplan.formula import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    FALSE,
    TRUE,
    And,
    Atom,
    DistEventually,
    DistributionSpec,
    EventSet,
    FalseF,
    FiniteTable,
    Formula,
    Geometric,
    Interval,
    Not,
    Or,
    TrueF,
    Until,
    Until as until,
    env_subsets,
    map_children,
    pretty,
)
from mitlplan.game_model import (
    _DIRS,
    _LEFT,
    _RIGHT,
    GRID_ACTIONS,
    Game,
    GameError,
    GameState,
    build_gridworld,
)
from mitlplan.product_mdp import ProductError, ProductMdp, describe_spec_state
from mitlplan.solver import Policy, SolverError, ValueIterationResult
from mitlplan.stochastic_ta import StaError, StaModel, StaState
from mitlplan.timed_automata import canonical


def word_satisfies(f: Formula, word, i: int = 0) -> bool:
    """Does the finite word satisfy f at position i, witnesses in-word?"""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        return i < len(word) and f.name in word[i]
    if isinstance(f, Not):
        assert isinstance(f.operand, Atom)
        return i < len(word) and f.operand.name not in word[i]
    if isinstance(f, And):
        return word_satisfies(f.left, word, i) and word_satisfies(f.right, word, i)
    if isinstance(f, Or):
        return word_satisfies(f.left, word, i) or word_satisfies(f.right, word, i)
    if isinstance(f, Until):
        lo = 0 if f.interval is None else f.interval.lo
        hi = None if f.interval is None else f.interval.hi
        j_last = len(word) - 1 if hi is None else min(i + hi, len(word) - 1)
        for j in range(i + lo, j_last + 1):
            if word_satisfies(f.right, word, j) and all(
                    word_satisfies(f.left, word, k) for k in range(i, j)):
                return True
        return False
    raise TypeError(f"unsupported node {type(f).__name__}")


def random_fragment_formula(rng: random.Random, atoms, max_temporal: int = 3,
                            max_bound: int = 5) -> Formula:
    """Random formula from the supported co-safety fragment."""
    budget = rng.randint(1, max_temporal)

    def gen(temporal_left, depth):
        roll = rng.random()
        if depth > 4 or (temporal_left == 0 and roll < 0.6):
            a = Atom(rng.choice(atoms))
            return Not(a) if rng.random() < 0.3 else a
        if temporal_left > 0 and roll < 0.45:
            kind = rng.random()
            lo = rng.randint(0, max_bound - 1)
            hi = rng.randint(lo + 1, max_bound)
            if kind < 0.4:
                iv = Interval(lo, hi)
            elif kind < 0.6:
                iv = Interval(lo, None) if lo > 0 else None
            else:
                iv = None
            left = (TRUE if rng.random() < 0.5
                    else gen(temporal_left - 1, depth + 1))
            right = gen(temporal_left - 1, depth + 1)
            return until(left, right, iv)
        ctor = And if rng.random() < 0.5 else Or
        return ctor(gen(temporal_left, depth + 1),
                    gen(max(temporal_left - 1, 0), depth + 1))

    return gen(budget, 0)


def random_word(rng: random.Random, atoms, max_len: int):
    length = rng.randint(0, max_len)
    return [frozenset(a for a in atoms if rng.random() < 0.4)
            for _ in range(length)]


def normalize(f: Formula) -> Formula:
    """Push negations down to atoms where possible (negation normal form):
    a double negation cancels, a negated constant flips and De Morgan
    moves a negation through a conjunction or disjunction.  Negations
    stuck on temporal operators are left in place."""
    if isinstance(f, Not):
        g = f.operand
        if isinstance(g, Not):
            return normalize(g.operand)
        if isinstance(g, TrueF):
            return FALSE
        if isinstance(g, FalseF):
            return TRUE
        if isinstance(g, And):
            return Or(normalize(Not(g.left)), normalize(Not(g.right)))
        if isinstance(g, Or):
            return And(normalize(Not(g.left)), normalize(Not(g.right)))
        return Not(normalize(g))
    return map_children(f, normalize)


def nnf_violations(f: Formula, u: EventSet) -> list[str]:
    """The violations of the co-safety fragment found by a walk over
    `normalize(f)`, where every negation left off an atom is a fault, in
    the texts and order of `validate_fragment`."""
    violations = []
    event_uses: dict[str, int] = {}

    def use(d):
        if d.event not in u:
            violations.append(
                f"distribution eventuality operand {d.event!r} is not a declared event")
        event_uses[d.event] = event_uses.get(d.event, 0) + 1

    def walk(g, negated):
        if isinstance(g, Not):
            inner = g.operand
            if isinstance(inner, Atom):
                return
            if isinstance(inner, DistEventually):
                violations.append(
                    f"negated distribution eventuality on {inner.event!r}")
                use(inner)
                return
            violations.append(
                f"negation over {type(inner).__name__} leaves the co-safety fragment")
            walk(inner, True)
        elif isinstance(g, (And, Or, Until)):
            walk(g.left, negated)
            walk(g.right, negated)
        elif isinstance(g, DistEventually):
            if negated:
                violations.append(
                    f"distribution eventuality on {g.event!r} under negation")
            use(g)

    walk(normalize(f), False)
    for name in u.names:
        n = event_uses.get(name, 0)
        if n == 0:
            violations.append(f"declared event {name!r} never referenced")
        elif n > 1:
            violations.append(f"event {name!r} referenced {n} times")
    return violations


class ReferenceProgression:
    """One-step progression (Bacchus & Kabanza, AIJ 2000) one node at a
    time: the residual of a node is built as an ``And``, ``Or`` or
    ``Until`` of its children's residuals, and only the whole residual is
    put in canonical form.  The canonical form is computed here from
    clause sets (sets of sets of units, absorbed) with none of the memo
    tables or shortcuts of `mitlplan.timed_automata`.  Memoized per
    instance."""

    def __init__(self):
        self._clauses: dict[Formula, frozenset] = {}
        self._nodes: dict[frozenset, Formula] = {}
        self._residuals: dict[tuple[Formula, frozenset], Formula] = {}

    def canonical(self, f: Formula) -> Formula:
        clauses = self.clauses(f)
        got = self._nodes.get(clauses)
        if got is None:
            got = self._nodes[clauses] = self._node(clauses)
        return got

    @staticmethod
    def _node(clauses: frozenset) -> Formula:
        """Disjunction of conjunctions, each sorted by printed text and
        nested to the left."""
        if not clauses:
            return FALSE
        if frozenset() in clauses:
            return TRUE
        disjuncts = [reduce(And, sorted(c, key=pretty)) for c in clauses]
        return reduce(Or, sorted(disjuncts, key=pretty))

    def progress(self, f: Formula, symbol: frozenset) -> Formula:
        """Canonical residual of `f` after `symbol`."""
        return self.canonical(self.residual(f, symbol))

    def clauses(self, f: Formula) -> frozenset:
        """Disjuncts of `f`, each the set of its conjuncts (canonical
        atoms, literals and untils), none a superset of another."""
        got = self._clauses.get(f)
        if got is None:
            got = self._clauses[f] = self._clauses_of(f)
        return got

    def _clauses_of(self, f: Formula) -> frozenset:
        if isinstance(f, TrueF):
            return frozenset([frozenset()])
        if isinstance(f, FalseF):
            return frozenset()
        if isinstance(f, (And, Or)):
            left, right = self.clauses(f.left), self.clauses(f.right)
            if isinstance(f, And):
                every = {a | b for a in left for b in right}
            else:
                every = left | right
            return frozenset(c for c in every
                             if not any(other < c for other in every))
        unit = f
        if isinstance(f, Not):
            g = self.canonical(f.operand)
            if isinstance(g, TrueF):
                return frozenset()
            if isinstance(g, FalseF):
                return frozenset([frozenset()])
            if isinstance(g, Not):
                return self.clauses(g.operand)
            unit = Not(g)
        elif isinstance(f, Until):
            left, right = self.canonical(f.left), self.canonical(f.right)
            iv = f.interval
            if isinstance(right, FalseF) or (
                    isinstance(left, FalseF) and iv is not None and iv.lo > 0):
                return frozenset()
            if isinstance(right, TrueF) and (iv is None or iv.lo == 0):
                return frozenset([frozenset()])
            unit = Until(left, right, iv)
        return frozenset([frozenset([unit])])

    def residual(self, g: Formula, symbol: frozenset) -> Formula:
        """The residual of `g` after `symbol`, not canonicalized."""
        key = (g, symbol)
        got = self._residuals.get(key)
        if got is None:
            got = self._residuals[key] = self._residual_of(g, symbol)
        return got

    def _residual_of(self, g: Formula, symbol: frozenset) -> Formula:
        def step(h):
            return self.residual(h, symbol)

        if isinstance(g, (TrueF, FalseF)):
            return g
        if isinstance(g, Atom):
            return TRUE if g.name in symbol else FALSE
        if isinstance(g, Not):
            assert isinstance(g.operand, Atom)
            return FALSE if g.operand.name in symbol else TRUE
        if isinstance(g, And):
            return And(step(g.left), step(g.right))
        if isinstance(g, Or):
            return Or(step(g.left), step(g.right))
        if isinstance(g, Until):
            iv = g.interval
            if iv is None:
                return Or(step(g.right), And(step(g.left), g))
            if iv.lo > 0:
                hi = None if iv.hi is None else iv.hi - 1
                return And(step(g.left),
                           Until(g.left, g.right, Interval(iv.lo - 1, hi)))
            if iv.hi == 0:
                return step(g.right)
            return Or(step(g.right),
                      And(step(g.left),
                          Until(g.left, g.right, Interval(0, iv.hi - 1))))
        raise TypeError(f"unsupported node {type(g).__name__}")


def product_state(m: ProductMdp, z: int) -> tuple[GameState, StaState]:
    """The game state and the automaton state that product state z pairs."""
    return m.game.states[m.game_of[z]], m.spec_states[m.spec_of[z]]


def _false_atoms(f: Formula, names) -> Formula:
    """`f` with every atom named in `names` replaced by `false`."""
    if isinstance(f, Atom):
        return FALSE if f.name in names else f
    return map_children(f, lambda g: _false_atoms(g, names))


def reference_code(tsta, q: StaState) -> int:
    """Outcome code of automaton state `q` by rewriting: 2 for the
    truncation sink, or when the location with each fired event's atom
    replaced by `false` canonicalizes to `false`; 1 for an accepting
    location; else 0."""
    if q.sink:
        return 2
    fired = set(tsta.event_names) - q.pending
    f = tsta.dta.locations[q.config]
    if canonical(_false_atoms(f, fired)) is FALSE:
        return 2
    return int(tsta.dta.is_accepting(q.config))


def reference_product(kernel, tsta, cap: int = 2_000_000,
                      mark_lost: bool = True) -> ProductMdp:
    """Forward-reachable product construction, one state at a time: the
    dictionary-keyed search that `build_product` must agree with.  It
    walks a state-at-a-time `kernel` (`ReferenceGrid` or `TableKernel`)
    and numbers game states as the tables ``kernel.game`` do.

    The automaton consumes the label of the successor game state with a
    unit advance; the initial automaton state consumes the initial label
    with zero elapsed time and probability one.  Then, unless `mark_lost`
    is false, a live state from which no path reaches an accepting state
    (`cannot_accept`) gets code 2 and unit self-loops.
    """
    if set(kernel.events) != set(tsta.event_names):
        raise ProductError(
            f"event sets differ: game {sorted(kernel.events)} vs "
            f"automaton {sorted(tsta.event_names)}")
    s0 = kernel.initial
    q0, _ = tsta.initial(kernel.label(s0))
    z0 = (s0, q0)
    index: dict[tuple[GameState, StaState], int] = {z0: 0}
    states: list[tuple[GameState, StaState]] = [z0]
    rows: list[list[tuple[int, float]]] = []
    frontier = deque([0])
    expanded = 0

    def state_id(pair: tuple[GameState, StaState]) -> int:
        j = index.get(pair)
        if j is None:
            if len(states) >= cap:
                raise ProductError(f"product exceeded {cap} states")
            j = len(states)
            index[pair] = j
            states.append(pair)
            frontier.append(j)
        return j

    while frontier:
        z = frontier.popleft()
        s, q = states[z]
        expanded += 1
        if reference_code(tsta, q):
            for _ in kernel.actions:
                rows.append([(z, 1.0)])
            continue
        for action in kernel.actions:
            acc: dict[int, float] = {}
            for e in env_subsets(s.pending):
                for s2, pg in kernel.transitions(s, action, e):
                    q2, pq = tsta.step(q, kernel.label(s2))
                    p = pg * pq
                    if p <= 0.0:
                        continue
                    j = state_id((s2, q2))
                    acc[j] = acc.get(j, 0.0) + p
            if not acc:
                raise ProductError(
                    f"state {z} action {action!r} has no successors")
            rows.append(sorted(acc.items()))

    n_actions = len(kernel.actions)
    n_rows = len(states) * n_actions
    assert len(rows) == n_rows
    code = [reference_code(tsta, q) for _, q in states]
    if mark_lost:
        for z in cannot_accept(rows, code, n_actions):
            code[z] = 2
            rows[z * n_actions:(z + 1) * n_actions] = [[(z, 1.0)]] * n_actions
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    for r, row in enumerate(rows):
        row_ptr[r + 1] = row_ptr[r] + len(row)
    cols = np.empty(row_ptr[-1], dtype=np.int64)
    probs = np.empty(row_ptr[-1], dtype=np.float64)
    for r, row in enumerate(rows):
        base = row_ptr[r]
        for k, (j, p) in enumerate(row):
            cols[base + k] = j
            probs[base + k] = p
    code = np.array(code, dtype=np.int8)
    game_id = {s: i for i, s in enumerate(kernel.game.states)}
    spec_states = list(dict.fromkeys(q for _, q in states))
    spec_id = {q: i for i, q in enumerate(spec_states)}
    game_of = np.array([game_id[s] for s, _ in states], dtype=np.int64)
    spec_of = np.array([spec_id[q] for _, q in states], dtype=np.int64)
    return ProductMdp(kernel.game, tsta, spec_states, game_of, spec_of,
                      row_ptr, cols, probs, code)


def cannot_accept(rows, code, n_actions) -> list[int]:
    """The live states (code 0) from which no path of positive-weight
    edges reaches an accepting state (code 1), in increasing order: a
    breadth-first search backwards from the accepting states over the
    predecessor lists of `rows`, state z's rows being
    ``rows[z * n_actions:(z + 1) * n_actions]``."""
    preds: list[list[int]] = [[] for _ in code]
    for r, row in enumerate(rows):
        for j, p in row:
            if p > 0.0:
                preds[j].append(r // n_actions)
    seen = [c == 1 for c in code]
    queue = deque(z for z, c in enumerate(code) if c == 1)
    while queue:
        for z in preds[queue.popleft()]:
            if not seen[z]:
                seen[z] = True
                queue.append(z)
    return [z for z, c in enumerate(code) if c == 0 and not seen[z]]


# ---------------------------------------------------------------------------
# The grid world one state at a time
# ---------------------------------------------------------------------------

class ReferenceGrid:
    """The grid of a `GridWorldConfig` one state at a time: the kernel
    whose breadth-first compile (`compile_one_at_a_time`) gives the same
    states, labels and rows as `build_gridworld`, up to the ids.  `game`
    is that array compile."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.actions = GRID_ACTIONS
        self.events = tuple(name for name, _ in cfg.events)
        self.initial = GameState(cfg.start, frozenset(self.events),
                                 frozenset())
        self.game = build_gridworld(cfg)

    def label(self, s: GameState) -> frozenset[str]:
        return frozenset(atom for atom, cell in self.cfg.stations
                         if cell == s.robot) | s.occurred

    def motion(self, cell, action):
        """Successor cell distribution, wall bounces folded in."""
        accum: dict[tuple[int, int], float] = {}
        for direction, p in ((action, self.cfg.slip[0]),
                             (_LEFT[action], self.cfg.slip[1]),
                             (_RIGHT[action], self.cfg.slip[2])):
            if p == 0.0:
                continue
            dx, dy = _DIRS[direction]
            nx, ny = cell[0] + dx, cell[1] + dy
            if not (0 <= nx < self.cfg.width and 0 <= ny < self.cfg.height):
                nx, ny = cell
            accum[(nx, ny)] = accum.get((nx, ny), 0.0) + p
        return sorted(accum.items())

    def transitions(self, s, action, e):
        """Successor distribution for (s, action, outcome e), as an ordered
        list of (GameState, probability) with positive probabilities."""
        if action not in self.actions:
            raise GameError(f"unknown action {action!r}")
        if not e <= s.pending:
            raise GameError(f"environment outcome {sorted(e)} not enabled")
        pending = s.pending - e
        return [(GameState(cell, pending, frozenset(e)), p)
                for cell, p in self.motion(s.robot, action)]


class TableKernel:
    """The tables of a game read one state at a time: the successors of
    (s, action, outcome e) are the entries of the row of (s, action) whose
    state shows e as its occurred events."""

    def __init__(self, game: Game):
        self.game = game
        self.actions, self.events = game.actions, game.events
        self.initial = game.initial
        self._id = {s: i for i, s in enumerate(game.states)}

    def label(self, s: GameState) -> frozenset[str]:
        return self.game.labels[self.game.label_of[self._id[s]]]

    def transitions(self, s, action, e):
        g = self.game
        r = self._id[s] * len(self.actions) + self.actions.index(action)
        entries = range(g.row_ptr[r], g.row_ptr[r + 1])
        return [(g.states[g.succ[k]], float(g.prob[k])) for k in entries
                if g.states[g.succ[k]].occurred == e]


def compile_one_at_a_time(kernel) -> Game:
    """The states a state-at-a-time kernel reaches, as tables: numbered in
    breadth-first discovery order, a state's successors listed action by
    action, outcome by outcome (`env_subsets`), then in the order of
    `kernel.transitions`; it checks that each successor's label shows
    exactly the outcome among the events."""
    events = set(kernel.events)
    index = {kernel.initial: 0}
    states = [kernel.initial]
    label_index: dict[frozenset[str], int] = {}
    label_of = []
    shown = []          # the events each state's label shows

    def add_label(s):
        label = kernel.label(s)
        label_of.append(label_index.setdefault(label, len(label_index)))
        shown.append(label & events)

    add_label(kernel.initial)
    succ: list[int] = []
    prob: list[float] = []
    row_len: list[int] = []
    for s in states:        # grows while it is walked: breadth first
        outcomes = env_subsets(s.pending)
        for a in kernel.actions:
            start = len(succ)
            for e in outcomes:
                for s2, p in kernel.transitions(s, a, e):
                    j = index.get(s2)
                    if j is None:
                        j = index[s2] = len(states)
                        states.append(s2)
                        add_label(s2)
                    if shown[j] != e:
                        raise GameError(
                            f"label of {s2.brief()} shows "
                            f"{sorted(shown[j])}, outcome was {sorted(e)}")
                    succ.append(j)
                    prob.append(p)
            row_len.append(len(succ) - start)
    row_ptr = np.zeros(len(row_len) + 1, dtype=np.int64)
    np.cumsum(row_len, out=row_ptr[1:])
    return Game(
        actions=tuple(kernel.actions), events=tuple(kernel.events),
        states=tuple(states), labels=tuple(label_index),
        label_of=np.array(label_of, dtype=np.int64),
        row_ptr=row_ptr, succ=np.array(succ, dtype=np.int64),
        prob=np.array(prob, dtype=np.float64))


# ---------------------------------------------------------------------------
# Scalar kernels and the finite-horizon oracle
# ---------------------------------------------------------------------------

def bellman_sweep_loop(row_ptr, cols, probs, reward_row, absorbing, values,
                       n_actions):
    """Scalar reference for one sweep of `solver.value_iteration`: the new
    values and the max-norm residual."""
    n = values.shape[0]
    new_values = np.empty_like(values)
    residual = 0.0
    for z in range(n):
        if absorbing[z]:
            new_values[z] = 0.0
            continue
        best = -1.0
        for a in range(n_actions):
            r = z * n_actions + a
            q = reward_row[r]
            for k in range(row_ptr[r], row_ptr[r + 1]):
                q += probs[k] * values[cols[k]]
            if q > best:
                best = q
        new_values[z] = best
        diff = abs(best - values[z])
        if diff > residual:
            residual = diff
    return new_values, float(residual)


def q_values(m: ProductMdp, values: np.ndarray) -> np.ndarray:
    """Q(z, a) = R(z, a) + sum_z' P(z' | z, a) V(z') over every CSR row,
    absorbing states' unit self-loops included, one row per state."""
    q = m.reward_row + np.add.reduceat(m.probs * values[m.cols],
                                       m.row_ptr[:-1])
    return q.reshape(m.n_states, m.n_actions)


def full_value_iteration(m: ProductMdp, tol: float = DEFAULT_TOL,
                         max_iter: int = DEFAULT_MAX_ITER
                         ) -> ValueIterationResult:
    """Reference for `solver.value_iteration`: each sweep backs up every
    row of every state."""
    values = np.zeros(m.n_states)
    for it in range(1, max_iter + 1):
        new_values = q_values(m, values).max(axis=1)
        residual = float(np.abs(new_values - values).max())
        values = new_values
        if residual < tol:
            return ValueIterationResult(values, it, residual, True)
    return ValueIterationResult(values, max_iter, residual, False)


def full_extract_policy(m: ProductMdp, values: np.ndarray) -> Policy:
    """Reference for `solver.extract_policy`: the argmax of every row."""
    return Policy(np.argmax(q_values(m, values), axis=1).astype(np.int64),
                  m.actions, m.absorbing.copy())


def full_policy_evaluation(m: ProductMdp, policy: Policy, tol: float = 1e-12,
                           max_iter: int = 200_000) -> np.ndarray:
    """Reference for `solver.policy_evaluation`: each sweep backs up every
    row and keeps the one the policy follows at each state."""
    rows = policy.rows()
    values = np.zeros(m.n_states)
    for _ in range(max_iter):
        new_values = q_values(m, values).ravel()[rows]
        if np.abs(new_values - values).max() < tol:
            return new_values
        values = new_values
    raise SolverError("policy evaluation did not converge")


def sample_successor(cols, probs, u: float) -> int:
    """The successor of a CSR row that the uniform `u` selects: the first
    whose cumulative probability exceeds `u`, else the last."""
    acc = 0.0
    for c, p in zip(cols.tolist(), probs.tolist()):
        acc += p
        if u < acc:
            return c
    return int(cols[-1])


def walk(row_ptr, cols, probs, policy_row, accepting, sink, z, state,
         max_steps) -> tuple[int, list[int]]:
    """Scalar reference for `simulator.rollout`, on the plain CSR arrays:
    one rollout from state z that follows CSR row ``policy_row[z]`` at
    each state and draws from the splitmix64 stream at `state`, its
    outcome code and the states it visits, z first."""
    visited = [z]
    while True:
        if accepting[z]:
            return 1, visited
        if sink[z]:
            return 2, visited
        if len(visited) > max_steps:
            return 0, visited
        u, state = splitmix_next(state)
        r = policy_row[z]
        row = slice(row_ptr[r], row_ptr[r + 1])
        z = sample_successor(cols[row], probs[row], u)
        visited.append(z)


def rollout_batch_loop(row_ptr, cols, probs, policy_row, accepting, sink,
                       z0, n_rollouts, seed, max_steps):
    """Scalar reference for `simulator.rollout_batch_numpy`."""
    outcomes = np.zeros(n_rollouts, dtype=np.int8)
    for i in range(n_rollouts):
        outcomes[i], _ = walk(row_ptr, cols, probs, policy_row, accepting,
                              sink, z0, splitmix_init(seed, i), max_steps)
    return outcomes


def reference_log(m: ProductMdp, policy, seed: int,
                  max_steps: int | None = None) -> str:
    """The trajectory log of ``rollout(m, policy, seed, max_steps)``,
    rendered from a state decoded by `product_state` at every visited
    state."""
    if max_steps is None:
        max_steps = default_max_steps(m)
    code, visited = walk(m.row_ptr, m.cols, m.probs, policy.rows(),
                         m.accepting, m.sink, m.z0, splitmix_init(seed),
                         max_steps)

    def text(s, q):
        return f"({s.brief()}, {describe_spec_state(q)})"

    z_text = text(*product_state(m, m.z0))
    lines = [z_text]
    for z, nxt in zip(visited, visited[1:]):
        a_name = policy.action_name(z)
        s, q = product_state(m, nxt)
        nxt_text = text(s, q)
        lines.append(f"--{a_name}--> ({z_text}, {a_name})")
        lines.append(f"--e={{{','.join(sorted(s.occurred))}}}--> "
                     f"{nxt_text}")
        z_text = nxt_text
    lines.append(f"terminal: {('step-limit', 'accept', 'sink')[code]}")
    return "\n".join(lines) + "\n"


def brute_force_reach(m: ProductMdp, horizon: int) -> np.ndarray:
    """Exact maximal probability of entering an accepting state within
    `horizon` steps, by plain backward induction over the edge list (no
    shared sweep kernel, no early stopping)."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    n = m.n_states
    n_rows = n * m.n_actions
    edge_row = np.repeat(np.arange(n_rows), np.diff(m.row_ptr))
    enter_reward = m.accepting[m.cols].astype(np.float64)
    w = np.zeros(n)
    for _ in range(horizon):
        gain = m.probs * (enter_reward + w[m.cols])
        q = np.bincount(edge_row, weights=gain, minlength=n_rows)
        w = q.reshape(n, m.n_actions).max(axis=1)
        w[m.absorbing] = 0.0
    return w


# ---------------------------------------------------------------------------
# Monte Carlo check of the truncation error bound
# ---------------------------------------------------------------------------

@dataclass
class MonteCarloEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    hits: int
    samples: int


def sample_occurrence_steps(d: DistributionSpec, n: int, rng,
                            never: int) -> np.ndarray:
    """Sample n first-occurrence steps; `never` encodes 'no finite step'."""
    if isinstance(d, Geometric):
        return rng.geometric(d.p, size=n).astype(np.int64)
    if isinstance(d, FiniteTable):
        steps = [k for k, _ in d.entries] + [never]
        probs = [m for _, m in d.entries] + [d.never_mass]
        total = sum(probs)
        probs = [p / total for p in probs]
        return rng.choice(np.array(steps, dtype=np.int64), size=n, p=probs)
    raise StaError(f"cannot sample from {type(d).__name__}")


def truncation_error_estimate(m: StaModel, mt: StaModel, n: int, seed: int,
                              agent_prop_prob: dict[str, float] | None = None,
                              horizon: int | None = None
                              ) -> MonteCarloEstimate:
    """Monte Carlo estimate of P(word accepted by m and sunk by mt).

    Words are sampled by drawing each event's first-occurrence step from
    its distribution and filling the remaining propositions independently
    per step with the given probabilities (default: never true).  The
    truncation bound guarantees the true probability is below the achieved
    error bound regardless of the agent word generator.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    agent_prop_prob = agent_prop_prob or {}
    points = mt.points
    max_T = max(points.values(), default=0)
    if horizon is None:
        # long enough that a sink step fits inside the sampled words
        horizon = max_T + 16
    if horizon < 1:
        raise ValueError("horizon must be positive")
    never = 1 << 40

    rng = np.random.default_rng(seed)
    occ = {name: sample_occurrence_steps(m.events.dist(name), n, rng, never)
           for name in m.event_names}

    # the walk reads the table densely, so every entry must be computed
    dta = m.dta.close()
    table = np.asarray(dta.table, dtype=np.int64)
    atom_bit = {a: 1 << i for i, a in enumerate(dta.atoms)}
    agent_atoms = [a for a in dta.atoms if a not in m.event_names]

    loc = np.full(n, dta.init_index, dtype=np.int64)
    big = np.int64(1 << 40)
    first_accept = np.full(n, big, dtype=np.int64)
    for t in range(horizon):
        mask = np.zeros(n, dtype=np.int64)
        for name in m.event_names:
            bit = atom_bit.get(name, 0)
            if bit:
                mask |= np.where(occ[name] == t, bit, 0)
        for a in agent_atoms:
            q = agent_prop_prob.get(a, 0.0)
            if q > 0.0:
                mask |= np.where(rng.random(n) < q, atom_bit[a], 0)
        loc = table[loc, mask]
        if dta.accept_index >= 0:
            newly = (loc == dta.accept_index) & (first_accept == big)
            first_accept[newly] = t

    accepted = first_accept < big
    # first step at which a pending clock would exceed its cap
    t_sink = np.full(n, big, dtype=np.int64)
    for name in m.event_names:
        late = occ[name] > points[name]
        t_sink = np.where(late, np.minimum(t_sink, points[name] + 1), t_sink)
    sunk = (t_sink <= first_accept) & (t_sink <= horizon - 1)

    hits = int(np.count_nonzero(accepted & sunk))
    return MonteCarloEstimate(hits / n, *wilson_interval(hits, n), hits, n)
