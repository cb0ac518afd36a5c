"""Independent test oracles: a brute-force discrete-time satisfaction
checker (witness enumeration, no progression machinery), random
generators for fragment formulas and words, and the state-at-a-time
product construction that the array-based one must reproduce."""

from __future__ import annotations

import random
from collections import deque

import numpy as np

from mitlplan.formula import (
    TRUE,
    And,
    Atom,
    FalseF,
    Formula,
    Interval,
    Not,
    Or,
    TrueF,
    Until,
    until,
)
from mitlplan.game_model import env_subsets
from mitlplan.product_mdp import ProductError, ProductMdp, ProductState


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


def reference_product(game, tsta, cap: int = 2_000_000) -> ProductMdp:
    """Forward-reachable product construction, one state at a time: the
    dictionary-keyed search that `build_product` must agree with.

    The automaton consumes the label of the successor game state with a
    unit advance; the initial automaton state consumes the initial label
    with zero elapsed time and probability one.
    """
    if set(game.events) != set(tsta.event_names):
        raise ProductError(
            f"event sets differ: game {sorted(game.events)} vs "
            f"automaton {sorted(tsta.event_names)}")
    s0 = game.initial
    q0, p0 = tsta.initial(game.label(s0))
    if p0 != 1.0:
        raise ProductError("initial label claims an external event")
    z0 = ProductState(s0, q0)
    index: dict[ProductState, int] = {z0: 0}
    states: list[ProductState] = [z0]
    rows: list[list[tuple[int, float]]] = []
    frontier = deque([0])
    expanded = 0

    def state_id(ps: ProductState) -> int:
        j = index.get(ps)
        if j is None:
            if len(states) >= cap:
                raise ProductError(f"product exceeded {cap} states")
            j = len(states)
            index[ps] = j
            states.append(ps)
            frontier.append(j)
        return j

    while frontier:
        z = frontier.popleft()
        ps = states[z]
        expanded += 1
        if tsta.is_absorbing(ps.spec):
            for _ in game.actions:
                rows.append([(z, 1.0)])
            continue
        for action in game.actions:
            acc: dict[int, float] = {}
            for e in env_subsets(ps.game.pending):
                for s2, pg in game.transitions(ps.game, action, e):
                    q2, pq = tsta.step(ps.spec, game.label(s2))
                    p = pg * pq
                    if p <= 0.0:
                        continue
                    j = state_id(ProductState(s2, q2))
                    acc[j] = acc.get(j, 0.0) + p
            if not acc:
                raise ProductError(
                    f"state {z} action {action!r} has no successors")
            rows.append(sorted(acc.items()))

    n_actions = len(game.actions)
    n_rows = len(states) * n_actions
    assert len(rows) == n_rows
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
    accepting = np.zeros(len(states), dtype=bool)
    sink = np.zeros(len(states), dtype=bool)
    for z, ps in enumerate(states):
        if ps.spec.sink or tsta.is_rejecting(ps.spec):
            sink[z] = True
        elif tsta.is_accepting(ps.spec):
            accepting[z] = True
    compiled = game.compiled()
    game_id = {s: i for i, s in enumerate(compiled.states)}
    spec_states = list(dict.fromkeys(ps.spec for ps in states))
    spec_id = {q: i for i, q in enumerate(spec_states)}
    game_of = np.array([game_id[ps.game] for ps in states], dtype=np.int64)
    spec_of = np.array([spec_id[ps.spec] for ps in states], dtype=np.int64)
    return ProductMdp(game, tsta, spec_states, game_of, spec_of, row_ptr,
                      cols, probs, accepting, sink)
