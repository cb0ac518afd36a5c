"""Stochastic timed automata: automaton states augmented with pending-event
sets and event clocks, probabilistic outcomes, and clock truncation.

A state tracks which external events are still pending and, for each, an
event clock counting the steps elapsed since the start.  Each unit step the
environment resolves an outcome e (a subset of the pending events); its
probability is the product of per-event hazards::

    P(e) = prod_{a in e} h_a(t_a + 1) * prod_{b in pending \\ e} (1 - h_b(t_b + 1))

where h is the conditional first-occurrence probability.  Occurred events
have their clocks reset to zero and stopped.  Event random variables are
assumed mutually independent, which is exactly what the product form says.

Truncation caps every pending event clock at its truncation point: a step
that would push a pending clock past the cap redirects the whole step (all
outcomes) to an absorbing, non-accepting sink, the one state `SINK` with
``sink`` set.  That convention makes the total mass of that sink in a
single-event model equal the distribution tail at the cap, which is the
bound the truncation argument promises.

A `StaModel` numbers the states it reaches, once, when it first reaches
them (the on-the-fly construction of Couvreur, FM 1999), and keeps per id
the state and its outcome code; a state is a `StaState` named tuple,
which hashes and compares in C.  Outcome code 2 is wider than the
truncation sink: it also marks a lost state, whose location cannot hold
once the events that fired read false (`number`), so the product and
rollouts stop there (the automaton-level Prob0 states of Baier &
Katoen, *Principles of Model Checking*, 10.6.1).  Such a state's value
is 0, as the truncation sink's is, but its mass is not part of the
truncation tail.  The product build widens code 2 once more, to every
product state from which no path reaches acceptance
(`product_mdp.build_product`).  The product build and the word monitor
step the same ids through one memo (`StaModel.step_id`); the product's
numpy view of those steps is `product_mdp.StepTable`.  Like `formula`
and `timed_automata` beneath it, this module imports no numpy.
"""

from __future__ import annotations

from typing import NamedTuple

from .formula import (
    FALSE,
    And,
    Atom,
    EventSet,
    Formula,
    Or,
    Until,
    ZeroSurvivalError,
    env_subsets,
    mask_subsets,
)
from .timed_automata import ProgressionDta, TimedWord


class StaError(ValueError):
    pass


class StaState(NamedTuple):
    """Automaton location plus event clocks and the pending set."""

    config: int | None
    clocks: tuple[int, ...]
    pending: frozenset[str]
    sink: bool = False


SINK = StaState(config=None, clocks=(), pending=frozenset(), sink=True)


def _can_hold(f: Formula, fired, holds: dict) -> bool:
    """Whether the location formula `f` can still hold once every atom in
    `fired` reads false from now on: `false` cannot; an atom can if it has
    not fired; `&` needs both operands and `|` either; an until needs its
    right operand, and its left one too when its window opens later;
    `true` and a negated atom can.  `holds` keeps the answer per node for
    this `fired`, and the walk stops at a node it holds.  Found without
    recursion: in reversed pre-order, children precede parents."""
    order, stack = [], [f]
    while stack:
        g = stack.pop()
        if g not in holds:
            order.append(g)
            if isinstance(g, (And, Or, Until)):
                stack += (g.left, g.right)
    for g in reversed(order):
        if isinstance(g, Atom):
            h = g.name not in fired
        elif isinstance(g, And):
            h = holds[g.left] and holds[g.right]
        elif isinstance(g, Or):
            h = holds[g.left] or holds[g.right]
        elif isinstance(g, Until):
            iv = g.interval
            h = holds[g.right] and (iv is None or iv.lo == 0
                                    or holds[g.left])
        else:  # true, false or a negated atom
            h = g is not FALSE
        holds[g] = h
    return holds[f]


def _outcome_prob(haz: dict[str, float], e) -> float:
    """Probability that exactly the events of `e` occur at the next step.

    `haz` maps each pending event to its hazard, in event declaration
    order.  The product is taken in that order, not in the iteration order
    of a set of names, which varies with the string hash seed and would
    move the last digits of the result between runs.
    """
    p = 1.0
    for name, h in haz.items():
        p *= h if name in e else 1.0 - h
    return p


class StaModel:
    """Progression automaton of the formula plus one clock per external
    event, each running until its event fires.  Given `trunc`, clocks
    are truncated at its points as the module docstring says.  The model
    numbers the states that `step_id` reaches, for the product build and
    `run_word` alike; `initial` and `step` keep nothing."""

    def __init__(self, dta: ProgressionDta, events: EventSet, trunc=None):
        self.dta = dta
        self.events = events
        self.event_names = tuple(events.names)
        self._event_set = frozenset(self.event_names)
        # the propositions a step reads; it ignores every other one
        self.reads = frozenset(dta.atoms) | self._event_set
        self._dist = {name: d for name, d in events}
        self.trunc = trunc
        # `_ids` numbers the states reached (`number`); `states` and
        # `codes` hold, per id, the state and its outcome code
        # (`product_mdp.OUTCOMES`).  `_succ`: (id, symbol & `reads`) ->
        # (successor id, probability), with id -1 before the first symbol;
        # `_reach`: (config, pending) -> `_acceptance_reachable`, which
        # end verdicts read; `_holds`: fired events -> {formula node:
        # whether it can hold} (`_lost`)
        self._ids: dict[StaState, int] = {}
        self.states: list[StaState] = []
        self.codes: list[int] = []
        self._succ: dict = {}
        self._reach: dict = {}
        self._holds: dict = {}
        self.points = {}
        if trunc is not None:
            caps = dict(trunc.events)
            for name in self.event_names:
                if name not in caps:
                    raise StaError(
                        f"missing truncation entry for event {name!r}")
                self.points[name] = caps[name]

    def initial(self, symbol) -> tuple[StaState, float]:
        """Zero-time move consuming the initial symbol, with probability 1.

        No clock advances, so no event can occur yet: a symbol holding an
        event raises StaError.
        """
        symbol = frozenset(symbol)
        e = symbol & self._event_set
        if e:
            raise StaError(f"events {sorted(e)} cannot occur at time 0")
        config = self.dta.step_config(self.dta.initial_config(), symbol, 0)
        return StaState(config, (0,) * len(self.event_names),
                        self._event_set), 1.0

    def hazards(self, q: StaState) -> dict[str, float]:
        """Per-pending-event occurrence probability for the next step,
        keyed in event declaration order."""
        out = {}
        for i, name in enumerate(self.event_names):
            if name in q.pending:
                out[name] = self._dist[name].hazard(q.clocks[i] + 1)
        return out

    def env_outcome_dist(self, q: StaState) -> dict[frozenset[str], float]:
        """Distribution over event outcomes e for the next unit step."""
        if q.sink:
            raise StaError("no outcomes from the sink state")
        haz = self.hazards(q)
        return {e: _outcome_prob(haz, e) for e in env_subsets(q.pending)}

    def would_sink(self, q: StaState) -> bool:
        """True when the next unit step pushes a pending clock past its
        cap; never without truncation."""
        if not self.points:
            return False
        for name, c in zip(self.event_names, q.clocks):
            if name in q.pending and c + 1 > self.points[name]:
                return True
        return False

    def step(self, q: StaState, symbol) -> tuple[StaState, float]:
        """One unit step consuming `symbol`; returns successor and its
        probability (the outcome probability of symbol's event part)."""
        if q.sink:
            return q, 1.0
        symbol = frozenset(symbol)
        e = symbol & self._event_set
        if not e <= q.pending:
            raise StaError(
                f"events {sorted(e - q.pending)} already occurred")
        p = _outcome_prob(self.hazards(q), e)
        if self.would_sink(q):
            return SINK, p
        # pending clocks advance; those of the events that occur reset
        clocks = tuple(0 if name in e else c + 1 if name in q.pending else c
                       for name, c in zip(self.event_names, q.clocks))
        config = self.dta.step_config(q.config, symbol, 1)
        return StaState(config, clocks, q.pending - e), p

    # -- state ids ----------------------------------------------------------

    def number(self, q: StaState) -> int:
        """The id of `q`, adding it, with its outcome code, if new: 2 for
        the truncation sink or a lost state, 1 for an accepting location,
        else 0.  A state is lost when its location cannot hold once the
        events that fired (``events - pending``) read false, since an
        event fires at most once (`_can_hold`); the rejecting location
        `false` is one.  Lost is memoized per (location node, fired
        events), and so is each node below it."""
        i = self._ids.get(q)
        if i is None:
            i = self._ids[q] = len(self.states)
            self.states.append(q)
            self.codes.append(2 if q.sink or self._lost(q.config, q.pending)
                              else 1 if self.dta.is_accepting(q.config)
                              else 0)
        return i

    def _lost(self, config: int, pending: frozenset[str]) -> bool:
        fired = self._event_set - pending
        holds = self._holds.get(fired)
        if holds is None:
            holds = self._holds[fired] = {}
        return not _can_hold(self.dta.locations[config], fired, holds)

    def step_id(self, i: int, symbol) -> tuple[int, float]:
        """`initial` (for id -1) or `step` from id `i` on `symbol`, as the
        successor's id and the probability, memoized in `_succ`.  A call
        that raises stores nothing."""
        key = (i, self.reads.intersection(symbol))
        hit = self._succ.get(key)
        if hit is None:
            q, p = (self.initial(key[1]) if i < 0
                    else self.step(self.states[i], key[1]))
            hit = self._succ[key] = (self.number(q), p)
        return hit

    # -- monitoring ---------------------------------------------------------

    def run_word(self, word: TimedWord):
        """Run a finite word; returns (verdict, likelihood, states).

        verdict: 'accept' once an accepting location is visited, 'reject'
        when the residual can no longer be satisfied given the events that
        already fired, else 'inconclusive-prefix'.  The likelihood is the
        product of the step probabilities of the observed event pattern.
        A word the model cannot produce, one in which an event occurs at
        step 0, twice, or after its law has no mass left, raises StaError
        naming the step.  states holds one state per symbol; the empty
        word is judged at the initial location, with every event pending.

        The model runs words as a precomputed monitor: it steps ids
        through `step_id`'s memo and judges a word that ends without
        having accepted by `_end_verdict`.  A long-lived model pays for
        each (state, symbol) pair once; the memos hold at most the states
        reachable within the longest word read, times 2^|atoms and
        events|, entries.
        """
        succ, reads, codes = self._succ, self.reads, self.codes
        i, likelihood, ids, accepted = -1, 1.0, [], False
        for symbol in word:
            hit = succ.get((i, reads.intersection(symbol)))
            if hit is None:
                try:
                    hit = self.step_id(i, symbol)
                except (StaError, ZeroSurvivalError) as exc:
                    # ids holds one id per symbol read so far
                    raise StaError(f"word step {len(ids)}: {exc}") from None
            i, p = hit
            likelihood *= p
            ids.append(i)
            accepted = accepted or codes[i] == 1
        states = [self.states[j] for j in ids]
        if i < 0:  # the empty word: the initial location, all pending
            i = self.number(StaState(self.dta.initial_config(),
                                     (0,) * len(self.event_names),
                                     self._event_set))
            accepted = codes[i] == 1
        if accepted:
            return "accept", likelihood, states
        return self._end_verdict(i), likelihood, states

    def _end_verdict(self, i: int) -> str:
        """Verdict of a word that ends at id `i` without having accepted:
        'reject' at outcome code 2, else as `_reach` says, which searches
        once per (location, pending) pair whether acceptance is reachable."""
        if self.codes[i] == 2:
            return "reject"
        config, _, pending, _ = self.states[i]
        reach = self._reach.get((config, pending))
        if reach is None:
            reach = self._reach[config, pending] = \
                self._acceptance_reachable(config, pending)
        return "inconclusive-prefix" if reach else "reject"

    def _acceptance_reachable(self, config, pending) -> bool:
        """Can any future (events firing at most once) reach acceptance?"""
        base_symbols = mask_subsets(
            [a for a in self.dta.atoms if a not in self.event_names])
        seen = set()
        stack = [(config, pending)]
        while stack:
            config, pending = stack.pop()
            if (config, pending) in seen:
                continue
            seen.add((config, pending))
            if self.dta.is_accepting(config):
                return True
            if self.dta.is_rejecting(config):
                continue
            for extra in env_subsets(pending):
                for base in base_symbols:
                    symbol = base | extra
                    stack.append((self.dta.step_config(config, symbol, 1),
                                  pending - extra))
        return False


def truncate(m: StaModel, trunc) -> StaModel:
    return StaModel(m.dta, m.events, trunc)
