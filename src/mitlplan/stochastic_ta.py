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
outcomes) to an absorbing, non-accepting sink.  That convention makes the
total sink mass of a single-event model equal the distribution tail at the
cap, which is the bound the truncation argument promises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import wilson_interval
from .formula import (
    DistributionSpec,
    EventSet,
    FiniteTable,
    Geometric,
    ZeroSurvivalError,
)
from .game_model import env_subsets
from .timed_automata import ProgressionDta, TimedWord


class StaError(ValueError):
    pass


@dataclass(frozen=True)
class StaState:
    """Automaton location plus event clocks and the pending set."""

    config: int | None
    clocks: tuple[int, ...]
    pending: frozenset[str]
    sink: bool = False


SINK = StaState(config=None, clocks=(), pending=frozenset(), sink=True)


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
    are truncated at its points as the module docstring says."""

    def __init__(self, dta: ProgressionDta, events: EventSet, trunc=None):
        self.dta = dta
        self.events = events
        self.event_names = tuple(events.names)
        self._dist = {name: d for name, d in events}
        self.trunc = trunc
        self.points = {}
        if trunc is not None:
            for name in self.event_names:
                if name not in trunc:
                    raise StaError(
                        f"missing truncation entry for event {name!r}")
                self.points[name] = trunc[name]

    def initial(self, symbol) -> tuple[StaState, float]:
        """Zero-time move consuming the initial symbol.

        No clock advances, so no event can occur yet; a symbol claiming an
        event at time zero gets probability 0.
        """
        symbol = frozenset(symbol)
        config = self.dta.step_config(self.dta.initial_config(), symbol, 0)
        state = StaState(config, (0,) * len(self.event_names),
                         frozenset(self.event_names))
        p = 0.0 if symbol & set(self.event_names) else 1.0
        return state, p

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
        e = symbol & set(self.event_names)
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

    def is_accepting(self, q: StaState) -> bool:
        return not q.sink and self.dta.is_accepting(q.config)

    def is_rejecting(self, q: StaState) -> bool:
        return not q.sink and self.dta.is_rejecting(q.config)

    def is_absorbing(self, q: StaState) -> bool:
        return q.sink or self.is_accepting(q) or self.is_rejecting(q)

    # -- monitoring ---------------------------------------------------------

    def run_word(self, word: TimedWord):
        """Run a finite word; returns (verdict, likelihood, states).

        verdict: 'accept' once an accepting location is visited, 'reject'
        when the residual can no longer be satisfied given the events that
        already fired, else 'inconclusive-prefix'.  The likelihood is the
        product of the step probabilities of the observed event pattern.
        A word the model cannot produce, one in which an event occurs twice
        or after its law has no mass left, raises StaError naming the step.
        """
        symbols = list(word)
        if not symbols:
            q, _ = self.initial(frozenset())
            verdict = "accept" if self.dta.is_accepting(self.dta.initial_config()) \
                else "inconclusive-prefix"
            return verdict, 1.0, [q]
        q, p = self.initial(symbols[0])
        likelihood = p
        states = [q]
        accepted = self.is_accepting(q)
        for symbol in symbols[1:]:
            try:
                q, p = self.step(q, symbol)
            except (StaError, ZeroSurvivalError) as exc:
                # states holds one state per symbol read so far
                raise StaError(f"word step {len(states)}: {exc}") from None
            likelihood *= p
            states.append(q)
            accepted = accepted or self.is_accepting(q)
        if accepted:
            return "accept", likelihood, states
        if self.is_rejecting(q) or not self._acceptance_reachable(q):
            return "reject", likelihood, states
        return "inconclusive-prefix", likelihood, states

    def _acceptance_reachable(self, q: StaState) -> bool:
        """Can any future (events firing at most once) reach acceptance?"""
        base_atoms = [a for a in self.dta.atoms if a not in self.event_names]
        base_symbols = [
            frozenset(a for i, a in enumerate(base_atoms) if mask >> i & 1)
            for mask in range(1 << len(base_atoms))]
        seen = set()
        stack = [(q.config, frozenset(q.pending))]
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


def _grown(a: np.ndarray, fill) -> np.ndarray:
    """`a` with as many rows again, at least 16, appended and set to `fill`."""
    extra = np.full((max(len(a), 16),) + a.shape[1:], fill, dtype=a.dtype)
    return np.concatenate([a, extra])


class StepTable:
    """`StaModel.step` as a table over (state id, label id) pairs.

    States get ids as they are first seen; `labels` fixes the label ids.
    Entries are filled on demand, one `step` call per pair.  Per state id
    the table also holds whether the state is accepting or a sink (the
    truncation sink or a rejecting location); a state is absorbing when it
    is either.
    """

    def __init__(self, sta: StaModel, labels):
        self.sta = sta
        self.labels = tuple(labels)
        self.states: list[StaState] = []
        self._index: dict[StaState, int] = {}
        self._next = np.full((0, len(self.labels)), -1, dtype=np.int64)
        self._prob = np.zeros((0, len(self.labels)))
        self._flags = np.zeros((0, 2), dtype=bool)

    @property
    def accepting(self) -> np.ndarray:
        return self._flags[:len(self.states), 0]

    @property
    def sink(self) -> np.ndarray:
        return self._flags[:len(self.states), 1]

    def intern(self, q: StaState) -> int:
        j = self._index.get(q)
        if j is not None:
            return j
        j = self._index[q] = len(self.states)
        self.states.append(q)
        if j == len(self._next):
            self._next = _grown(self._next, -1)
            self._prob = _grown(self._prob, 0.0)
            self._flags = _grown(self._flags, False)
        sink = q.sink or self.sta.is_rejecting(q)
        self._flags[j] = (not sink and self.sta.is_accepting(q), sink)
        return j

    def step(self, q_ids: np.ndarray, label_ids: np.ndarray):
        """Successor ids and step probabilities of the given pairs."""
        nxt = self._next[q_ids, label_ids]
        missing = np.flatnonzero(nxt < 0)
        if missing.size:
            n_labels = len(self.labels)
            # the distinct pairs in increasing order; plain `np.unique`
            # would import `numpy.ma` on its first call
            pairs = np.sort(q_ids[missing] * n_labels + label_ids[missing])
            pairs = pairs[np.diff(pairs, prepend=-1) != 0]
            for pair in pairs.tolist():
                q, lab = divmod(pair, n_labels)
                q2, p = self.sta.step(self.states[q], self.labels[lab])
                j = self.intern(q2)
                self._next[q, lab] = j
                self._prob[q, lab] = p
            nxt = self._next[q_ids, label_ids]
        return nxt, self._prob[q_ids, label_ids]


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
                         horizon: int | None = None) -> MonteCarloEstimate:
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
