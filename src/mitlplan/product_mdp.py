"""Product of a game model with a truncated stochastic timed automaton.

States pair a game state with an automaton state.  For a robot action a,
the successor weight of (s', h') is P(s' | s, a, e) * p where e is the
event part of s''s label and p the automaton's probability for consuming
that label.  Accepting product states (automaton accepted) and sink states
are absorbing with a unit self-loop per action; reaching an accepting
state earns reward one, so the optimal expected total reward is the
maximal satisfaction probability.  A sink (outcome code 2) is exactly a
state from which no sequence of actions reaches acceptance: the
automaton's sinks (clock truncation fired, or the automaton state is
lost: its location cannot hold once the events that fired read false,
see `StaModel.number`), whose successors the search does not expand,
and then every state that the graph search after the build
(`_cannot_accept`, Prob0) finds unable to reach an accepting state.
Those last keep their numbers and their place in the search, but their
rows become unit self-loops too; their values are 0 either way.

Only states reachable from the initial state are materialized.  Their
numbering is a contract that policy, value and product files rely on:
breadth-first discovery from the initial state (index 0), a state's
successors discovered in action order, then outcome order (`env_subsets`),
then the order of the game's transition rows; each CSR row lists its
successors by increasing index.  A row reaches each successor once, as
the game lists each of its successors once per row (`Game`).

`build_product` keeps that numbering with whole-array steps.  The game
comes as integer tables (`Game`, what both loaders of `game_model`
return).  The automaton's states are the ids of the `StaModel`, which
numbers and classifies each state once and memoizes its steps
(`StaModel.step_id`); `StepTable`, below, is a numpy view of those steps
over (id, label id) pairs.  A progression automaton computes only the
table entries the steps read, so its locations, the ``q<n>`` of
`describe_spec_state`, are numbered in the order steps of the shared
automaton reach them.  No product index depends on the automaton's ids
or locations.  The search expands one breadth-first layer at a time:
every successor of the layer is packed into an int64 key
``sta_id * n_game + game_id``, looked up among the sorted keys of the
known states, and the new keys get indices in order of first
occurrence.  States are stored as the two id arrays `game_of` and
`spec_of`, and each state's class as one int8 `outcome_code` (`OUTCOMES`
names its values; `StaModel.codes` holds them per automaton id, and
the Prob0 search raises the live ones it finds to 2).
Product files and trajectory logs print a state as the texts of its two
ids, which `ProductMdp.game_text` and `ProductMdp.spec_text` format once
per id.  `ProductMdp.log_state` and `ProductMdp.log_row` keep, per state
and per row a log reaches, what the memo walk `simulator.rollout` reads;
its test reference is `tests/_oracles.py::walk` on the CSR arrays.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

# `model_hash` takes the interpreter's builtin sha256, as `random` takes its
# sha512: `hashlib` would map OpenSSL's libcrypto into every process that
# builds a model, 3.6 MB of peak RSS.  The digests are the same.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .game_model import MAX_STATES, Game, concat_ranges
from .stochastic_ta import StaModel, StaState


class ProductError(ValueError):
    pass


STAY_ACTION = "stay"
# largest deviation of a row sum from one that `validate` accepts
ROW_SUM_TOL = 1e-10
# `to_dot` refuses products with more states than this
DOT_MAX_STATES = 200
# the name of each outcome code, as rollouts report it: a rollout that
# ends at a live state (code 0) ran out of steps
OUTCOMES = ("step-limit", "accept", "sink")


class ProductMdp:
    """Explicit reachable product with CSR transition storage.

    State z pairs game state ``game.states[game_of[z]]`` with automaton
    state ``spec_states[spec_of[z]]``.  Row r = z * n_actions + a holds the
    successor distribution of state z under action a.  `outcome_code`
    (int8) is the one record of each state's class: 0 live, 1 accepting,
    2 sink (acceptance unreachable), named by `OUTCOMES`; `accepting`,
    `sink` and `absorbing` (not live) are read off it once.  An absorbing
    state's rows are unit self-loops with reward 0 (reward is earned on
    entry), so values stay zero there.  The initial state is state 0.
    """

    def __init__(self, game: Game, sta: StaModel, spec_states, game_of,
                 spec_of, row_ptr, cols, probs, outcome_code):
        self.game = game
        self.sta = sta
        self.spec_states = tuple(spec_states)
        self.game_of = game_of
        self.spec_of = spec_of
        self.z0 = 0
        self.actions = tuple(game.actions)
        self.n_actions = len(self.actions)
        self.row_ptr = row_ptr
        self.cols = cols
        self.probs = probs
        self.outcome_code = outcome_code
        self.accepting = outcome_code == 1
        self.sink = outcome_code == 2
        self.absorbing = outcome_code != 0
        self.reward_row = self._reward_rows()
        # texts of game and automaton states by id, each formatted when it
        # is first read
        self._game_text: list[tuple[str, str] | None] = \
            [None] * len(game.states)
        self._spec_text: list[str | None] = [None] * len(self.spec_states)
        # log memos by product state and by CSR row, filled on first read
        self._log_state: dict[int, tuple[int, str, str]] = {}
        self._log_row: dict[int, tuple[list[int], list[float]]] = {}
        # memos of `simulator`: its default step budget, and the search
        # table of the last policy `estimate_success` ran, keyed by that
        # policy's rows (one entry, so a new policy replaces it)
        self._max_steps: int | None = None
        self._batch_table: tuple[np.ndarray, tuple] | None = None

    def _reward_rows(self) -> np.ndarray:
        acc = self.accepting[self.cols] * self.probs
        sums = np.add.reduceat(acc, self.row_ptr[:-1])
        # a row of an accepting state keeps reward 0: reward needs z not in F
        state_of_row = np.repeat(np.arange(self.n_states), self.n_actions)
        sums[self.absorbing[state_of_row]] = 0.0
        return sums

    @property
    def n_states(self) -> int:
        return len(self.game_of)

    @property
    def n_edges(self) -> int:
        return len(self.cols)

    def row(self, z: int, a: int) -> tuple[np.ndarray, np.ndarray]:
        r = z * self.n_actions + a
        sl = slice(self.row_ptr[r], self.row_ptr[r + 1])
        return self.cols[sl], self.probs[sl]

    def successors(self, z: int, a: int):
        cols, probs = self.row(z, a)
        return list(zip(cols.tolist(), probs.tolist()))

    def game_text(self, g: int) -> tuple[str, str]:
        """The ``brief()`` text of game state g and its occurred events,
        sorted and joined by commas."""
        text = self._game_text[g]
        if text is None:
            s = self.game.states[g]
            text = self._game_text[g] = (s.brief(),
                                         ",".join(sorted(s.occurred)))
        return text

    def spec_text(self, q: int) -> str:
        """`describe_spec_state` of automaton state q."""
        text = self._spec_text[q]
        if text is None:
            text = self._spec_text[q] = describe_spec_state(
                self.spec_states[q])
        return text

    def log_state(self, z: int) -> tuple[int, str, str]:
        """State z as a log reads it: its `outcome_code`, ``(brief, spec)``
        text and occurred-events text."""
        entry = self._log_state.get(z)
        if entry is None:
            brief, occurred = self.game_text(int(self.game_of[z]))
            code = self.outcome_code.item(z)
            spec = self.spec_text(int(self.spec_of[z]))
            entry = self._log_state[z] = (code, f"({brief}, {spec})", occurred)
        return entry

    def log_row(self, r: int) -> tuple[list[int], list[float]]:
        """The successors of CSR row r and their running sums, added left
        to right; they hold nothing of a policy."""
        entry = self._log_row.get(r)
        if entry is None:
            lo, hi = self.row_ptr[r:r + 2].tolist()
            sums = list(accumulate(self.probs[lo:hi].tolist()))
            entry = self._log_row[r] = (self.cols[lo:hi].tolist(), sums)
        return entry

    def validate(self):
        """Check that every row sums to one within `ROW_SUM_TOL`.

        The game and the automaton agree on the pending events at every
        state but a sink by construction: both start with every event
        pending, a successor reached with outcome e shows exactly e in its
        label, and `StaModel.step` removes exactly the events of the label.
        The tests check that agreement; this method does not."""
        row_sums = np.add.reduceat(self.probs, self.row_ptr[:-1])
        bad = np.argmax(np.abs(row_sums - 1.0))
        if abs(row_sums[bad] - 1.0) > ROW_SUM_TOL:
            raise ProductError(
                f"row {bad} sums to {row_sums[bad]!r}")

    def to_text(self, header: str = "") -> str:
        lines = ["# product-mdp"]
        if header:
            lines.append(f"# {header}")
        lines.append(f"# states {self.n_states} actions {self.n_actions} "
                     f"edges {self.n_edges}")
        lines.append(f"init {self.z0}")
        for z, (g, q, acc, sink) in enumerate(zip(
                self.game_of.tolist(), self.spec_of.tolist(),
                self.accepting.tolist(), self.sink.tolist())):
            lines.append(f"state {z} {self.game_text(g)[0]} "
                         f"{self.spec_text(q)}"
                         + " accepting" * acc + " sink" * sink)
        row_of_edge = np.repeat(np.arange(len(self.row_ptr) - 1),
                                np.diff(self.row_ptr))
        for r, z2, p in zip(row_of_edge.tolist(), self.cols.tolist(),
                            self.probs.tolist()):
            z, a = divmod(r, self.n_actions)
            lines.append(f"trans {z} {self.actions[a]} {z2} : {p!r}")
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        if self.n_states > DOT_MAX_STATES:
            raise ProductError(
                f"refusing DOT export beyond {DOT_MAX_STATES} states")
        lines = ["digraph product {", "  rankdir=LR;"]
        for z in range(self.n_states):
            shape = ("circle", "doublecircle", "box")[self.outcome_code[z]]
            lines.append(f'  z{z} [shape={shape}];')
        for z in range(self.n_states):
            if self.absorbing[z]:
                continue
            for a, name in enumerate(self.actions):
                for z2, p in self.successors(z, a):
                    lines.append(f'  z{z} -> z{z2} [label="{name}:{p:.4g}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _grown(a: np.ndarray, fill, n: int) -> np.ndarray:
    """`a` with rows set to `fill` appended, to max(n, 2 * len(a)) rows."""
    extra = np.full((max(n, 2 * len(a)) - len(a),) + a.shape[1:], fill,
                    dtype=a.dtype)
    return np.concatenate([a, extra])


class StepTable:
    """`StaModel.step_id` as a table over (state id, label id) pairs.

    The ids are the model's own; `labels` fixes the label ids.  Entries
    are filled on demand from `step_id`, whose memo serves a pair that
    an earlier product or monitored word already stepped.
    """

    def __init__(self, sta: StaModel, labels):
        self.sta = sta
        self.labels = tuple(labels)
        self._next = np.full((0, len(self.labels)), -1, dtype=np.int64)
        self._prob = np.zeros((0, len(self.labels)))

    def step(self, q_ids: np.ndarray, label_ids: np.ndarray):
        """Successor ids and step probabilities of the given pairs."""
        n = len(self.sta.states)
        if n > len(self._next):
            self._next = _grown(self._next, -1, n)
            self._prob = _grown(self._prob, 0.0, n)
        nxt = self._next[q_ids, label_ids]
        missing = np.flatnonzero(nxt < 0)
        if missing.size:
            n_labels = len(self.labels)
            pairs = _distinct(q_ids[missing] * n_labels + label_ids[missing])
            for pair in pairs.tolist():
                q, lab = divmod(pair, n_labels)
                self._next[q, lab], self._prob[q, lab] = self.sta.step_id(
                    q, self.labels[lab])
            nxt = self._next[q_ids, label_ids]
        return nxt, self._prob[q_ids, label_ids]


def describe_spec_state(q: StaState) -> str:
    if q.sink:
        return "(sink)"
    clocks = ",".join(str(c) for c in q.clocks)
    pend = "{" + ",".join(sorted(q.pending)) + "}"
    return f"(q{q.config}, [{clocks}], {pend})"


def build_product(game: Game, tsta: StaModel,
                  cap: int = MAX_STATES) -> ProductMdp:
    """Forward-reachable product construction, numbered as the module
    docstring states.

    The automaton consumes the label of the successor game state with a
    unit advance; the initial automaton state consumes the initial label
    with zero elapsed time and probability one.  Once every layer is
    expanded, the states that cannot reach acceptance become sinks
    (`_absorb_lost`).
    """
    if set(game.events) != set(tsta.event_names):
        raise ProductError(
            f"event sets differ: game {sorted(game.events)} vs "
            f"automaton {sorted(tsta.event_names)}")
    # the initial label holds no event, so `initial` has probability one
    q0, _ = tsta.step_id(-1, game.labels[game.label_of[0]])
    table = StepTable(tsta, game.labels)
    n_game = len(game.states)
    n_actions = len(game.actions)
    index = _KeyIndex(q0 * n_game)
    game_of = [np.zeros(1, dtype=np.int64)]
    spec_of = [np.full(1, q0, dtype=np.int64)]
    cols: list[np.ndarray] = []
    probs: list[np.ndarray] = []
    row_len: list[np.ndarray] = []
    bounds = [0]        # layer k holds states bounds[k]..bounds[k+1]-1
    lo, hi = 0, 1
    while lo < hi:
        # expand states lo..hi-1, the last ones numbered
        z = np.arange(lo, hi)
        live = np.array(tsta.codes, dtype=np.int8)[spec_of[-1]] == 0
        row, s2, q2, p = _live_successors(game, table, n_actions, z[live],
                                          game_of[-1][live],
                                          spec_of[-1][live])
        succ, new_keys = index.number(q2 * n_game + s2, hi)
        if hi + len(new_keys) > cap:
            raise ProductError(f"product exceeded {cap} states")
        game_of.append(new_keys % n_game)
        spec_of.append(new_keys // n_game)
        # absorbing states keep a unit self-loop under every action
        dead = z[~live]
        row = np.concatenate([row, _rows(dead, n_actions)])
        succ = np.concatenate([succ, np.repeat(dead, n_actions)])
        p = np.concatenate([p, np.ones(len(dead) * n_actions)])
        # no row is empty: a live row holds a non-empty game row of positive
        # weights per outcome, and the likeliest outcome keeps its weight
        counts = np.bincount(row - lo * n_actions,
                             minlength=(hi - lo) * n_actions)
        # rows in order, each by increasing successor, on one int64 key:
        # succ < n_known <= cap, which is MAX_STATES < 2**21 unless a
        # caller raises it, and row < n_known * n_actions, the length of
        # the row_ptr this build allocates, so the key stays below 2**63
        # for any row count under 2**42 (32 TiB of row_ptr)
        n_known = hi + len(new_keys)
        order = np.argsort(row * n_known + succ, kind="stable")
        cols.append(succ[order])
        probs.append(p[order])
        row_len.append(counts)
        bounds.append(hi)
        lo, hi = hi, hi + len(new_keys)

    game_of = np.concatenate(game_of)
    spec_of = np.concatenate(spec_of)
    code = np.array(tsta.codes, dtype=np.int8)[spec_of]
    _absorb_lost(code, bounds, cols, probs, row_len, n_actions)
    row_ptr = np.zeros(len(game_of) * n_actions + 1, dtype=np.int64)
    np.cumsum(np.concatenate(row_len), out=row_ptr[1:])
    return ProductMdp(game, tsta, tsta.states, game_of, spec_of, row_ptr,
                      np.concatenate(cols), np.concatenate(probs), code)


# layered sweeps of `_cannot_accept` before it turns to a backward search
PROB0_SWEEPS = 3


def _cannot_accept(code, bounds, cols, row_len, n_actions) -> np.ndarray:
    """The live states from which no path of positive-weight edges, under
    any actions, reaches an accepting state: Prob0, found by graph search
    (Baier & Katoen, *Principles of Model Checking*, 10.6.1), never from
    float values.

    `cols` and `row_len` hold the CSR edges and row lengths of each
    breadth-first layer.  A sweep backs up "can reach" over the layers,
    last layer first, so a state reads the sweep's own result for every
    successor in a later layer; a truncated model, whose clocks only
    grow, settles in a few sweeps.  If `PROB0_SWEEPS` sweeps still
    change something (an untimed eventuality needs one sweep per step),
    a backward breadth-first search over the edges of the states still
    unreached finishes the set."""
    reach = code == 1
    degree = [counts.reshape(-1, n_actions).sum(axis=1) for counts in row_len]
    first = [np.cumsum(d) - d for d in degree]
    for _ in range(PROB0_SWEEPS):
        changed = False
        for k in reversed(range(len(cols))):
            lo, hi = bounds[k], bounds[k + 1]
            got = np.logical_or.reduceat(reach[cols[k]], first[k])
            if (got > reach[lo:hi]).any():
                reach[lo:hi] |= got
                changed = True
        if not changed:
            return ~reach & (code == 0)
    open_ = ~reach & (code == 0)
    src, dst = [], []
    for k, d in enumerate(degree):
        z = np.flatnonzero(open_[bounds[k]:bounds[k + 1]])
        src.append(np.repeat(z + bounds[k], d[z]))
        dst.append(cols[k][concat_ranges(first[k][z], d[z])])
    src, dst = np.concatenate(src), np.concatenate(dst)
    front = _distinct(src[reach[dst]])
    order = np.argsort(dst)
    src, dst = src[order], dst[order]
    while front.size:
        reach[front] = True
        at = np.searchsorted(dst, front)
        count = np.searchsorted(dst, front, side="right") - at
        front = _distinct(src[concat_ranges(at, count)])
        front = front[~reach[front]]
    return ~reach & (code == 0)


def _absorb_lost(code, bounds, cols, probs, row_len, n_actions):
    """Give each live state that cannot reach acceptance
    (`_cannot_accept`) outcome code 2, and replace each of its rows,
    layer by layer in place, by the unit self-loop every absorbing state
    has.  Every value stays as it was, 0 at those states either way."""
    lost = _cannot_accept(code, bounds, cols, row_len, n_actions)
    code[lost] = 2
    for k, counts in enumerate(row_len):
        lo = bounds[k]
        gone = np.repeat(lost[lo:bounds[k + 1]], n_actions)
        if not gone.any():
            continue
        # each row of a lost state keeps its first entry, as the self-loop
        start = (np.cumsum(counts) - counts)[gone]
        cols[k][start] = lo + np.flatnonzero(gone) // n_actions
        probs[k][start] = 1.0
        keep = ~np.repeat(gone, counts)
        keep[start] = True
        cols[k], probs[k] = cols[k][keep], probs[k][keep]
        counts[gone] = 1


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of `a` in increasing order; plain `np.unique`
    would import `numpy.ma` on its first call."""
    a = np.sort(a)
    return a[np.diff(a, prepend=-1) != 0]


def _rows(z: np.ndarray, n_actions: int) -> np.ndarray:
    """The CSR rows of states z, action by action."""
    return (z[:, None] * n_actions + np.arange(n_actions)).ravel()


def _live_successors(g, table: StepTable, n_actions: int, z, gz, qz):
    """The successors with positive weight of states z, which pair game
    states gz with automaton states qz, in discovery order: their CSR rows,
    game ids, automaton ids and weights."""
    game_row = _rows(gz, n_actions)
    start = g.row_ptr[game_row]
    count = g.row_ptr[game_row + 1] - start
    entry = concat_ranges(start, count)
    s2 = g.succ[entry]
    q2, pq = table.step(np.repeat(np.repeat(qz, n_actions), count),
                        g.label_of[s2])
    p = g.prob[entry] * pq
    keep = p > 0.0
    row = np.repeat(_rows(z, n_actions), count)
    return row[keep], s2[keep], q2[keep], p[keep]


class _KeyIndex:
    """Product state indices by packed key, as sorted keys and the index
    of each.  It starts with the initial state's key, at index 0."""

    def __init__(self, key0: int):
        self.keys = np.full(1, key0, dtype=np.int64)
        self.z = np.zeros(1, dtype=np.int64)

    def number(self, key: np.ndarray, next_z: int):
        """The index of each key, numbering unknown keys from `next_z` in
        order of first occurrence; also returns those keys in that order."""
        at = np.searchsorted(self.keys, key)
        found = self.keys[np.minimum(at, len(self.keys) - 1)] == key
        z = np.empty(len(key), dtype=np.int64)
        z[found] = self.z[at[found]]
        new, first, inverse = np.unique(key[~found], return_index=True,
                                        return_inverse=True)
        rank = np.empty(len(new), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(new))
        z[~found] = next_z + rank[inverse]
        at = np.searchsorted(self.keys, new)
        self.keys = np.insert(self.keys, at, new)
        self.z = np.insert(self.z, at, next_z + rank)
        return z, new[np.argsort(first)]


def model_hash(formula_text: str, env_text: str, trunc) -> str:
    """Stable content hash binding a formula, environment, and truncation."""
    h = sha256()
    h.update(formula_text.encode())
    h.update(b"\x00")
    h.update(env_text.encode())
    h.update(b"\x00")
    h.update(str(trunc).encode())
    return h.hexdigest()[:16]
