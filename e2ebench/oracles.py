"""Independent output checks.

None of these reuse the code they check: formulas are judged by brute-force
witness search over the word, monitor likelihoods by the closed form of the
event laws, and rollout rates by a finite-horizon backward induction over
the product's transition rows.
"""

from __future__ import annotations

import math


def satisfies(f, word, i=0) -> bool:
    """Does the finite word satisfy tuple formula `f` at position i, with
    every witness inside the word?"""
    kind = f[0]
    if kind == "true":
        return True
    if kind == "atom":
        return i < len(word) and f[1] in word[i]
    if kind == "not":
        return i < len(word) and f[1] not in word[i]
    if kind == "and":
        return satisfies(f[1], word, i) and satisfies(f[2], word, i)
    if kind == "or":
        return satisfies(f[1], word, i) or satisfies(f[2], word, i)
    _, left, right, lo, hi = f
    last = len(word) - 1 if hi is None else min(i + hi, len(word) - 1)
    for j in range(i + lo, last + 1):
        if satisfies(right, word, j) and all(
                satisfies(left, word, k) for k in range(i, j)):
            return True
    return False


def mission_satisfied(buses, word) -> bool:
    """Some bus arrived at step k and its station was visited at a step in
    [k, k + deadline] (any later step when the deadline is None)."""
    for b in buses:
        for k, sym in enumerate(word):
            if b.event not in sym:
                continue
            last = len(word) - 1 if b.deadline is None else k + b.deadline
            if any(b.station in word[j]
                   for j in range(k, min(last, len(word) - 1) + 1)):
                return True
    return False


def mission_verdict(buses, word) -> str:
    """Expected monitor verdict.  A mission is a disjunction of positive
    obligations, so if any continuation satisfies it, the one-step
    continuation in which every pending bus arrives and every station is
    visited does; checking that single step decides 'reject'."""
    if mission_satisfied(buses, word):
        return "accept"
    fired = set().union(*word) if word else set()
    step = {b.station for b in buses}
    step |= {b.event for b in buses if b.event not in fired}
    if mission_satisfied(buses, list(word) + [frozenset(step)]):
        return "inconclusive-prefix"
    return "reject"


def geometric_pmf(p, k):
    return (1.0 - p) ** (k - 1) * p


def mission_likelihood(buses, word) -> float:
    """Product over buses of pmf(k) if the bus arrived at step k, else the
    probability it has not arrived by the word's last step."""
    out = 1.0
    for b in buses:
        k = next((i for i, sym in enumerate(word) if b.event in sym), None)
        if k is None:
            out *= (1.0 - b.p) ** (len(word) - 1)
        else:
            out *= geometric_pmf(b.p, k)
    return out


def finite_horizon_value(m, action_index, horizon) -> float:
    """Probability that the policy enters an accepting state within
    `horizon` steps from the initial state, by backward induction over the
    CSR rows of the policy's actions."""
    import numpy as np  # not at module level: set-up probes import this file

    n = len(m.accepting)
    rows = np.arange(n) * m.n_actions + np.asarray(action_index)
    starts, ends = m.row_ptr[rows], m.row_ptr[rows + 1]
    owner = np.repeat(np.arange(n), ends - starts)
    take = np.concatenate([np.arange(s, e) for s, e in zip(starts, ends)])
    cols, probs = m.cols[take], m.probs[take]
    w = m.accepting.astype(np.float64)
    for _ in range(horizon):
        nxt = np.bincount(owner, weights=probs * w[cols], minlength=n)
        nxt[m.accepting] = 1.0
        nxt[m.sink] = 0.0
        w = nxt
    return float(w[m.z0])


def pooled_rate_band(p, n, rates, sigmas=5.0):
    """Half-width for comparing the mean of independent batch rates (n
    rollouts each) with their exact success probability p, and the
    between-batch variance as a multiple of the binomial p(1-p)/n (None
    for one batch).  The standard error comes from that variance, so it
    holds when the rollouts inside a batch are correlated; it is never
    taken below the binomial one.  Half a count is added for
    discreteness."""
    binomial = p * (1.0 - p) / n
    b = len(rates)
    ratio = None
    if b > 1:
        mean = sum(rates) / b
        spread = sum((r - mean) ** 2 for r in rates) / (b - 1)
        ratio = spread / binomial if binomial > 0 else None
        binomial = max(binomial, spread)
    return sigmas * math.sqrt(binomial / b) + 0.5 / (n * b), ratio
