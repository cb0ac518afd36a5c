"""Seeded input generators for the end-to-end benchmark.

Every generator takes a `random.Random`, so one workload seed fixes every
input.  The program under test only ever sees the text these produce:
grid files, formula files and observed words.

Random formulas are plain tuples rather than `mitlplan.formula` nodes, so
the brute-force checker in `oracles.py` shares no code with the parser or
the progression construction it checks:

    ("atom", name) | ("not", name) | ("true",)
    ("and", left, right) | ("or", left, right)
    ("until", left, right, lo, hi)    # hi None: unbounded
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ATOMS = ("p", "q", "r")


# ---------------------------------------------------------------------------
# Random co-safety formulas (3 atoms, <= 3 temporal operators, bounds <= 5)
# ---------------------------------------------------------------------------

def random_formula(rng, atoms=ATOMS, max_temporal=3, max_bound=5):
    """Random formula of the supported fragment: negation only on atoms,
    every window nonsingular."""

    def literal():
        name = rng.choice(atoms)
        return ("not", name) if rng.random() < 0.3 else ("atom", name)

    def gen(temporal, depth):
        roll = rng.random()
        if depth > 4 or (temporal == 0 and roll < 0.6):
            return literal()
        if temporal > 0 and roll < 0.45:
            lo = rng.randint(0, max_bound - 1)
            hi = rng.randint(lo + 1, max_bound)
            kind = rng.random()
            if kind < 0.4:
                window = (lo, hi)
            elif kind < 0.6 and lo > 0:
                window = (lo, None)
            else:
                window = (0, None)
            left = ("true",) if rng.random() < 0.5 else gen(temporal - 1, depth + 1)
            return ("until", left, gen(temporal - 1, depth + 1), *window)
        op = "and" if rng.random() < 0.5 else "or"
        return (op, gen(temporal, depth + 1),
                gen(max(temporal - 1, 0), depth + 1))

    return gen(rng.randint(1, max_temporal), 0)


def render(f) -> str:
    """Formula text in the CLI syntax, fully parenthesized."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "!" + f[1]
    if kind == "true":
        return "true"
    if kind in ("and", "or"):
        sym = "&" if kind == "and" else "|"
        return f"({render(f[1])} {sym} {render(f[2])})"
    _, left, right, lo, hi = f
    window = "" if (lo, hi) == (0, None) else f"[{lo},{'inf' if hi is None else hi}]"
    if left == ("true",):
        return f"(F{window} {render(right)})"
    return f"({render(left)} U{window} {render(right)})"


def random_word(rng, atoms, max_len, density=0.4):
    length = rng.randint(0, max_len)
    return [frozenset(a for a in atoms if rng.random() < density)
            for _ in range(length)]


# ---------------------------------------------------------------------------
# Bus missions: "bus i arrives (geometric), then reach station i in time"
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bus:
    event: str
    p: float
    station: str
    deadline: int | None      # None: unbounded F


def mission_text(buses) -> str:
    parts = []
    for b in buses:
        window = "F" if b.deadline is None else f"F[0,{b.deadline}]"
        parts.append(f"D{{geom:{b.p!r}}} {b.event} & "
                     f"F ({b.event} & {window} {b.station})")
    return " | ".join(parts)


def observed_word(rng, buses, max_len, station_density=0.3):
    """A word as a monitor would see it: each bus arrives at most once, at
    a step drawn from its geometric law (possibly after the word ends);
    stations are visited at random."""
    length = rng.randint(1, max_len)
    arrival = {}
    for b in buses:
        k = 1
        while rng.random() >= b.p:
            k += 1
        arrival[b.event] = k
    word = []
    for i in range(length):
        sym = {b.event for b in buses if arrival[b.event] == i}
        sym |= {b.station for b in buses if rng.random() < station_density}
        word.append(frozenset(sym))
    return word


# ---------------------------------------------------------------------------
# Plan jobs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanJob:
    name: str
    buses: tuple[Bus, ...]
    side: int
    grid_text: str
    truncation: tuple[str, str]     # ("--uniform-T", "6") or ("--eps", "0.1")

    @property
    def formula_text(self) -> str:
        return mission_text(self.buses)


# One job per class in every run: (deadline per bus; grid side;
# truncation).  Every deadline is bounded: with an unbounded F the plan's
# policy can loop inside an end component and not achieve the value it
# reports (README.md, "Defects"), and a benchmark run must be one on which
# no operation fails.  The class fixes the job's size:
# start and stations come from a fixed layout per class that the seed only
# rotates or reflects (which leaves the product size unchanged), and the
# eps classes draw arrival probabilities from a band in which the
# truncation points do not move.  So every seed runs the same mix of job
# sizes, and timing statistics over the jobs compare across seeds.  The
# seed draws everything else: orientation, arrival laws and slip.
PLAN_CLASSES = (
    ((3,), 8, ("--uniform-T", "8")),
    ((5,), 12, ("--eps", "0.05")),
    ((4,), 14, ("--uniform-T", "6")),
    ((3, 2), 6, ("--eps", "0.1")),
    ((3, 3), 8, ("--uniform-T", "6")),
    ((2, 4), 10, ("--uniform-T", "5")),
    ((3, 2, 3), 4, ("--uniform-T", "4")),
    ((2, 4, 3), 5, ("--eps", "0.2")),
)
EPS_P_BAND = (0.56, 0.62)


def _orient(cell, side, k):
    """One of the eight symmetries of the square grid."""
    x, y = cell
    if k & 4:
        x, y = y, x
    if k & 1:
        x = side - 1 - x
    if k & 2:
        y = side - 1 - y
    return x, y


def draw_plan_jobs(rng) -> list[PlanJob]:
    jobs = []
    for n, (deadlines, side, truncation) in enumerate(PLAN_CLASSES):
        layout = [(x, y) for x in range(side) for y in range(side)]
        random.Random(n).shuffle(layout)
        k = rng.randrange(8)
        start, *stations = (_orient(c, side, k)
                            for c in layout[:1 + len(deadlines)])
        lo, hi = EPS_P_BAND if truncation[0] == "--eps" else (0.35, 0.8)
        buses = tuple(Bus(f"b{i + 1}", round(rng.uniform(lo, hi), 2),
                          f"s{i + 1}", d)
                      for i, d in enumerate(deadlines))
        forward = round(rng.uniform(0.7, 0.9), 2)
        left = round((1.0 - forward) / 2, 2)
        lines = [f"width = {side}", f"height = {side}",
                 f"start = ({start[0]},{start[1]})"]
        lines += [f"stations.{b.station} = ({x},{y})"
                  for b, (x, y) in zip(buses, stations)]
        lines.append(f"slip = {forward!r},{left!r},{round(1.0 - forward - left, 2)!r}")
        jobs.append(PlanJob(f"job{n}", buses, side, "\n".join(lines) + "\n",
                            truncation))
    return jobs

