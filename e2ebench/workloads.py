"""The four workloads.

Each workload is a closed loop with one client: the benchmark issues one
operation, waits for it, checks it, and issues the next.  `prepare` is the
program set-up a user pays before the first operation (it is what the
set-up probes time); `op(i)` runs operation i, which depends only on the
seed and i; `finish` runs the checks that are too slow to interleave.

Every op record carries `kind`, `latency_s`, `work` (units of work done),
`done` (the operation produced its result) and `failure` (None or a
message); plan jobs add the fields their deferred check needs.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from common import (
    ROOT,
    child_env,
    percentile,
    run_child,
    sha256_file,
    sha256_text,
)
from gen import (
    ATOMS,
    Bus,
    draw_plan_jobs,
    mission_text,
    observed_word,
    random_formula,
    random_word,
    render,
)
from layers import count_game_states, record_dta, traced_build_product
from oracles import (
    finite_horizon_value,
    mission_likelihood,
    mission_verdict,
    pooled_rate_band,
    satisfies,
)

HERE = Path(__file__).resolve().parent


class Workload:
    name = ""
    latency_kind = ""          # op kind whose latency is the headline
    work_kind = ""             # op kind whose work/latency is the rate
    work_unit = ""

    quantum = 1                # the loop stops only at multiples of this
    windows = 5                # statistics are medians over this many parts
    pooled = False             # see run.end_to_end_metrics

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.notes: list[str] = []
        self.digests: dict = {}

    def ops_for(self, seconds):
        """Operations per run, or None to run for `seconds`."""
        return None

    def generate(self, seconds):
        """Make the seeded inputs (benchmark work, not set-up)."""

    def prepare(self, tracer):
        pass

    def prepare_checks(self):
        pass

    def op(self, i: int, tracer) -> dict:
        raise NotImplementedError

    def finish(self, log) -> None:
        pass

    def named_metrics(self, log) -> dict:
        return {}


# ---------------------------------------------------------------------------
# plan-grid: fresh `mitlplan plan` processes on generated grids
# ---------------------------------------------------------------------------

class PlanGrid(Workload):
    """The draw has one job per size class (see `gen.PLAN_CLASSES`); the
    loop runs the jobs round-robin, each in a fresh process, so no job
    sees another's progression memo."""

    name = "plan-grid"
    latency_kind = work_kind = "plan"
    work_unit = "product states"
    timeout_s = 60
    # Sweeps allowed to `policy_evaluation` in the check.  The converging
    # jobs need 6-49; a policy that loops does not converge, and with the
    # default budget of 200 000 its check took 8-20 s.
    eval_sweeps = 20_000

    def generate(self, seconds):
        self.jobs = draw_plan_jobs(random.Random(self.seed))
        self.quantum = len(self.jobs)
        self.argvs = []
        for job in self.jobs:
            d = self.work_dir / job.name
            d.mkdir(parents=True, exist_ok=True)
            (d / "task.grid").write_text(job.grid_text)
            (d / "task.mitl").write_text(job.formula_text + "\n")
            self.argvs.append(["plan", "--formula-file", str(d / "task.mitl"),
                               "--grid", str(d / "task.grid"),
                               *job.truncation, "--out", str(d / "out")])

    def prepare(self, tracer):
        import mitlplan.cli  # noqa: F401  (what every job process imports)

    def op(self, i, tracer):
        j = i % len(self.jobs)
        argv = self.argvs[j]
        trace_path = self.work_dir / self.jobs[j].name / "trace.json"
        if tracer.enabled:
            cmd = [sys.executable, str(HERE / "plan_child.py"), str(trace_path)]
        else:
            cmd = [sys.executable, "-m", "mitlplan.cli"]
        rec = {"kind": "plan", "job": j, "work": 0, "failure": None,
               "done": False}
        t0 = time.perf_counter()
        try:
            proc = run_child(cmd + argv, self.timeout_s, env=child_env(),
                             cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            rec["latency_s"] = time.perf_counter() - t0
            rec["failure"] = f"job{j}: no exit within {self.timeout_s} s"
            return rec
        rec["latency_s"] = time.perf_counter() - t0
        if proc.returncode != 0:
            rec["failure"] = (f"job{j}: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-300:]}")
            return rec
        rec["done"] = True
        fields = dict(line.split(": ", 1) for line in proc.stdout.splitlines()
                      if ": " in line)
        rec["work"] = int(fields["states"])
        rec["value"] = float(fields["satisfaction-probability"])
        out = Path(argv[-1])
        rec["digests"] = {name: sha256_file(out / name)
                          for name in ("policy.txt", "values.txt")}
        if tracer.enabled:
            child = json.loads(trace_path.read_text())
            spanned = sum(child["totals"].values())
            internal = child["counts"].pop("internal_s")
            tracer.merge(child["totals"], child["counts"])
            tracer.add("cli.startup_s", rec["latency_s"] - internal)
            tracer.add("cli.other_s", internal - spanned)
        return rec

    def finish(self, log):
        from mitlplan import cli
        from mitlplan.solver import SolverError, policy_evaluation

        done = {i: r for i, r in log.extra.items() if r["done"]}
        first = {}
        for r in done.values():
            first.setdefault(r["job"], r)
        verdict = {}
        for j, r in sorted(first.items()):
            argv = self.argvs[j]
            try:
                built = cli.build_model(cli.build_parser().parse_args(argv))
                m = built.product
                policy = cli.read_policy(Path(argv[-1]) / "policy.txt", built)
                achieved = (1.0 if m.accepting[m.z0]
                            else float(policy_evaluation(
                                m, policy, max_iter=self.eval_sweeps)[m.z0]))
            except SolverError as exc:
                verdict[j] = (f"job{j}: evaluating the written policy failed "
                              f"({exc}); it can cycle without accepting")
                continue
            except Exception:  # a check must not stop the other checks
                verdict[j] = f"job{j}: check raised {traceback.format_exc(limit=3)}"
                continue
            if m.n_states != r["work"]:
                verdict[j] = f"job{j}: {m.n_states} states rebuilt, {r['work']} reported"
            elif abs(achieved - r["value"]) > 1e-9:
                verdict[j] = (f"job{j}: policy achieves {achieved!r}, plan "
                              f"reported {r['value']!r}")
        for i, r in done.items():
            if r["job"] in verdict:
                log.failures[i] = verdict[r["job"]]
        for j, r in sorted(first.items()):
            job = self.jobs[j]
            seen = {json.dumps(x["digests"], sort_keys=True)
                    for x in done.values() if x["job"] == j}
            if len(seen) > 1:
                self.notes.append(f"{job.name}: {len(seen)} different output "
                                  f"digests over its repeated runs")
            self.digests[job.name] = {
                "formula": job.formula_text, "truncation": " ".join(job.truncation),
                "side": job.side, "states": r["work"], **r["digests"]}

    def named_metrics(self, log):
        lat = log.latencies("plan")
        states, seconds = log.totals("plan")
        return {
            "plan_s_p50": (percentile(lat, 50), "s"),
            "plan_s_p95": (percentile(lat, 95), "s"),
            "plan_states_per_s": (states / seconds, "states/s"),
        }


# ---------------------------------------------------------------------------
# translate-random: one long-lived process, random co-safety formulas
# ---------------------------------------------------------------------------

class Watchdog(Exception):
    pass


def _alarm(signum, frame):
    raise Watchdog()


class TranslateRandom(Workload):
    """A fixed corpus of formulas from the acceptance-criterion-9
    generator (3 atoms, at most 3 nested temporal operators, bounds <= 5),
    built in one process in a fixed order.  The run is this fixed amount
    of work, whatever `--seconds` says.

    About one formula in 300 takes 10-40 s, and the memo tables that grow
    with each formula set the process's memory, so with a corpus drawn
    per seed the run's length, latency and peak memory depend on whether
    a slow formula was drawn (measured: peak RSS 92-175 MB over five
    seeds).  Formulas also share memo entries, and the order decides which
    formula pays for a shared entry, so the order is fixed too.  The seed
    only draws the words that check each automaton.  The corpus's slow
    formulas stay in: the latency is the geometric mean over formulas,
    which covers the body, and the rate is total locations over total
    build time, which the tail dominates."""

    name = "translate-random"
    latency_kind = work_kind = "translate"
    work_unit = "automaton locations"
    limit_s = 120          # one formula may not take longer than this
    words_per_formula = 3
    corpus_size = 600
    corpus_seed = 20260808
    windows = 1
    pooled = True

    def generate(self, seconds):
        ref = random.Random(self.corpus_seed)
        self.corpus = [random_formula(ref) for _ in range(self.corpus_size)]
        self.word_rng = random.Random(self.seed)

    def ops_for(self, seconds):
        return len(self.corpus)

    def prepare(self, tracer):
        with tracer.span("cli.import"):
            from mitlplan import formula, timed_automata
        self.fm, self.ta = formula, timed_automata

    def op(self, i, tracer):
        f = self.corpus[i]
        text = render(f)
        rec = {"kind": "translate", "work": 0, "failure": None,
               "done": False}
        with tracer.span("formula.parse"):
            phi = self.fm.parse(text)
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        t0 = time.perf_counter()
        try:
            with tracer.span("timed_automata.build_dta"):
                dta = self.ta.build_dta(phi)
        except Watchdog:
            rec["latency_s"] = time.perf_counter() - t0
            rec["failure"] = f"formula {i}: no automaton within {self.limit_s} s: {text}"
            return rec
        except self.ta.AutomatonError as exc:
            rec["latency_s"] = time.perf_counter() - t0
            rec["failure"] = f"formula {i}: {exc}: {text}"
            return rec
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        rec["latency_s"] = time.perf_counter() - t0
        rec["done"] = True
        record_dta(tracer, dta)
        rec["work"] = dta.location_count
        table = [[int(x) for x in row] for row in dta.table]
        self.digests[i] = {"formula": text, "locations": len(table),
                           "table_sha256": sha256_text(json.dumps(table))}
        for _ in range(self.words_per_formula):
            word = random_word(self.word_rng, ATOMS, 12)
            got = self.ta.run_dta(dta, self.ta.TimedWord.from_sets(word)).accepted
            if got != satisfies(f, word):
                rec["failure"] = (f"formula {i}: automaton says {got} on "
                                  f"{[sorted(s) for s in word]}: {text}")
                break
        return rec

    def named_metrics(self, log):
        lat = log.latencies("translate")
        locations, seconds = log.totals("translate")
        slowest = sorted(lat)[-max(1, len(lat) // 100):]
        return {
            "translate_ms_p50": (percentile(lat, 50) * 1e3, "ms"),
            "translate_ms_p95": (percentile(lat, 95) * 1e3, "ms"),
            "translate_ms_max": (max(lat) * 1e3, "ms"),
            "translate_slowest_1pct_share": (sum(slowest) / seconds, "ratio"),
            "translate_locations_per_s": (locations / seconds, "locations/s"),
        }


# ---------------------------------------------------------------------------
# simulate: rollouts and trajectory logs on one mid-size two-bus model
# ---------------------------------------------------------------------------

SIM_FORMULA = ("D{geom:0.4} b1 & F (b1 & F[0,3] s1) | "
               "D{geom:0.7} b2 & F (b2 & F[0,3] s2)")
SIM_GRID = """width = 8
height = 8
start = (0,0)
stations.s1 = (0,7)
stations.s2 = (7,0)
events.b1 = geom:0.4
events.b2 = geom:0.7
slip = 0.8,0.1,0.1
"""
SIM_T = 8


def build_model(tracer, formula_text, grid_text, T):
    """The plan pipeline through the public API, one span per layer."""
    from mitlplan import formula as fm
    from mitlplan.game_model import build_gridworld, parse_gridworld_config
    from mitlplan.product_mdp import build_product
    from mitlplan.solver import extract_policy, value_iteration
    from mitlplan.stochastic_ta import StaModel, truncate
    from mitlplan.timed_automata import build_dta

    with tracer.span("formula.parse"):
        f = fm.parse(formula_text)
        u = fm.EventSet.from_formula(f)
    with tracer.span("formula.validate"):
        report = fm.validate_fragment(f, u)
    if not report.ok:
        raise ValueError(f"formula rejected: {report.violations}")
    with tracer.span("formula.truncation"):
        trunc = fm.uniform_truncation_vector(f, u, T)
    with tracer.span("timed_automata.build_dta"):
        dta = build_dta(fm.substitute_dist(f))
    record_dta(tracer, dta)
    with tracer.span("game_model.build"):
        game = build_gridworld(parse_gridworld_config(grid_text))
    count_game_states(tracer, game)
    tsta = truncate(StaModel(dta, u), trunc)
    m = traced_build_product(tracer, build_product, game, tsta)
    m.validate()
    with tracer.span("solver.value_iteration"):
        res = value_iteration(m)
    tracer.add("solver.sweeps", res.iterations)
    if not res.converged:
        raise ValueError("value iteration did not converge")
    with tracer.span("solver.extract_policy"):
        policy = extract_policy(m, res.values)
    return m, res, policy


class Simulate(Workload):
    """Every fifth op is an `estimate_success` batch; the others each
    render one `rollout()` trajectory log, which decodes every visited
    product state.

    The batches are checked together in `finish`: the mean of their rates
    against the policy's finite-horizon success probability.  Batches
    draw from disjoint seeds, so they are independent of each other; the
    rollouts inside a batch are not (README.md, "Defects"), so the
    standard error comes from the spread of the batch rates.  That
    spread, as a multiple of the binomial variance, is reported as
    `rollout_variance_ratio`: about 1 for independent rollouts."""

    name = "simulate"
    latency_kind = "log"
    work_kind = "batch"
    work_unit = "rollouts"
    batch = 4000
    quantum = 5
    variance_ratio = None

    def prepare(self, tracer):
        with tracer.span("cli.import"):
            from mitlplan import simulator
        self.sim = simulator
        self.m, self.res, self.policy = build_model(tracer, SIM_FORMULA,
                                                    SIM_GRID, SIM_T)

    def prepare_checks(self):
        m = self.m
        self.horizon = self.sim.default_max_steps(m)
        self.expected = finite_horizon_value(m, self.policy.action_index,
                                             self.horizon)
        v0 = float(self.res.values[m.z0])
        self.notes.append(
            f"rollout rates are checked against the policy's "
            f"{self.horizon}-step value {self.expected!r}, not V(z0)={v0!r}: "
            f"default_max_steps can cut untimed obligations short "
            f"(gap here {v0 - self.expected:.3g})")

    def op(self, i, tracer):
        m, policy = self.m, self.policy
        seed = self.seed * 1_000_003 + i
        if i % self.quantum == 0:
            t0 = time.perf_counter()
            with tracer.span("simulator.estimate"):
                est = self.sim.estimate_success(m, policy, self.batch, seed=seed)
            rec = {"kind": "batch", "latency_s": time.perf_counter() - t0,
                   "work": self.batch, "failure": None, "done": True,
                   "rate": est.rate}
            tally = est.outcomes
            tracer.add("simulator.rollouts", est.samples)
            tracer.add("simulator.accepts", tally["accept"])
            tracer.add("simulator.step_limits", tally["step-limit"])
            if (est.samples != self.batch
                    or sum(tally.values()) != self.batch
                    or est.rate != tally["accept"] / self.batch):
                rec["failure"] = (f"batch {i}: rate {est.rate!r} and tally "
                                  f"{dict(tally)} of {est.samples} rollouts "
                                  f"disagree")
            return rec
        t0 = time.perf_counter()
        with tracer.span("simulator.rollout"):
            traj = self.sim.rollout(m, policy, seed=seed)
            text = traj.render()
        rec = {"kind": "log", "latency_s": time.perf_counter() - t0,
               "work": traj.steps, "failure": None, "done": True}
        problem = self.check_trajectory(traj, text)
        if problem:
            rec["failure"] = f"log {i}: {problem}"
        return rec

    def finish(self, log):
        batches = [i for i, r in log.extra.items() if r["kind"] == "batch"]
        rates = [log.extra[i]["rate"] for i in batches]
        mean = sum(rates) / len(rates)
        band, self.variance_ratio = pooled_rate_band(self.expected,
                                                     self.batch, rates)
        if abs(mean - self.expected) > band:
            problem = (f"mean rate {mean!r} of {len(rates)} batches vs "
                       f"policy value {self.expected!r} (band {band:.3g})")
            for i in batches:
                log.failures.setdefault(i, f"batch {i}: {problem}")

    def check_trajectory(self, traj, text):
        m, policy = self.m, self.policy
        z = traj.state_indices
        if z[0] != m.z0 or len(z) != len(traj.actions) + 1:
            return "malformed state sequence"
        for a, (z1, z2) in zip(traj.actions, zip(z, z[1:])):
            if a != policy.action_name(z1):
                return f"took {a} at state {z1}, policy says {policy.action_name(z1)}"
            cols, probs = m.row(z1, m.actions.index(a))
            if not any(c == z2 and p > 0 for c, p in zip(cols.tolist(), probs.tolist())):
                return f"impossible step {z1} -{a}-> {z2}"
        last = z[-1]
        expected = ("accept" if m.accepting[last] else "sink" if m.sink[last]
                    else "step-limit")
        if traj.outcome != expected:
            return f"outcome {traj.outcome}, final state says {expected}"
        if expected == "step-limit" and traj.steps != self.horizon:
            return f"stopped after {traj.steps} of {self.horizon} steps"
        if not text.endswith(f"terminal: {expected}\n"):
            return "log does not end with its outcome"
        return None

    def named_metrics(self, log):
        logs = log.latencies("log")
        rollouts, seconds = log.totals("batch")
        out = {
            "rollouts_per_s": (rollouts / seconds, "rollouts/s"),
            "rollout_batch_size": (self.batch, "rollouts"),
            "trajectory_logs_per_s": (len(logs) / sum(logs), "logs/s"),
            "trajectory_log_ms_p50": (percentile(logs, 50) * 1e3, "ms"),
        }
        if self.variance_ratio is None:
            self.notes.append("rollout_variance_ratio needs two batches")
        else:
            out["rollout_variance_ratio"] = (self.variance_ratio, "ratio")
        return out


# ---------------------------------------------------------------------------
# monitor: verdicts and likelihoods of observed words
# ---------------------------------------------------------------------------

MONITOR_MISSIONS = (
    (Bus("b1", 0.4, "s1", 3), Bus("b2", 0.7, "s2", 3)),
    (Bus("b1", 0.4, "s1", 3), Bus("b2", 0.7, "s2", None),
     Bus("b3", 0.5, "s3", 2)),
)


class Monitor(Workload):
    """Words alternate between a two-bus and a three-bus mission (the
    second has an unbounded obligation).  Arrivals follow the missions'
    own laws, so verdicts mix accept, reject and inconclusive."""

    name = "monitor"
    latency_kind = work_kind = "word"
    work_unit = "word steps"
    quantum = len(MONITOR_MISSIONS)
    max_len = 14

    def generate(self, seconds):
        self.rng = random.Random(self.seed)
        self.verdicts = Counter()

    def prepare(self, tracer):
        with tracer.span("cli.import"):
            from mitlplan import formula as fm
            from mitlplan.stochastic_ta import StaModel
            from mitlplan.timed_automata import TimedWord, build_dta
        self.TimedWord = TimedWord
        self.models = []
        for buses in MONITOR_MISSIONS:
            with tracer.span("formula.parse"):
                f = fm.parse(mission_text(buses))
                u = fm.EventSet.from_formula(f)
            with tracer.span("timed_automata.build_dta"):
                dta = build_dta(fm.substitute_dist(f))
            record_dta(tracer, dta)
            self.models.append(StaModel(dta, u))

    def op(self, i, tracer):
        k = i % len(MONITOR_MISSIONS)
        buses = MONITOR_MISSIONS[k]
        word = observed_word(self.rng, buses, self.max_len)
        tw = self.TimedWord.from_sets(word)
        t0 = time.perf_counter()
        with tracer.span("stochastic_ta.run_word"):
            verdict, likelihood, _ = self.models[k].run_word(tw)
        rec = {"kind": "word", "latency_s": time.perf_counter() - t0,
               "work": len(word), "failure": None, "done": True}
        self.verdicts[verdict] += 1
        want = mission_verdict(buses, word)
        lik = mission_likelihood(buses, word)
        if verdict != want:
            rec["failure"] = f"word {i}: verdict {verdict}, expected {want}"
        elif abs(likelihood - lik) > 1e-12 * max(lik, 1e-300) + 1e-300:
            rec["failure"] = f"word {i}: likelihood {likelihood!r}, expected {lik!r}"
        return rec

    def named_metrics(self, log):
        lat = log.latencies("word")
        out = {
            "monitor_us_p50": (percentile(lat, 50) * 1e6, "us"),
            "monitor_us_p99": (percentile(lat, 99) * 1e6, "us"),
        }
        for v, n in sorted(self.verdicts.items()):
            out[f"verdict_share.{v}"] = (n / len(log), "ratio")
        return out


WORKLOADS = {w.name: w for w in (PlanGrid, TranslateRandom, Simulate, Monitor)}
