"""Tests of the benchmark itself: every metric is printed with its unit,
and the output checks catch corrupted results.

Run from the root of the checkout:  python -m pytest e2ebench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import NullTracer, use_checkout_sources  # noqa: E402

use_checkout_sources()

import run  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Monitor,
    PlanGrid,
    Simulate,
    TranslateRandom,
)


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def printed(lines, name, unit):
    return any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
               for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert printed(lines, name, unit)
    saved = json.loads(run.results_path(workload, 3, 0).read_text())
    assert saved["named_metrics"]
    for name, m in saved["named_metrics"].items():
        assert printed(lines, name, m["unit"])
    assert printed(lines, "failed_share", "ratio")
    assert saved["environment"]["nproc"] >= 1
    assert result["correct"] and result["failed"] == 0


def test_traced_run_prints_every_layer_metric():
    proc = bench("--workload", "monitor", "--seed", "3", "--seconds", "0",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result["metrics"]) == set(LAYER_METRICS)
    for name, (unit, _better) in LAYER_METRICS.items():
        assert result["metrics"][name]["unit"] == unit
        assert printed(lines, name, unit)
    assert result["metrics"]["stochastic_ta.run_word_s"]["value"] > 0
    assert any(line.startswith("note: not exercised") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "monitor", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# Corrupted results must count as failed
# ---------------------------------------------------------------------------

def prepared(cls, tmp_path, seed=5, seconds=1):
    w = cls(seed, tmp_path)
    w.generate(seconds)
    w.prepare(NullTracer())
    w.prepare_checks()
    return w


def failed_share(w, ops):
    log, _ = run.run_loop(w, NullTracer(), 0, ops)
    w.finish(log)
    return len(log.failures) / len(log)


def test_monitor_checks_are_not_vacuous(tmp_path):
    w = prepared(Monitor, tmp_path)
    assert failed_share(w, 40) == 0
    real = w.models[0].run_word

    def flipped(word):
        verdict, likelihood, states = real(word)
        return ("reject" if verdict == "accept" else "accept"), likelihood, states

    w.models[0].run_word = flipped
    assert failed_share(w, 40) == 0.5    # every word of mission 0 fails
    w.models[0].run_word = lambda word: (lambda v, p, s: (v, p * (1 + 1e-9), s))(*real(word))
    assert failed_share(w, 40) == 0.5


def test_translate_checks_are_not_vacuous(tmp_path, monkeypatch):
    w = prepared(TranslateRandom, tmp_path)
    assert failed_share(w, 10) == 0
    real = w.ta.run_dta
    monkeypatch.setattr(w.ta, "run_dta", lambda dta, word: types.SimpleNamespace(
        accepted=not real(dta, word).accepted))
    assert failed_share(w, 10) == 1


def test_plan_checks_are_not_vacuous(tmp_path):
    w = prepared(PlanGrid, tmp_path)
    w.jobs, w.argvs, w.quantum = w.jobs[:1], w.argvs[:1], 1   # one bounded job
    log, _ = run.run_loop(w, NullTracer(), 0, 2)
    w.finish(log)
    assert log.failures == {}
    for r in log.extra.values():
        r["value"] += 1e-6
    w.finish(log)
    assert len(log.failures) == 2
    assert all("policy achieves" in f for f in log.failures.values())


def test_simulate_checks_are_not_vacuous(tmp_path):
    w = prepared(Simulate, tmp_path)
    assert failed_share(w, 2 * w.quantum) == 0
    traj = w.sim.rollout(w.m, w.policy, seed=1)
    assert w.check_trajectory(traj, traj.render()) is None
    other = next(a for a in w.m.actions if a != traj.actions[0])
    bad = dataclasses.replace(traj, actions=[other] + traj.actions[1:])
    assert "policy says" in w.check_trajectory(bad, bad.render())
    w.expected += 0.05
    assert failed_share(w, 2 * w.quantum) == 2 / (2 * w.quantum)


def test_pooled_rate_band_uses_the_spread_of_the_batches():
    from oracles import pooled_rate_band

    band, ratio = pooled_rate_band(0.5, 100, [0.5])
    assert ratio is None and band == pytest.approx(5 * 0.05 + 0.005)
    band, ratio = pooled_rate_band(0.5, 100, [0.4, 0.6, 0.4, 0.6])
    assert ratio == pytest.approx(0.04 / 3 / 0.0025)
    assert band == pytest.approx(5 * (0.04 / 3 / 4) ** 0.5 + 0.5 / 400)
