import os
import subprocess
import sys
from pathlib import Path

import pytest

import mitlplan
from mitlplan.cli import main

from conftest import DATA, BUS_CASE1, BUS_CASE2, THREE_BUS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_translate_writes_outputs(tmp_path, capsys):
    code, out, _ = run(capsys, "translate", "--formula", BUS_CASE1,
                       "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "dta.dot").exists()
    assert (tmp_path / "dta.txt").exists()
    assert (tmp_path / "sta.txt").exists()
    assert "locations:" in out
    assert "digraph" in (tmp_path / "dta.dot").read_text()


def test_translate_oracle_agreement(tmp_path, capsys):
    code, out, _ = run(capsys, "translate", "--formula", BUS_CASE1,
                       "--out", str(tmp_path),
                       "--oracle", str(DATA / "bus_oracle.dta"),
                       "--words", "500", "--seed", "1")
    assert code == 0
    assert "oracle-agreement: 500/500" in out


def test_translate_malformed_formula(tmp_path, capsys):
    code, _, err = run(capsys, "translate", "--formula", "F[2,2] b",
                       "--out", str(tmp_path))
    assert code == 2
    assert "singular" in err


def test_plan_and_simulate_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "plan", "--formula", BUS_CASE2,
                       "--grid", str(DATA / "case2.grid"),
                       "--uniform-T", "3", "--out", str(tmp_path))
    assert code == 0
    assert "satisfaction-probability:" in out
    assert (tmp_path / "policy.txt").exists()
    assert (tmp_path / "values.txt").exists()
    code2, out2, _ = run(capsys, "simulate", "--formula", BUS_CASE2,
                         "--grid", str(DATA / "case2.grid"),
                         "--uniform-T", "3",
                         "--policy", str(tmp_path / "policy.txt"),
                         "-n", "2000", "--seed", "4", "--logs", "2",
                         "--out", str(tmp_path))
    assert code2 == 0
    assert "success-rate:" in out2
    assert (tmp_path / "trajectory_000.log").exists()
    assert (tmp_path / "trajectory_001.log").exists()
    v = float(out.split("satisfaction-probability: ")[1].splitlines()[0])
    rate = float(out2.split("success-rate: ")[1].splitlines()[0])
    assert abs(rate - v) < 0.05


def test_simulate_stale_policy(tmp_path, capsys):
    code, _, _ = run(capsys, "plan", "--formula", BUS_CASE2,
                     "--grid", str(DATA / "case2.grid"),
                     "--uniform-T", "3", "--out", str(tmp_path))
    assert code == 0
    # same policy file against a different truncation: stale
    code2, _, err = run(capsys, "simulate", "--formula", BUS_CASE2,
                        "--grid", str(DATA / "case2.grid"),
                        "--uniform-T", "4",
                        "--policy", str(tmp_path / "policy.txt"))
    assert code2 == 6
    assert "policy was built for model" in err


@pytest.fixture(scope="module")
def case2_policy_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("case2")
    assert main(["plan", "--formula", BUS_CASE2,
                 "--grid", str(DATA / "case2.grid"),
                 "--uniform-T", "3", "--out", str(out)]) == 0
    # three header lines, then one line per state; state 0 is not absorbing
    return (out / "policy.txt").read_text().splitlines()


@pytest.mark.parametrize("edit, code, message", [
    (lambda ls: ls[:3] + ["0 Q 0.5"] + ls[4:], 2, "line 4: unknown action"),
    (lambda ls: ls[:3] + ["0 stay 0.5"] + ls[4:], 2, "line 4: unknown action"),
    (lambda ls: ls[:3], 2, "no action for"),
    (lambda ls: ls[:3] + ["zero N 0.5"] + ls[4:], 2, "line 4: expected"),
    (lambda ls: ls[:3] + ["0"] + ls[4:], 2, "line 4: expected"),
    (lambda ls: ls + ["99999 N 0.5"], 2, "state 99999 is not in"),
    (lambda ls: ls + [ls[3]], 2, "state 0 appears twice"),
    (lambda ls: [l for l in ls if " stay " not in l], 0, ""),
], ids=["unknown-action", "stay-at-live-state", "no-rows",
        "non-integer-index", "one-token", "index-out-of-range",
        "repeated-state", "absorbing-states-omitted"])
def test_simulate_rejects_malformed_policy(tmp_path, capsys,
                                           case2_policy_lines, edit, code,
                                           message):
    policy = tmp_path / "policy.txt"
    policy.write_text("\n".join(edit(case2_policy_lines)) + "\n")
    got, _, err = run(capsys, "simulate", "--formula", BUS_CASE2,
                      "--grid", str(DATA / "case2.grid"), "--uniform-T", "3",
                      "--policy", str(policy), "-n", "100", "--logs", "0",
                      "--out", str(tmp_path))
    assert got == code
    assert message in err


@pytest.mark.parametrize("command, option, value", [
    ("simulate", "-n", "0"),
    ("plan", "--tol", "0"),
    ("plan", "--max-iter", "0"),
    ("simulate", "--max-steps", "-3"),
    ("simulate", "--logs", "-2"),
    ("plan", "--cap", "0"),
    ("plan", "--cap", "-4"),
    ("translate", "--words", "-5"),
    ("translate", "--words", "0"),
    ("translate", "--max-len", "-1"),
])
def test_out_of_range_option_exits_2(tmp_path, capsys, case2_policy_lines,
                                     command, option, value):
    policy = tmp_path / "policy.txt"
    policy.write_text("\n".join(case2_policy_lines) + "\n")
    rollouts = ["--policy", str(policy), "-n", "10"] * (command == "simulate")
    model = ["--grid", str(DATA / "case2.grid"),
             "--uniform-T", "3"] * (command != "translate")
    oracle = ["--oracle", str(DATA / "bus_oracle.dta")] * (command == "translate")
    with pytest.raises(SystemExit) as exc:
        main([command, "--formula", BUS_CASE2, *model, *rollouts, *oracle,
              option, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"error: argument {option}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--tol", "--max-iter"])
def test_simulate_has_no_solver_options(tmp_path, capsys, case2_policy_lines,
                                        option):
    policy = tmp_path / "policy.txt"
    policy.write_text("\n".join(case2_policy_lines) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--formula", BUS_CASE2,
              "--grid", str(DATA / "case2.grid"), "--uniform-T", "3",
              "--policy", str(policy), option, "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


def test_plan_eps_zero_with_uniform_T_exits_2(tmp_path, capsys):
    # --eps 0 is given, so it conflicts with --uniform-T like any other value
    code, _, err = run(capsys, "plan", "--formula", BUS_CASE2,
                       "--grid", str(DATA / "case2.grid"),
                       "--uniform-T", "3", "--eps", "0", "--out", str(tmp_path))
    assert code == 2
    assert "give one of --eps or --uniform-T, not both" in err


def test_plan_station_named_like_an_event_exits_3(tmp_path, capsys):
    grid = tmp_path / "station_b1.grid"
    grid.write_text((DATA / "case2.grid").read_text() + "stations.b1 = (2,2)\n")
    code, _, err = run(capsys, "plan", "--formula", BUS_CASE2,
                       "--grid", str(grid), "--uniform-T", "3",
                       "--out", str(tmp_path))
    assert code == 3
    assert "grid: label of ((2, 2), {}, {b1,b2}) shows ['b1'], outcome was []" \
        in err


@pytest.mark.parametrize("line, key", [
    ("width = abc", "width"),
    ("height = 4.5", "height"),
    ("slip = a,0.1,0.1", "slip"),
])
def test_plan_malformed_grid_number_exits_3(tmp_path, capsys, line, key):
    grid = tmp_path / "bad.grid"
    grid.write_text((DATA / "case2.grid").read_text() + line + "\n")
    code, _, err = run(capsys, "plan", "--formula", BUS_CASE2,
                       "--grid", str(grid), "--uniform-T", "3",
                       "--out", str(tmp_path))
    assert code == 3
    assert f"grid: grid key {key!r}: bad number" in err


def test_plan_does_not_import_numpy_ma(tmp_path):
    # plain `np.unique` imports `numpy.ma` on its first call, which costs
    # every `plan` process 10-15 ms
    src = str(Path(mitlplan.__file__).resolve().parent.parent)
    script = ("import sys\n"
              "from mitlplan.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "assert code == 0, code\n"
              "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, "plan", "--formula", BUS_CASE1,
         "--grid", str(DATA / "case1.grid"), "--uniform-T", "3",
         "--out", str(tmp_path)],
        env=env, check=True, capture_output=True, text=True, timeout=300)
    assert done.stdout.splitlines()[-1] == "False"


def test_plan_nonconvergence_exit(tmp_path, capsys):
    code, _, err = run(capsys, "plan", "--formula", BUS_CASE2,
                       "--grid", str(DATA / "case2.grid"),
                       "--uniform-T", "3", "--max-iter", "1",
                       "--tol", "1e-14", "--out", str(tmp_path))
    assert code == 5
    assert "residual" in err


def test_plan_game_load_error(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text((DATA / "toy.game").read_text().replace(
        "trans h0 go {} -> t0 : 0.7", "trans h0 go {} -> t0 : 0.69"))
    code, _, err = run(capsys, "plan", "--formula", "D{geom:0.5} b & F goal",
                       "--game", str(bad), "--uniform-T", "3")
    assert code == 3
    assert "sums to" in err




def test_plan_outputs_independent_of_hash_seed(tmp_path):
    # outcome probabilities multiply per-event hazards; in the iteration
    # order of a set of event names the last digits of this mission's
    # values changed with the string hash seed
    grid = DATA / "three_bus.grid"
    src = str(Path(mitlplan.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hashseed{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "mitlplan.cli", "plan",
                        "--formula", THREE_BUS, "--grid", str(grid),
                        "--eps", "0.2", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    for name in ("values.txt", "policy.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_plan_on_explicit_game(tmp_path, capsys):
    code, out, _ = run(capsys, "plan",
                       "--formula", "D{geom:0.5} b & F (b & F[0,1] goal)",
                       "--game", str(DATA / "toy.game"),
                       "--eps", "0.05", "--out", str(tmp_path))
    assert code == 0
    v = float(out.split("satisfaction-probability: ")[1].splitlines()[0])
    assert 0.0 < v < 1.0


def test_plan_eps_and_T_conflict(tmp_path, capsys):
    code, _, err = run(capsys, "plan", "--formula", BUS_CASE2,
                       "--grid", str(DATA / "case2.grid"),
                       "--uniform-T", "3", "--eps", "0.1")
    assert code == 2


def test_plan_grid_event_mismatch(tmp_path, capsys):
    code, _, err = run(capsys, "plan", "--formula", BUS_CASE1,
                       "--grid", str(DATA / "case2.grid"), "--uniform-T", "3")
    assert code == 3
    assert "disagree" in err


def test_monitor_accept(tmp_path, capsys):
    word = tmp_path / "w.txt"
    word.write_text("-\nb1\n-\nb3\n")
    code, out, _ = run(capsys, "monitor", "--formula", BUS_CASE1,
                       "--word", str(word))
    assert code == 0
    assert "verdict: accept" in out
    lik = float(out.split("likelihood: ")[1].splitlines()[0])
    assert abs(lik - 0.56 * 0.7 * 0.7) < 1e-12


def test_monitor_reject_after_blown_deadlines(tmp_path, capsys):
    word = tmp_path / "w.txt"
    word.write_text("-\nb1 b2\n" + "-\n" * 7 + "b3 b4\n")
    code, out, _ = run(capsys, "monitor", "--formula", BUS_CASE1,
                       "--word", str(word))
    assert code == 0
    assert "verdict: reject" in out


def test_monitor_empty_word_inconclusive(tmp_path, capsys):
    word = tmp_path / "w.txt"
    word.write_text("")
    code, out, _ = run(capsys, "monitor", "--formula", BUS_CASE1,
                       "--word", str(word))
    assert code == 0
    assert "verdict: inconclusive-prefix" in out


def test_monitor_unknown_proposition(tmp_path, capsys):
    word = tmp_path / "w.txt"
    word.write_text("zz\n")
    code, _, err = run(capsys, "monitor", "--formula", BUS_CASE1,
                       "--word", str(word))
    assert code == 2
    assert "unknown propositions" in err


def test_bench_case1_csv(capsys):
    code, out, _ = run(capsys, "bench", "--formula", BUS_CASE1,
                       "--grid", str(DATA / "case1.grid"),
                       "--uniform-T", "3,4,5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "T,eps_achieved,states,value,iterations,wall_time_s"
    eps = [float(line.split(",")[1]) for line in lines[1:]]
    assert eps == [(1 - 0.3) ** T for T in (3, 4, 5)]
    values = [float(line.split(",")[3]) for line in lines[1:]]
    assert values == sorted(values)


def test_bench_eps_list(capsys):
    code, out, _ = run(capsys, "bench", "--formula", BUS_CASE2,
                       "--grid", str(DATA / "case2.grid"),
                       "--eps-list", "0.25,0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        eps_req_achieved = float(line.split(",")[1])
        assert eps_req_achieved < 0.25


def test_bench_needs_sweep(capsys):
    code, _, err = run(capsys, "bench", "--formula", BUS_CASE2,
                       "--grid", str(DATA / "case2.grid"))
    assert code == 2
