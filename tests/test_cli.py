"""Command-line surface: verbs, flags, file contracts, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from sagin_sfc import cli
from sagin_sfc.config import load_config
from sagin_sfc.env import ScheduleLog
from sagin_sfc.scenario import build_instance
from sagin_sfc.validator import check_schedule

TINY = "configs/tiny.yaml"
HEADER = "episode,mean_reward,completed_sfcs,node_utilization,wall_seconds"


def _run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def witness_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("witness")
    rc = _run("solve-exact", "--config", TINY, "--out-dir", str(out))
    assert rc == 0
    return out


def test_run_writes_contracted_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SAGIN_SEED", raising=False)
    rc = _run("run", "--config", TINY, "--agent", "qlearning", "--episodes", "12",
              "--seed", "5", "--out-dir", str(tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert "agent=qlearning seed=5 episodes=12" in out

    csv_path = tmp_path / "metrics_qlearning_seed5.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 1 + 12
    assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(1, 13))
    for line in lines[1:]:
        episode, reward, completed, util, wall = line.split(",")
        float(reward), float(util), float(wall)
        assert int(completed) >= 0

    summary = json.loads((tmp_path / "summary_qlearning_seed5.json").read_text())
    assert summary["agent"] == "qlearning"
    assert summary["seed"] == 5
    assert summary["episodes"] == 12
    assert summary["total_sfcs"] == 2
    assert summary["config"]["run"]["episodes"] == 12
    assert set(summary["final_greedy"]) == {"mean_reward", "completed_sfcs",
                                            "node_utilization"}

    # the recorded greedy episode must itself be a feasible schedule
    log_text = (tmp_path / "schedule_qlearning_seed5.jsonl").read_text()
    log = ScheduleLog.from_jsonl(log_text)
    cfg = load_config(TINY)
    instance = build_instance(cfg, 5)
    assert check_schedule(log, instance) == []

    # and the validate verb agrees
    rc = _run("validate", str(tmp_path / "schedule_qlearning_seed5.jsonl"),
              "--config", TINY, "--seed", "5")
    assert rc == 0
    assert "feasible" in capsys.readouterr().out


def test_repeat_runs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("SAGIN_SEED", raising=False)
    argv = ("run", "--config", TINY, "--agent", "qlearning", "--episodes", "10",
            "--seed", "3", "--out-dir", str(tmp_path))
    assert _run(*argv) == 0
    names = ["metrics_qlearning_seed3.csv", "summary_qlearning_seed3.json",
             "schedule_qlearning_seed3.jsonl"]
    first = {n: (tmp_path / n).read_bytes() for n in names}
    assert _run(*argv) == 0
    for n in names:
        assert (tmp_path / n).read_bytes() == first[n]


def test_seed_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("SAGIN_SEED", "42")
    base = ("run", "--config", TINY, "--agent", "qlearning", "--episodes", "3")

    assert _run(*base, "--out-dir", str(tmp_path / "env")) == 0
    assert (tmp_path / "env" / "summary_qlearning_seed42.json").exists()

    assert _run(*base, "--seed", "7", "--out-dir", str(tmp_path / "cli")) == 0
    assert (tmp_path / "cli" / "summary_qlearning_seed7.json").exists()

    monkeypatch.delenv("SAGIN_SEED")
    assert _run(*base, "--out-dir", str(tmp_path / "cfg")) == 0
    assert (tmp_path / "cfg" / "summary_qlearning_seed1.json").exists()


def test_set_overrides_apply(tmp_path, monkeypatch):
    monkeypatch.delenv("SAGIN_SEED", raising=False)
    rc = _run("run", "--config", TINY, "--agent", "sarsa", "--seed", "2",
              "--set", "run.episodes=7", "--set", "agent.tabular_alpha=0.2",
              "--out-dir", str(tmp_path))
    assert rc == 0
    lines = (tmp_path / "metrics_sarsa_seed2.csv").read_text().splitlines()
    assert len(lines) == 1 + 7
    summary = json.loads((tmp_path / "summary_sarsa_seed2.json").read_text())
    assert summary["config"]["agent"]["tabular_alpha"] == 0.2


def test_compare_aggregates_cells(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SAGIN_SEED", raising=False)
    rc = _run("compare", "--config", TINY, "--episodes", "8",
              "--agents", "qlearning,sarsa", "--seeds", "3,4",
              "--out-dir", str(tmp_path))
    assert rc == 0
    doc = json.loads((tmp_path / "comparison.json").read_text())
    assert doc["agents"] == ["qlearning", "sarsa"]
    assert doc["seeds"] == [3, 4]
    assert len(doc["cells"]) == 4
    assert set(doc["instance_fingerprints"]) == {"3", "4"}
    for kind in ("qlearning", "sarsa"):
        assert set(doc["summary"][kind]) == {"completed_mean", "completed_std",
                                             "utilization_mean", "utilization_std"}
        for seed in (3, 4):
            assert (tmp_path / f"metrics_{kind}_seed{seed}.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_solve_exact_writes_witness(witness_dir, capsys):
    path = witness_dir / "witness_seed1.jsonl"
    assert path.exists()
    cfg = load_config(TINY)
    instance = build_instance(cfg, 1)
    witness = ScheduleLog.from_jsonl(path.read_text())
    assert check_schedule(witness, instance) == []


def test_validate_flags_infeasible_log(witness_dir, tmp_path, capsys):
    text = (witness_dir / "witness_seed1.jsonl").read_text()
    duplicate = next(l for l in text.splitlines() if '"var": "x"' in l)
    corrupted = tmp_path / "corrupted.jsonl"
    corrupted.write_text(text + duplicate + "\n")
    rc = _run("validate", str(corrupted), "--config", TINY)
    assert rc == 1
    out = capsys.readouterr().out
    assert "infeasible" in out
    assert "unique-placement" in out
    # a placement at a node the instance lacks is a violation, not a crash
    cfg = load_config(TINY)
    absent = build_instance(cfg, 1).rteg.node_count
    stray = json.loads(duplicate) | {"node": absent}
    corrupted.write_text(text + json.dumps(stray) + "\n")
    assert _run("validate", str(corrupted), "--config", TINY) == 1
    assert "node the instance lacks" in capsys.readouterr().out


def test_exit_code_two_on_bad_inputs(tmp_path, capsys):
    assert _run("run", "--config", "configs/nope.yaml",
                "--out-dir", str(tmp_path)) == 2
    assert _run("run", "--config", TINY, "--set", "run.bogus=1",
                "--out-dir", str(tmp_path)) == 2
    assert _run("run", "--config", TINY, "--set", "run.episodes=abc",
                "--out-dir", str(tmp_path)) == 2
    assert _run("validate", str(tmp_path / "missing.jsonl"), "--config", TINY) == 2
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not json\n")
    assert _run("validate", str(garbage), "--config", TINY) == 2
    # well-formed JSON, but a record names no chain of the instance or lacks a key
    for record in ({"var": "y", "k": 99, "node": 2, "t": 3, "value": 1},
                   {"var": "x", "k": 1, "t": 3, "vnf": 1, "value": 1}):
        garbage.write_text(json.dumps(record) + "\n")
        assert _run("validate", str(garbage), "--config", TINY) == 2, record
    # exact solving a full-size scenario must refuse, not hang
    assert _run("solve-exact", "--config", "configs/default.yaml",
                "--out-dir", str(tmp_path)) == 2
    # settings that only fail together, or deep inside a run
    for sets in (["scenario.satellite_orbits=[{altitude_m: 5e5}]"],  # tiny has no satellite
                 ["workload.vnf_min=3", "workload.vnf_max=2"],
                 ["scenario.slot_count=0"],
                 ["agent.discount=1.0"],
                 ["scenario.range_limits={g2u: 5.0}"],
                 ["agent.optimizer=bogus"],
                 ["agent.replay_capacity=0"],
                 ["agent.batch_size=0"],
                 ["agent.target_sync_steps=0"],
                 ["scenario.slot_seconds=0"],
                 ["workload.count=0"],
                 ["scenario.uav_min_separation_m=1e6"],  # no room to place the UAVs
                 ["scenario.uav_count=-1"],
                 ["scenario.satellite_count=-1"],
                 ["radio.sat_budget_denominator=bogus"],  # tiny prices no satellite link
                 ["workload.data_min_bits=1e10"],
                 ["workload.sigma_min_bits=1e10"],
                 ["scenario.uav_compute_rate_bps=0"],
                 ["scenario.sat_compute_rate_bps=0"],  # tiny has no satellite
                 ["run.step_cap=-1"],
                 ["run.step_cap=0"]):
        argv = ["run", "--config", TINY, "--out-dir", str(tmp_path)]
        for pair in sets:
            argv += ["--set", pair]
        argv += ["--episodes", "2"]
        assert _run(*argv) == 2, sets
    assert capsys.readouterr().err.count("error:") == 29


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_three_on_divergence(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SAGIN_SEED", raising=False)
    # a step size this large overflows activations within two updates
    rc = _run("run", "--config", TINY, "--agent", "ddqn", "--episodes", "6",
              "--seed", "1", "--set", "agent.learning_rate=1e300",
              "--out-dir", str(tmp_path))
    assert rc == 3
    assert "diverged" in capsys.readouterr().err
