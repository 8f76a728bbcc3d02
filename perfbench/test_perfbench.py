"""The benchmark's own tests: each output check rejects a corrupted output,
the trace wraps what it claims to, and every workload runs clean."""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, tracing, workloads
from sagin_sfc import oracle, scenario

ROOT = Path(__file__).resolve().parent.parent


def _run(*args, cwd=ROOT, env=None):
    cmd = [sys.executable, "perfbench/run.py", *args, "--seconds", "1"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def solved_tiny():
    """A tiny instance whose optimum completes at least one chain, with its witness."""
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([3, 11, i]))
        cfg = workloads.tiny_config(i, rng)
        instance = scenario.build_instance(cfg, cfg.run.seed)
        optimum, witness = oracle.solve_exact(instance)
        if optimum >= 1:
            return instance, optimum, witness
    pytest.fail("no tiny instance with a completable chain")


def test_clean_witness_passes(solved_tiny):
    instance, optimum, witness = solved_tiny
    assert checks.check_log(witness, instance, optimum) == []
    assert checks.check_optimum(optimum, 0, len(instance.requests)) == []


def test_altered_log_record_is_flagged(solved_tiny):
    instance, optimum, witness = solved_tiny
    altered = copy.deepcopy(witness)
    z = next(r for r in altered.records if r["var"] == "z")
    z["share_bits"] /= 2.0  # the transfer no longer carries the payload
    assert checks.check_log(altered, instance, optimum)


def test_objective_off_by_one_is_rejected(solved_tiny):
    instance, optimum, witness = solved_tiny
    for wrong in (optimum - 1, optimum + 1):
        problems = checks.check_log(witness, instance, wrong)
        assert any("objective" in p for p in problems)


def test_completions_above_the_optimum_are_rejected():
    assert checks.check_optimum(1, 2, 3)  # a random policy beat the optimum
    assert checks.check_optimum(4, 0, 3)  # more chains than exist
    assert checks.check_optimum(2, 2, 3) == []


@pytest.mark.parametrize("value", [-0.01, 1.01, float("nan"), float("inf")])
def test_utilisation_outside_unit_interval_is_rejected(value):
    assert checks.check_utilisation(value, "x")


def test_tracer_self_time_and_parents(monkeypatch):
    ticks = iter(range(100))

    class Inner:
        def leaf(self):
            return 1

        def outer(self):
            return self.leaf() + self.leaf()

    class Box:
        pass

    box = Box()
    box.m = Box()
    box.m.Inner = Inner
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    monkeypatch.setattr(tracing, "TARGETS", (
        tracing.Target("m", "Inner", "outer", "m.outer"),
        tracing.Target("m", "Inner", "leaf", "m.leaf"),
        tracing.Target("m", "Gone", "x", "m.gone"),
    ))
    tracer.install(box)
    assert Inner().outer() == 2
    tracer.remove()
    # outer spans ticks 0..5, each leaf one tick inside it
    assert tracer.stats["m.outer"] == [1, 5, 3]
    assert tracer.stats["m.leaf"] == [2, 2, 2]
    assert tracer.edges[("m.outer", "m.leaf")] == [2, 2]
    assert tracer.absent == ["m.gone"]
    assert not hasattr(Inner.outer, "__wrapped__")  # remove() restored it


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_names()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_is_clean(workload):
    proc = _run("--workload", workload, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reaches_every_layer():
    proc = _run("--workload", "desk-train", "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert metrics["trace.absent"] == 0 and metrics["trace.uncalled"] == 0
    assert all(metrics[f"{t.label}.calls"] > 0 for t in tracing.TARGETS)


@pytest.mark.parametrize("pythonpath, message", [
    (None, "sagin_sfc not found"),
    (str(ROOT / "src"), "sagin_sfc imported from"),  # another copy is refused too
])
def test_run_without_the_package_stops(tmp_path, pythonpath, message):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath:
        env["PYTHONPATH"] = pythonpath
    proc = _run("--workload", "desk-train", "--seed", "1", "--trace", "0", cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert message in proc.stderr
    assert "{" not in proc.stdout
