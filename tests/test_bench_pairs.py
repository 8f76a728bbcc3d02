"""Smoke test of the paired benchmark driver: one short pair, HEAD against HEAD."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_one_pair_writes_a_bench_file(tmp_path):
    inside = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True)
    if inside.returncode != 0:
        pytest.skip("not a git checkout")
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, "scripts/bench_pairs.py", "--parent", "HEAD", "--workload",
         "tiny-exact", "--pairs", "1", "--seconds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["parent_sha"] == doc["change_sha"]
    assert doc["machine"]["cpus"] >= 1
    work = doc["workloads"]["tiny-exact"]
    assert len(work["runs"]["parent"]) == len(work["runs"]["change"]) == 1
    assert all(r["correct"] for side in work["runs"].values() for r in side)
    ddqn = work["summary"]["ddqn_decisions_per_s"]
    assert ddqn["pairs"] == 1 and ddqn["parent"]["median"] > 0
