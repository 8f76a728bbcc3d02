"""Paired benchmark runs: a parent revision against the working tree.

    python scripts/bench_pairs.py --parent HEAD~1 --workload default-train \
        --pairs 10 --out BENCH_6.json

Exports the parent revision with `git archive` into a temporary directory
(no worktree is registered in the repository), then runs
`perfbench/run.py --trace 0` on the parent and on the working tree, pair by
pair, alternating which side goes first. Each run lasts `run_seconds` from
BENCHMARK.json unless --seconds says otherwise. Writes one JSON file with the
machine, Python and numpy versions, both revisions, every result line, and
per metric each side's median and quartiles and the change's win count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(parent_runs: list, change_runs: list, better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        a = [r["metrics"][name]["value"] for r in parent_runs]
        b = [r["metrics"][name]["value"] for r in change_runs]
        wins = sum((y > x) if direction == "higher" else (y < x) for x, y in zip(a, b))
        side = {}
        for label, values in (("parent", a), ("change", b)):
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            side[label] = {"median": statistics.median(values), "q1": q[0], "q3": q[2]}
        out[name] = {**side, "change_wins": wins, "pairs": len(a)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    doc = {
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "parent_sha": git("rev-parse", args.parent),
        "change_sha": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp) / "parent"
        export(args.parent, parent_tree)
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    tree = parent_tree if side == "parent" else ROOT
                    result = run_once(tree, workload, args.seed, seconds)
                    runs[side].append({"pair": pair, "first": order[0], **result})
                    print(workload, pair, side, json.dumps(result["metrics"]), flush=True)
            doc["workloads"][workload] = {
                "runs": runs, "summary": summarize(runs["parent"], runs["change"], better)}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
