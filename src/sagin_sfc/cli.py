"""Experiment runner.

Verbs:
  run         train one agent on a config, write per-episode metrics CSV,
              a summary JSON (with the fully resolved config embedded) and
              the schedule log of a final exploitation-only episode
  compare     train several agents across seeds on identical instances,
              write per-cell metrics plus an aggregate comparison JSON
  validate    check a schedule log against the instance a config describes
  solve-exact exhaustively solve a tiny instance and write the witness log

Exit codes: 0 success (validate: feasible), 1 validate found violations,
2 configuration/input errors, 3 training divergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_dict,
    load_config,
    resolve_seed,
)
from .env import SaginEnv, ScheduleLog
from .learn import TrainingDiverged, evaluate_greedy, make_agent, train
from .oracle import InstanceTooLarge, solve_exact
from .scenario import build_instance, instance_fingerprint
from .validator import check_schedule, objective_value

CSV_HEADER = ["episode", "mean_reward", "completed_sfcs", "node_utilization",
              "wall_seconds"]
AGENT_KINDS = ("ddqn", "dqn", "qlearning", "sarsa")


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.set:
        apply_overrides(cfg, args.set)
    resolve_seed(cfg, args.seed)
    if getattr(args, "episodes", None) is not None:
        cfg.run.episodes = int(args.episodes)
    if getattr(args, "agent", None):
        cfg.agent.kind = args.agent
    if getattr(args, "out_dir", None):
        cfg.run.out_dir = args.out_dir
    if cfg.agent.kind not in AGENT_KINDS:
        raise ConfigError(f"agent.kind must be one of {AGENT_KINDS}, got {cfg.agent.kind!r}")
    return cfg


def _train_rng(seed: int, agent_kind: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, 7, AGENT_KINDS.index(agent_kind)])
    )


def _write_metrics(path: Path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([r.episode, repr(float(r.mean_reward)), r.completed_sfcs,
                             repr(float(r.node_utilization)), repr(float(r.wall_seconds))])


def _train_cell(cfg: RunConfig, seed: int, agent_kind: str, instance=None):
    """One (agent, seed) training cell; returns records and a final greedy episode."""
    instance = instance if instance is not None else build_instance(cfg, seed)
    env = SaginEnv(instance, step_cap=cfg.run.step_cap)
    rng = _train_rng(seed, agent_kind)
    agent = make_agent(agent_kind, instance.rteg.node_count, cfg.agent, rng)
    records = train(env, agent, cfg.run.episodes, cfg.agent, rng,
                    measure_wall_time=cfg.run.measure_wall_time)
    replay_env = SaginEnv(instance, record_log=True, step_cap=cfg.run.step_cap)
    greedy_rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    mean_reward, completed, utilization = evaluate_greedy(replay_env, agent, greedy_rng)
    greedy = {
        "mean_reward": float(mean_reward),
        "completed_sfcs": int(completed),
        "node_utilization": float(utilization),
    }
    return instance, records, greedy, replay_env.log


def cmd_run(args) -> int:
    cfg = _load(args)
    seed = cfg.run.seed
    kind = cfg.agent.kind
    out = Path(cfg.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    instance, records, greedy, log = _train_cell(cfg, seed, kind)
    stem = f"{kind}_seed{seed}"
    _write_metrics(out / f"metrics_{stem}.csv", records)
    with open(out / f"schedule_{stem}.jsonl", "w") as fh:
        fh.write(log.to_jsonl())
    summary = {
        "agent": kind,
        "seed": seed,
        "episodes": cfg.run.episodes,
        "total_sfcs": len(instance.requests),
        "instance_fingerprint": instance_fingerprint(instance),
        "final_greedy": greedy,
        "config": config_dict(cfg),
    }
    with open(out / f"summary_{stem}.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"run: agent={kind} seed={seed} episodes={cfg.run.episodes} "
          f"completed={greedy['completed_sfcs']}/{len(instance.requests)} "
          f"utilization={greedy['node_utilization']:.4f}")
    print(f"wrote {out / f'metrics_{stem}.csv'}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load(args)
    agents = [a.strip() for a in args.agents.split(",")] if args.agents else list(AGENT_KINDS)
    for a in agents:
        if a not in AGENT_KINDS:
            raise ConfigError(f"unknown agent {a!r}")
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",")]
    else:
        seeds = [cfg.run.seed]
    out = Path(cfg.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    fingerprints = {}
    cells = []
    for seed in seeds:
        instance = build_instance(cfg, seed)
        fingerprints[str(seed)] = instance_fingerprint(instance)
        for kind in agents:
            _inst, records, greedy, _log = _train_cell(cfg, seed, kind, instance)
            _write_metrics(out / f"metrics_{kind}_seed{seed}.csv", records)
            cells.append({"agent": kind, "seed": seed, **greedy})
            print(f"cell agent={kind} seed={seed}: "
                  f"completed={greedy['completed_sfcs']} "
                  f"utilization={greedy['node_utilization']:.4f}")

    summary = {}
    for kind in agents:
        got = [c for c in cells if c["agent"] == kind]
        comp = np.array([c["completed_sfcs"] for c in got], dtype=float)
        util = np.array([c["node_utilization"] for c in got], dtype=float)
        summary[kind] = {
            "completed_mean": float(comp.mean()),
            "completed_std": float(comp.std()),
            "utilization_mean": float(util.mean()),
            "utilization_std": float(util.std()),
        }
    doc = {
        "agents": agents,
        "seeds": seeds,
        "instance_fingerprints": fingerprints,
        "cells": cells,
        "summary": summary,
        "config": config_dict(cfg),
    }
    with open(out / "comparison.json", "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    width = max(len(a) for a in agents)
    print(f"{'agent':<{width}}  completed (mean±std)  utilization (mean±std)")
    for kind in agents:
        s = summary[kind]
        print(f"{kind:<{width}}  {s['completed_mean']:.2f} ± {s['completed_std']:.2f}"
              f"          {s['utilization_mean']:.4f} ± {s['utilization_std']:.4f}")
    print(f"wrote {out / 'comparison.json'}")
    return 0


def cmd_validate(args) -> int:
    cfg = _load(args)
    try:
        text = Path(args.log).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read log {args.log!r}: {exc}") from exc
    try:
        log = ScheduleLog.from_jsonl(text)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"malformed schedule log {args.log!r}: {exc}") from exc
    instance = build_instance(cfg, cfg.run.seed)
    try:
        violations = check_schedule(log, instance, horizon=cfg.run.step_cap)
    except ValueError as exc:
        raise ConfigError(f"malformed schedule log {args.log!r}: {exc}") from exc
    objective = objective_value(log, instance)
    if violations:
        for v in violations:
            print(v)
        print(f"infeasible: {len(violations)} violation(s), objective {objective}")
        return 1
    print(f"feasible, objective {objective}")
    return 0


def cmd_solve_exact(args) -> int:
    cfg = _load(args)
    seed = cfg.run.seed
    instance = build_instance(cfg, seed)
    optimum, witness = solve_exact(instance, step_cap=cfg.run.step_cap)
    out = Path(cfg.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"witness_seed{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(witness.to_jsonl())
    violations = check_schedule(witness, instance, horizon=cfg.run.step_cap)
    if violations:  # cannot happen if the solver is sound; belt and braces
        for v in violations:
            print(v)
        print("solver witness failed validation", file=sys.stderr)
        return 1
    print(f"optimum {optimum} of {len(instance.requests)} chains; witness {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sagin-sfc",
        description="Slot-based SFC scheduling over a space-air-ground network",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, episodes=False, agent=False):
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--seed", type=int, default=None,
                       help="seed (falls back to $SAGIN_SEED, then the config)")
        p.add_argument("--out-dir", default=None, help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override a config value (repeatable)")
        if episodes:
            p.add_argument("--episodes", type=int, default=None)
        if agent:
            p.add_argument("--agent", default=None, choices=AGENT_KINDS)

    p_run = sub.add_parser("run", help="train one agent and write metrics")
    common(p_run, episodes=True, agent=True)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="train several agents across seeds")
    common(p_cmp, episodes=True)
    p_cmp.add_argument("--agents", default=None,
                       help="comma list (default: all four)")
    p_cmp.add_argument("--seeds", default=None,
                       help="comma list of seeds (default: the resolved seed)")
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="check a schedule log against a config")
    p_val.add_argument("log", help="schedule log (JSON lines)")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_solve = sub.add_parser("solve-exact", help="exhaustive optimum for a tiny instance")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve_exact)

    return parser


def main(argv: list | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InstanceTooLarge, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
