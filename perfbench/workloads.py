"""Benchmark inputs and one round of operations per workload.

Every workload runs the same kinds of operation on its own inputs: a
training cell per agent (``learn.train`` from scratch), a greedy episode per
trained agent, and an exact solve per tiny instance. The workloads differ in
the training scenario and in the size of the exact set, which decides which
layers carry the time. A round repeats identical operations on identical
inputs, so every round does the same work and its outputs repeat exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sagin_sfc import config, learn, oracle, scenario
from sagin_sfc.env import SaginEnv

from perfbench import checks

AGENTS = ("ddqn", "dqn", "qlearning", "sarsa")

# Structural shapes of the tiny instances, all inside oracle.check_tiny's
# bounds: (chains, UAVs, satellites, slots, longest deadline, most VNFs).
# Two chains on two UAVs is the heaviest search: at two VNFs or a deadline
# of 6 slots or more, one such instance can take as long as the other five
# shapes together. So it keeps one VNF and a 5-slot deadline; at 4 slots
# none of its chains can complete, which would leave its optimum untested.
TINY_SHAPES = (
    (1, 2, 0, 9, 9, 2),
    (2, 1, 0, 8, 8, 2),
    (2, 1, 1, 8, 8, 2),
    (2, 2, 0, 8, 5, 1),
    (3, 1, 0, 7, 7, 2),
    (3, 1, 0, 8, 8, 2),
)
# Instances per cycle of the exact set: every shape with every deadline
# step (4) and VNF step (2).
TINY_CYCLE = len(TINY_SHAPES) * 4 * 2


@dataclass(frozen=True)
class Workload:
    name: str
    config_file: str  # training scenario, under configs/
    train_instances: int  # instances each agent trains on per round
    episodes: int  # training episodes per cell
    train_seed: int | None  # seed of the training side; None: the run's seed
    exact_count: int  # instances in the exact set
    exact_seed: int | None  # seed of the exact set; None: the run's seed
    why: str


# Each workload draws its main side from the run's seed and keeps its side
# figures on inputs that are the same for every seed, so they do not swing
# with the draw. The training workloads solve one instance of each tiny
# shape. tiny-exact draws its 96 instances (two cycles) from the run's seed
# and trains on eight tiny instances, because the cost of a decision on one
# of them depends on how many chains stay active.
WORKLOADS = {w.name: w for w in (
    Workload("desk-train", "desk.yaml", 1, 10, None, len(TINY_SHAPES), 0,
             "desk scale: learning and the dense net carry most of the time"),
    Workload("default-train", "default.yaml", 1, 2, None, len(TINY_SHAPES), 0,
             "full scale: instance build dominates set-up, action masks dominate decisions"),
    Workload("tiny-exact", "tiny.yaml", 8, 12, 0, 2 * TINY_CYCLE, None,
             "exact search on 96 tiny instances: env step, snapshot, restore, memo keys; "
             "learning only at tiny scale"),
)}


def tiny_config(i: int, rng: np.random.Generator) -> config.RunConfig:
    """Instance `i` of an exact set; the rest of its description drawn from `rng`.

    The index fixes what decides the size of the search, as the digits of
    a mixed-radix number: the shape cycles fastest, then the deadline of
    every chain through 5..8 slots, then the VNFs per chain through 1..2,
    each capped by the shape. So every TINY_CYCLE instances hold every
    combination once and the set's total work hardly depends on the seed.
    `rng` draws UAV placement, VNF and payload sizes and endpoints.
    """
    shape = i % len(TINY_SHAPES)
    step = i // len(TINY_SHAPES)
    chains, uavs, sats, slots, max_deadline, max_vnfs = TINY_SHAPES[shape]
    cfg = config.default_config()
    sc = cfg.scenario
    sc.uav_count, sc.satellite_count, sc.slot_count = uavs, sats, slots
    sc.satellite_orbits = sc.satellite_orbits[:sats]
    cfg.radio.n0_dbm_per_hz = -160.0
    w = cfg.workload
    w.count = chains
    w.vnf_min = w.vnf_max = min(1 + (step // 4) % 2, max_vnfs)
    w.data_min_bits, w.data_max_bits = 5e7, 1.2e8
    w.sigma_min_bits, w.sigma_max_bits = 1e8, 4e8
    w.deadline_min_slots = w.deadline_max_slots = min(5 + step % 4, max_deadline)
    # the placement seed comes from the same stream, so one rng fixes the instance
    cfg.run.seed = int(rng.integers(2**31))
    return cfg


@dataclass
class Inputs:
    cfg: config.RunConfig
    instances: list  # training instances
    tiny: list  # the exact set
    seed: int  # seed of the training side and of every random-policy episode
    setup_s: float  # summed wall time of the build_instance calls


def build_inputs(workload: Workload, seed: int, root: Path) -> Inputs:
    """The set-up: the training instances and the exact set."""
    setup_s = 0.0

    def build(cfg, instance_seed):
        nonlocal setup_s
        start = time.perf_counter()
        instance = scenario.build_instance(cfg, instance_seed)
        setup_s += time.perf_counter() - start
        return instance

    cfg = config.load_config(str(root / "configs" / workload.config_file))
    cfg.run.episodes = workload.episodes
    train_seed = seed if workload.train_seed is None else workload.train_seed
    seeds = [train_seed] + [
        int(np.random.SeedSequence([train_seed, 17, j]).generate_state(1)[0])
        for j in range(1, workload.train_instances)]
    instances = [build(cfg, s) for s in seeds]
    exact_seed = seed if workload.exact_seed is None else workload.exact_seed
    tiny = []
    for i in range(workload.exact_count):
        rng = np.random.default_rng(np.random.SeedSequence([exact_seed, 11, i]))
        tcfg = tiny_config(i, rng)
        tiny.append(build(tcfg, tcfg.run.seed))
        oracle.check_tiny(tiny[-1])
    return Inputs(cfg, instances, tiny, train_seed, setup_s)


class CountingEnv(SaginEnv):
    """SaginEnv that counts decisions (one per chain action passed to step)
    and notes the count at each reset, where episodes start."""

    def __init__(self, *args, **kwargs):
        self.decisions = 0
        self.resets: list = []  # decisions so far at each reset
        super().__init__(*args, **kwargs)

    def reset(self):
        self.resets.append(self.decisions)
        return super().reset()

    def step(self, actions):
        self.decisions += len(actions)
        return super().step(actions)


def random_episode(env: SaginEnv, rng: np.random.Generator) -> int:
    """One episode of uniformly random masked actions; returns the objective."""
    env.reset()
    while not env.episode_over:
        actions = {}
        for k in env.active_sfcs():
            valid = np.flatnonzero(env.action_mask(k))
            actions[k] = int(valid[rng.integers(valid.size)])
        env.step(actions)
    return env.objective()


@dataclass
class RoundResult:
    train: dict = field(default_factory=dict)  # (agent, instance) -> [(decisions, seconds)] per episode
    exact: dict = field(default_factory=dict)  # tiny instance -> seconds
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # wrong outputs
    failures: list = field(default_factory=list)  # operations that raised


def _operation(result: RoundResult, fn, *args):
    """Run one operation; a raised exception counts it as failed."""
    result.attempted += 1
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the round goes on and reports it
        result.failed += 1
        result.failures.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
        return None


def _train_cell(inputs: Inputs, j: int, kind: str):
    cfg, instance = inputs.cfg, inputs.instances[j]
    env = CountingEnv(instance, step_cap=cfg.run.step_cap)
    rng = np.random.default_rng(np.random.SeedSequence([inputs.seed, 7, AGENTS.index(kind), j]))
    agent = learn.make_agent(kind, instance.rteg.node_count, cfg.agent, rng)
    env.resets.clear()
    records = learn.train(env, agent, cfg.run.episodes, cfg.agent, rng, measure_wall_time=True)
    marks = env.resets + [env.decisions]
    episodes = [(d1 - d0, r.wall_seconds) for d0, d1, r in zip(marks, marks[1:], records)]
    return agent, records, episodes


def _greedy_episode(inputs: Inputs, j: int, agent):
    env = SaginEnv(inputs.instances[j], record_log=True, step_cap=inputs.cfg.run.step_cap)
    rng = np.random.default_rng(np.random.SeedSequence([inputs.seed, 99, j]))
    return env, learn.evaluate_greedy(env, agent, rng)


def _train_and_check(out: RoundResult, inputs: Inputs, j: int, kind: str, span) -> None:
    """One training cell and the greedy episode of the agent it trained."""
    instance, horizon = inputs.instances[j], inputs.cfg.run.step_cap
    with span(f"bench.train.{kind}"):
        cell = _operation(out, _train_cell, inputs, j, kind)
    if cell is None:
        out.attempted += 1  # its greedy episode cannot run
        out.failed += 1
        return
    agent, records, episodes = cell
    out.train[kind, j] = episodes
    for r in records:
        out.problems += checks.check_utilisation(r.node_utilization, f"{kind} episode {r.episode}")
    with span(f"bench.greedy.{kind}"):
        greedy = _operation(out, _greedy_episode, inputs, j, agent)
    if greedy is None:
        return
    env, (_reward, completed, utilisation) = greedy
    with span("bench.check"):
        if completed != env.objective():
            out.problems.append(f"{kind}: greedy completed {completed} != "
                                f"env objective {env.objective()}")
        out.problems += checks.check_log(env.log, instance, env.objective(), horizon)
        out.problems += checks.check_utilisation(utilisation, f"{kind} greedy")


def play_round(inputs: Inputs, span) -> RoundResult:
    """One round: every agent trained on every training instance, its greedy
    episode, a random-policy episode per training instance, the exact set.

    Only ``learn.train`` and ``oracle.solve_exact`` sit inside the timed
    sections; output checks run between them. `span` opens a benchmark-level
    trace span (a no-op context when the run is not traced).
    """
    out = RoundResult()
    horizon = inputs.cfg.run.step_cap
    for j, instance in enumerate(inputs.instances):
        for kind in AGENTS:
            _train_and_check(out, inputs, j, kind, span)
        with span("bench.check"):
            env = SaginEnv(instance, record_log=True, step_cap=horizon)
            random_episode(env, np.random.default_rng(np.random.SeedSequence([inputs.seed, 5, j])))
            out.problems += checks.check_log(env.log, instance, env.objective(), horizon)
            out.problems += checks.check_utilisation(env.utilization(), "random policy")

    for i, tiny in enumerate(inputs.tiny):
        with span("bench.exact"):
            start = time.perf_counter()
            solved = _operation(out, oracle.solve_exact, tiny)
            elapsed = time.perf_counter() - start
        if solved is None:
            continue
        out.exact[i] = elapsed
        optimum, witness = solved
        with span("bench.check"):
            out.problems += checks.check_log(witness, tiny, optimum)
            env = SaginEnv(tiny)
            rng = np.random.default_rng(np.random.SeedSequence([inputs.seed, 13, i]))
            out.problems += checks.check_optimum(optimum, random_episode(env, rng),
                                                 len(tiny.requests))
    return out
