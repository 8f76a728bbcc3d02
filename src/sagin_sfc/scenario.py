"""Instance assembly: topology + link rates + workload bundled for the environment.

Also hosts the hand-built three-chain contention showcase the tests use: two
UAVs, two satellites, a payload bottleneck on the second satellite, and a
late coverage window that forces the interesting ordering.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkRateTable, RadioConstants
from .config import RunConfig
from .topology import NodeKind, NodeSpec, build_rteg, build_topology
from .workload import SfcRequest, generate_workload, load_requests_csv


@dataclass
class Instance:
    """Everything the environment needs, fully precomputed.

    `config` is the one store of every price and coefficient: the energy
    model, the env and the validator read it at use time, so it must not be
    mutated once the instance is built.
    """

    rteg: object
    rates: LinkRateTable
    requests: list
    config: RunConfig = field(repr=False)


def build_instance(cfg: RunConfig, seed: int) -> Instance:
    """Deterministic build: placement and workload draw from independent streams."""
    root = np.random.SeedSequence(seed)
    place_ss, work_ss = root.spawn(2)
    rteg = build_topology(
        cfg.scenario,
        np.random.default_rng(place_ss),
        (cfg.energy.e_max_uav_j, cfg.energy.e_max_sat_j),
    )
    rates = LinkRateTable(rteg, RadioConstants.from_config(cfg.radio))
    if cfg.workload.request_file:
        requests = load_requests_csv(cfg.workload.request_file)
    else:
        ground = rteg.nodes_of_kind(NodeKind.GROUND)
        requests = generate_workload(cfg.workload, ground, np.random.default_rng(work_ss))
    return Instance(rteg, rates, requests, cfg)


def instance_fingerprint(instance: Instance) -> str:
    """Stable hash over topology, rates and workload; equal for shared instances."""
    req_part = [
        (r.k, tuple(r.sigmas_bits), r.delta_bits, r.origin, r.dest, r.deadline_slots)
        for r in instance.requests
    ]
    payload = json.dumps(
        {
            "rteg": repr(instance.rteg.canonical()),
            "requests": repr(req_part),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Hand-built contention showcase
# ---------------------------------------------------------------------------
#
# Nodes: g0 (source), g1 (sink), u2, u3 (hover at 100 m), s4 (parked overhead),
# s5 (out of reach until slot 8, then overhead). Three chains, all g0 -> g1:
#   k=1: one small VNF on u2; slack deadline.
#   k=2: three VNFs via u3 -> s4 -> s5; its last VNF fills s5 for two slots.
#   k=3: two VNFs via u2 -> s5; s5 only reachable from slot 8, deadline 12.
# s5's capacity fits either of the two contending VNFs alone, never both, so
# the order of admission at s5 decides whether chain 3 makes its deadline.

SHOWCASE_G0, SHOWCASE_G1 = 0, 1
SHOWCASE_U2, SHOWCASE_U3 = 2, 3
SHOWCASE_S4, SHOWCASE_S5 = 4, 5
SHOWCASE_WINDOW_SLOT = 8  # first slot where u2 -> s5 exists


def contention_config() -> RunConfig:
    cfg = RunConfig()
    cfg.scenario.slot_count = 14
    cfg.scenario.uav_count = 2
    cfg.scenario.satellite_count = 2
    cfg.radio.n0_dbm_per_hz = -165.0  # keeps the downlink hop inside one slot
    cfg.workload.count = 3
    return cfg


# s4 keeps the stock satellite capacity, too small for chain 2's final VNF;
# s5 is the one node that can host it, and only one of the contenders at a time.
SHOWCASE_SAT_CAPACITY = {SHOWCASE_S4: 1.6e9, SHOWCASE_S5: 2.0e9}


def contention_instance() -> Instance:
    cfg = contention_config()
    sc, T = cfg.scenario, cfg.scenario.slot_count
    nodes = [
        NodeSpec(node_id=SHOWCASE_G0, kind=NodeKind.GROUND),
        NodeSpec(node_id=SHOWCASE_G1, kind=NodeKind.GROUND),
    ]
    for node_id in (SHOWCASE_U2, SHOWCASE_U3):
        nodes.append(
            NodeSpec(
                node_id=node_id,
                kind=NodeKind.UAV,
                compute_capacity_bits=sc.uav_compute_capacity_bits,
                compute_rate_bps=sc.uav_compute_rate_bps,
                storage_bits=sc.uav_storage_bits,
                energy_budget_j=cfg.energy.e_max_uav_j,
                mass_kg=sc.uav_mass_kg,
                rotor_radius_m=sc.uav_rotor_radius_m,
                rotor_count=sc.uav_rotor_count,
                max_speed_mps=sc.uav_max_speed_mps,
                max_power_w=sc.uav_max_power_w,
            )
        )
    for node_id in (SHOWCASE_S4, SHOWCASE_S5):
        nodes.append(
            NodeSpec(
                node_id=node_id,
                kind=NodeKind.SATELLITE,
                compute_capacity_bits=SHOWCASE_SAT_CAPACITY[node_id],
                compute_rate_bps=sc.sat_compute_rate_bps,
                storage_bits=sc.sat_storage_bits,
                energy_budget_j=cfg.energy.e_max_sat_j,
            )
        )
    positions = np.zeros((6, T, 3))
    positions[SHOWCASE_G0, :] = [0.0, 0.0, 0.0]
    positions[SHOWCASE_G1, :] = [300.0, 0.0, 0.0]
    positions[SHOWCASE_U2, :] = [100.0, 0.0, 100.0]
    positions[SHOWCASE_U3, :] = [200.0, 0.0, 100.0]
    positions[SHOWCASE_S4, :] = [2.0e5, 0.0, 5.5e5]
    positions[SHOWCASE_S5, : SHOWCASE_WINDOW_SLOT - 1] = [1.95e6, 0.0, 5.5e5]
    positions[SHOWCASE_S5, SHOWCASE_WINDOW_SLOT - 1 :] = [3.0e5, 0.0, 5.5e5]
    rteg = build_rteg(nodes, positions, T, sc.slot_seconds, sc.range_limits)
    rates = LinkRateTable(rteg, RadioConstants.from_config(cfg.radio))
    requests = [
        SfcRequest(k=1, sigmas_bits=[4e8], delta_bits=4e7,
                   origin=SHOWCASE_G0, dest=SHOWCASE_G1, deadline_slots=6),
        SfcRequest(k=2, sigmas_bits=[5e8, 1e9, 2e9], delta_bits=8e7,
                   origin=SHOWCASE_G0, dest=SHOWCASE_G1, deadline_slots=14),
        SfcRequest(k=3, sigmas_bits=[4e8, 1e9], delta_bits=4e7,
                   origin=SHOWCASE_G0, dest=SHOWCASE_G1, deadline_slots=12),
    ]
    return Instance(rteg, rates, requests, cfg)


# Per-chain route plans: ordered stops with the number of VNFs that must be
# finished before leaving each stop.
SHOWCASE_PLANS = {
    1: [(SHOWCASE_G0, 0), (SHOWCASE_U2, 1), (SHOWCASE_G1, 1)],
    2: [(SHOWCASE_G0, 0), (SHOWCASE_U3, 1), (SHOWCASE_S4, 2), (SHOWCASE_S5, 3),
        (SHOWCASE_G1, 3)],
    3: [(SHOWCASE_G0, 0), (SHOWCASE_U2, 1), (SHOWCASE_S5, 2), (SHOWCASE_G1, 2)],
}

# The non-greedy variant: chain 2 holds at s4 until slot 8 so that its big VNF
# reaches s5 together with chain 3's smaller one and is admitted second.
SHOWCASE_DEFERRAL = {2: {SHOWCASE_S4: 8}}


def itinerary_actions(env, plans: dict, defer: dict | None = None) -> dict:
    """Waypoint-following actions for one slot: move on when done and allowed."""
    from .env import VnfPhase

    defer = defer or {}
    actions = {}
    for k in env.active_sfcs():
        s = env.sfcs[k]
        mask = env.action_mask(k)
        action = s.node  # default: stay (also the only option mid-transfer/processing)
        if s.phase is VnfPhase.STORED:
            plan = plans[k]
            pos = next(i for i, (node, _) in enumerate(plan) if node == s.node)
            done_here = s.vnf_index > plan[pos][1]
            hold_until = defer.get(k, {}).get(s.node, 0)
            if done_here and pos + 1 < len(plan) and env.slot >= hold_until:
                target = plan[pos + 1][0]
                if mask[target]:
                    action = target
        actions[k] = action
    return actions


def run_itinerary(env, plans: dict, defer: dict | None = None) -> int:
    """Play one full episode with the waypoint policy; returns the objective."""
    env.reset()
    while not env.episode_over:
        env.step(itinerary_actions(env, plans, defer))
    return env.objective()
