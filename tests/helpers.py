"""Shared builders for the test suite.

Two families of fixtures-by-function live here: a three-node corridor
(ground -> UAV -> ground) whose every rate and duration can be read off the
instance for exact step-level assertions, and randomized tiny instances
small enough for the exhaustive solver. Beside them sit the scalar
references the array code is checked against: the per-pair link build, the
link-scan action mask, the per-chain observation and table key, the MSE loss
used to check backprop, and the one-row DQN/DDQN bootstrap targets.
"""

from __future__ import annotations

import numpy as np

from sagin_sfc.channel import LinkRateTable, RadioConstants
from sagin_sfc.config import RunConfig
from sagin_sfc.env import VnfPhase
from sagin_sfc.scenario import Instance
from sagin_sfc.topology import _LINK_KINDS, LinkKind, NodeKind, NodeSpec, build_rteg
from sagin_sfc.workload import SfcRequest

G0, U1, G1 = 0, 1, 2


def corridor_instance(
    delta_bits: float = 2e8,
    sigmas=(4e8,),
    deadline: int = 10,
    slot_count: int = 12,
    uav_storage_bits: float = 8e9,
    e_max_uav_j: float = 8e4,
    requests: list | None = None,
):
    """One hovering UAV between two ground stations, everything else stock."""
    cfg = RunConfig()
    cfg.scenario.slot_count = slot_count
    cfg.scenario.uav_count = 1
    cfg.scenario.satellite_count = 0
    cfg.scenario.satellite_orbits = []
    cfg.radio.n0_dbm_per_hz = -160.0
    cfg.energy.e_max_uav_j = e_max_uav_j
    sc = cfg.scenario
    nodes = [
        NodeSpec(node_id=G0, kind=NodeKind.GROUND),
        NodeSpec(
            node_id=U1,
            kind=NodeKind.UAV,
            compute_capacity_bits=sc.uav_compute_capacity_bits,
            compute_rate_bps=sc.uav_compute_rate_bps,
            storage_bits=uav_storage_bits,
            energy_budget_j=e_max_uav_j,
            mass_kg=sc.uav_mass_kg,
            rotor_radius_m=sc.uav_rotor_radius_m,
            rotor_count=sc.uav_rotor_count,
            max_speed_mps=sc.uav_max_speed_mps,
            max_power_w=sc.uav_max_power_w,
        ),
        NodeSpec(node_id=G1, kind=NodeKind.GROUND),
    ]
    positions = np.zeros((3, slot_count, 3))
    positions[G0, :] = [0.0, 0.0, 0.0]
    positions[U1, :] = [100.0, 0.0, 100.0]
    positions[G1, :] = [200.0, 0.0, 0.0]
    rteg = build_rteg(nodes, positions, slot_count, sc.slot_seconds, sc.range_limits)
    rates = LinkRateTable(rteg, RadioConstants.from_config(cfg.radio))
    if requests is None:
        requests = [
            SfcRequest(k=1, sigmas_bits=list(sigmas), delta_bits=delta_bits,
                       origin=G0, dest=G1, deadline_slots=deadline)
        ]
    return Instance(rteg, rates, requests, cfg)


CORRIDOR_PLAN = {1: [(G0, 0), (U1, 1), (G1, 1)]}


def tiny_run_config(rng: np.random.Generator) -> RunConfig:
    """Random instance inside the exhaustive solver's comfort zone.

    Two ground stations plus at most two aerial/orbital nodes (four nodes
    total).  The joint-action branching grows as (nodes per chain)^chains,
    so more chains buy fewer compute nodes and a shorter horizon.
    """
    cfg = RunConfig()
    chains = int(rng.integers(1, 4))
    if chains == 3:
        uavs, sats = 1, 0
        cfg.scenario.slot_count = int(rng.integers(6, 9))
    else:
        uavs = int(rng.integers(1, 3))
        sats = int(rng.integers(0, 2)) if uavs == 1 else 0
        cfg.scenario.slot_count = int(rng.integers(6, 10))
    cfg.scenario.uav_count = uavs
    cfg.scenario.satellite_count = sats
    cfg.scenario.satellite_orbits = cfg.scenario.satellite_orbits[:sats]
    cfg.radio.n0_dbm_per_hz = -160.0
    w = cfg.workload
    w.count = chains
    w.vnf_min, w.vnf_max = 1, 2
    w.data_min_bits, w.data_max_bits = 5e7, 1.2e8
    w.sigma_min_bits, w.sigma_max_bits = 1e8, 4e8
    w.deadline_min_slots = 5
    w.deadline_max_slots = min(8, cfg.scenario.slot_count)
    return cfg


def random_policy_actions(env, rng: np.random.Generator) -> dict:
    actions = {}
    for k in env.active_sfcs():
        valid = np.flatnonzero(env.action_mask(k))
        actions[k] = int(valid[rng.integers(valid.size)])
    return actions


def run_random_episode(env, rng: np.random.Generator) -> int:
    env.reset()
    while not env.episode_over:
        env.step(random_policy_actions(env, rng))
    return env.objective()


def reference_links(nodes: list, positions: np.ndarray, slot_count: int, ranges) -> dict:
    """slot -> [(src, dst, LinkKind)], built pair by pair with np.linalg.norm."""
    limit = {
        LinkKind.G2U: ranges.g2u_m, LinkKind.U2G: ranges.u2g_m, LinkKind.U2U: ranges.u2u_m,
        LinkKind.U2S: ranges.u2s_m, LinkKind.S2S: ranges.s2s_m, LinkKind.S2G: ranges.s2g_m,
    }
    links = {}
    for t in range(1, slot_count + 1):
        links[t] = []
        for a in nodes:
            for b in nodes:
                if a.node_id == b.node_id:
                    continue
                kind = _LINK_KINDS.get((a.kind, b.kind))
                if kind is None:
                    continue
                d = np.linalg.norm(positions[a.node_id, t - 1] - positions[b.node_id, t - 1])
                if d <= limit[kind]:
                    links[t].append((a.node_id, b.node_id, kind))
    return links


def reference_action_mask(env, k: int, links: dict) -> np.ndarray:
    """The action mask by a scan over the slot's links (see reference_links)."""
    s = env.sfcs[k]
    mask = np.zeros(env.rteg.node_count, dtype=bool)
    mask[s.node] = True
    if s.phase is VnfPhase.TRANSMITTING and s.t_c > 1:
        return mask
    for src, dst, _kind in links[env.slot]:
        if src != s.node:
            continue
        if env.rteg.nodes[dst].kind in (NodeKind.UAV, NodeKind.SATELLITE):
            mask[dst] = True
        elif s.vnf_index > s.request.length and dst == s.request.dest:
            mask[dst] = True
    return mask


def reference_encode_state(env, k: int) -> np.ndarray:
    """One chain's observation, built alone from the env's own records."""
    s = env.sfcs[k]
    node_count = env.rteg.node_count
    occupancy = np.array([env.occupancy[n.node_id] for n in env.rteg.nodes])
    phase_oh = np.zeros(3)
    phase_oh[int(s.phase)] = 1.0
    node_oh = np.zeros(node_count)
    node_oh[s.node] = 1.0
    l_k = s.request.length
    progress = min(s.vnf_index, l_k) / l_k
    frac = np.divide(occupancy, env.capacity, out=np.zeros(node_count),
                     where=env.capacity > 0)
    return np.concatenate(([k / len(env.sfcs)], phase_oh, node_oh, [progress], frac))


def reference_discretize(env, k: int, tracked_nodes: int, buckets: int) -> tuple:
    """One chain's tabular key, its load levels recomputed for it alone."""
    s = env.sfcs[k]
    occupancy = np.array([env.occupancy[n.node_id] for n in env.rteg.nodes])
    levels = []
    for n in np.flatnonzero(env.capacity > 0)[:tracked_nodes]:
        frac = occupancy[n] / env.capacity[n]
        levels.append(min(buckets - 1, int(frac * buckets)))
    return (int(s.phase), s.node, min(s.vnf_index, 4), tuple(levels))


def mse_loss_and_grads(net, x: np.ndarray, y: np.ndarray) -> tuple:
    """Mean squared error over all outputs, with parameter gradients."""
    out, cache = net.forward_cached(x)
    target = np.atleast_2d(np.asarray(y, dtype=float))
    diff = out - target
    loss = float(np.mean(diff**2))
    grad_out = 2.0 * diff / diff.size
    grad_w, grad_b = net.backward(cache, grad_out)
    return loss, grad_w + grad_b


def masked_q(q: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Invalid actions pushed to -inf so max/argmax never picks them."""
    out = np.where(mask, q, -np.inf)
    if not np.any(mask):
        raise ValueError("mask admits no action")
    return out


def dqn_target(reward: float, gamma: float, terminal: bool,
               next_q_target: np.ndarray | None, next_mask: np.ndarray | None) -> float:
    """One-step bootstrap where the target net both picks and scores."""
    if terminal:
        return reward
    return reward + gamma * float(np.max(masked_q(next_q_target, next_mask)))


def ddqn_target(reward: float, gamma: float, terminal: bool,
                next_q_online: np.ndarray | None, next_q_target: np.ndarray | None,
                next_mask: np.ndarray | None) -> float:
    """Double estimator: online net picks the action, target net scores it."""
    if terminal:
        return reward
    best = int(np.argmax(masked_q(next_q_online, next_mask)))
    return reward + gamma * float(next_q_target[best])


def reference_epsilon_greedy(q: np.ndarray, mask: np.ndarray, greediness: float,
                             rng: np.random.Generator) -> int:
    """One chain's masked ε-greedy choice, drawn alone."""
    if rng.random() < greediness:
        return int(np.argmax(masked_q(q, mask)))
    valid = np.flatnonzero(mask)
    return int(valid[rng.integers(valid.size)])


def of_var(log, var: str) -> list:
    """The log's records of one variable, in order."""
    return [r for r in log.records if r["var"] == var]
