"""Time-expanded network topology: node placement, orbits, per-slot links.

Positions live in a local scene frame (metres): x east, y north, z up, with
the origin on the ground. Satellites fly idealized circular orbits whose
track passes directly over the scene origin at orbit angle 0, so a satellite
with phase 0 sits at (0, 0, altitude) in slot 1. Slots are 1-based.

The graph is two dense (slot, src, dst) arrays, computed once by
broadcasting: `distances` in metres and `kinds`, a code into LINK_KINDS
wherever the node kinds and the range limit allow a directed link, -1
elsewhere. Storage self-links are implicit: UAVs and satellites hold data
from one slot to the next.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import ConfigError, OrbitConfig, RangeLimits, ScenarioConfig

EARTH_RADIUS_M = 6.371e6
EARTH_MU = 3.986004418e14  # m^3/s^2


class NodeKind(Enum):
    GROUND = "ground"
    UAV = "uav"
    SATELLITE = "satellite"


class LinkKind(Enum):
    G2U = "g2u"
    U2G = "u2g"
    U2U = "u2u"
    U2S = "u2s"
    S2S = "s2s"
    S2G = "s2g"


# link kind of each code in Rteg.kinds
LINK_KINDS = tuple(LinkKind)

# directed kind table: (src kind, dst kind) -> link kind; S->U and G<->G/G->S absent
_LINK_KINDS = {
    (NodeKind.GROUND, NodeKind.UAV): LinkKind.G2U,
    (NodeKind.UAV, NodeKind.GROUND): LinkKind.U2G,
    (NodeKind.UAV, NodeKind.UAV): LinkKind.U2U,
    (NodeKind.UAV, NodeKind.SATELLITE): LinkKind.U2S,
    (NodeKind.SATELLITE, NodeKind.SATELLITE): LinkKind.S2S,
    (NodeKind.SATELLITE, NodeKind.GROUND): LinkKind.S2G,
}


@dataclass
class NodeSpec:
    node_id: int
    kind: NodeKind
    compute_capacity_bits: float = 0.0  # cap on resident VNF sizes per slot
    compute_rate_bps: float = 0.0
    storage_bits: float = 0.0
    energy_budget_j: float = 0.0
    # UAV airframe (unused for ground/satellite)
    mass_kg: float = 0.0
    rotor_radius_m: float = 0.0
    rotor_count: int = 0
    max_speed_mps: float = 0.0
    max_power_w: float = 0.0


@dataclass
class Rteg:
    """Per-slot node replicas and typed directed links, as (slot, src, dst) arrays."""

    slot_count: int
    slot_seconds: float
    nodes: list  # list[NodeSpec]
    positions: np.ndarray  # (node_count, slot_count, 3) metres
    distances: np.ndarray  # (slot_count, node_count, node_count) metres
    kinds: np.ndarray  # same shape, int8 code into LINK_KINDS; -1 where no link

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def position(self, node_id: int, slot: int) -> np.ndarray:
        return self.positions[node_id, slot - 1]

    def link(self, src: int, dst: int, slot: int) -> LinkKind | None:
        """Kind of the src -> dst link in a slot; None if absent or out of range."""
        n = self.node_count
        if not (1 <= slot <= self.slot_count and 0 <= src < n and 0 <= dst < n):
            return None
        code = self.kinds.item(slot - 1, src, dst)
        return LINK_KINDS[code] if code >= 0 else None

    def nodes_of_kind(self, kind: NodeKind) -> list:
        return [n.node_id for n in self.nodes if n.kind is kind]

    def canonical(self) -> tuple:
        """Deterministic structural summary for equality/determinism checks."""
        link_part = tuple(
            (t + 1, tuple((src, dst, LINK_KINDS[self.kinds[t, src, dst]].value)
                          for src, dst in np.argwhere(self.kinds[t] >= 0).tolist()))
            for t in range(self.slot_count)
        )
        pos_part = tuple(map(tuple, np.round(self.positions, 6).reshape(-1, 3)))
        return (self.slot_count, link_part, pos_part)


def place_uavs(
    count: int,
    disc_radius_m: float,
    min_separation_m: float,
    altitude_m: float,
    rng: np.random.Generator,
    attempts: int = 10_000,
) -> np.ndarray:
    """Rejection-sample UAV positions in a horizontal disc with pairwise separation.

    Returns (count, 3) positions at the shared altitude. Raises ConfigError
    when the attempt budget runs out (infeasible density).
    """
    placed: list[np.ndarray] = []
    for _ in range(count):
        for attempt in range(attempts):
            r = disc_radius_m * math.sqrt(rng.uniform())
            theta = rng.uniform(0.0, 2.0 * math.pi)
            p = np.array([r * math.cos(theta), r * math.sin(theta), altitude_m])
            if all(np.linalg.norm(p[:2] - q[:2]) >= min_separation_m for q in placed):
                placed.append(p)
                break
        else:
            raise ConfigError(
                f"could not place UAV {len(placed)} after {attempts} attempts "
                f"(radius {disc_radius_m} m, separation {min_separation_m} m)"
            )
    return np.array(placed).reshape(count, 3)


def orbit_period_s(altitude_m: float) -> float:
    a = EARTH_RADIUS_M + altitude_m
    return 2.0 * math.pi * math.sqrt(a**3 / EARTH_MU)


def propagate_satellite(orbit: OrbitConfig, slot: int, slot_seconds: float) -> np.ndarray:
    """Scene-frame position of a satellite on its circular orbit at a slot.

    Orbit angle theta = phase + omega * (slot - 1) * tau. The orbit plane is
    inclined about the scene's east axis; theta = 0 is directly overhead.
    """
    radius = EARTH_RADIUS_M + orbit.altitude_m
    omega = 2.0 * math.pi / orbit_period_s(orbit.altitude_m)
    theta = orbit.phase_rad + omega * (slot - 1) * slot_seconds
    ci, si = math.cos(orbit.inclination_rad), math.sin(orbit.inclination_rad)
    # earth-centred: x through the scene origin, then shift to the surface frame
    ecef = radius * np.array([math.cos(theta), math.sin(theta) * ci, math.sin(theta) * si])
    return np.array([ecef[1], ecef[2], ecef[0] - EARTH_RADIUS_M])


def load_satellite_trace(path: str, satellite_count: int, slot_count: int) -> np.ndarray:
    """Read a per-slot satellite position trace: node_id,slot,x_m,y_m,z_m."""
    positions = np.full((satellite_count, slot_count, 3), np.nan)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = ["node_id", "slot", "x_m", "y_m", "z_m"]
        if reader.fieldnames != expected:
            raise ValueError(f"trace header must be {','.join(expected)}")
        for row in reader:
            sat, slot = int(row["node_id"]), int(row["slot"])
            if not (0 <= sat < satellite_count and 1 <= slot <= slot_count):
                raise ValueError(f"trace row out of range: sat {sat}, slot {slot}")
            positions[sat, slot - 1] = (
                float(row["x_m"]),
                float(row["y_m"]),
                float(row["z_m"]),
            )
    if np.isnan(positions).any():
        raise ValueError("trace does not cover every satellite and slot")
    return positions


def _uav_trajectory(
    base: np.ndarray, waypoints: list, slot_count: int
) -> np.ndarray:
    """Piecewise-linear waypoint interpolation; stationary hover without waypoints."""
    track = np.tile(base, (slot_count, 1))
    if not waypoints:
        return track
    pts = sorted((int(w[0]), np.array(w[1:4], dtype=float)) for w in waypoints)
    if pts[0][0] > 1:
        pts.insert(0, (1, base.astype(float)))
    slots = np.array([p[0] for p in pts])
    coords = np.array([p[1] for p in pts])
    for t in range(1, slot_count + 1):
        if t <= slots[0]:
            track[t - 1] = coords[0]
        elif t >= slots[-1]:
            track[t - 1] = coords[-1]
        else:
            k = int(np.searchsorted(slots, t, side="right")) - 1
            frac = (t - slots[k]) / (slots[k + 1] - slots[k])
            track[t - 1] = coords[k] + frac * (coords[k + 1] - coords[k])
    return track


def build_nodes(cfg: ScenarioConfig, energy_budgets: tuple) -> list:
    """NodeSpec list ordered ground, UAVs, satellites; ids are positional."""
    e_uav, e_sat = energy_budgets
    nodes = []
    for _ in cfg.ground_positions_m:
        nodes.append(NodeSpec(node_id=len(nodes), kind=NodeKind.GROUND))
    for _ in range(cfg.uav_count):
        nodes.append(
            NodeSpec(
                node_id=len(nodes),
                kind=NodeKind.UAV,
                compute_capacity_bits=cfg.uav_compute_capacity_bits,
                compute_rate_bps=cfg.uav_compute_rate_bps,
                storage_bits=cfg.uav_storage_bits,
                energy_budget_j=e_uav,
                mass_kg=cfg.uav_mass_kg,
                rotor_radius_m=cfg.uav_rotor_radius_m,
                rotor_count=cfg.uav_rotor_count,
                max_speed_mps=cfg.uav_max_speed_mps,
                max_power_w=cfg.uav_max_power_w,
            )
        )
    for _ in range(cfg.satellite_count):
        nodes.append(
            NodeSpec(
                node_id=len(nodes),
                kind=NodeKind.SATELLITE,
                compute_capacity_bits=cfg.sat_compute_capacity_bits,
                compute_rate_bps=cfg.sat_compute_rate_bps,
                storage_bits=cfg.sat_storage_bits,
                energy_budget_j=e_sat,
            )
        )
    return nodes


def build_positions(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """(node, slot, xyz) tracks for every node over the horizon."""
    T = cfg.slot_count
    ground = np.array(cfg.ground_positions_m, dtype=float).reshape(-1, 3)
    uav_base = (
        place_uavs(
            cfg.uav_count,
            cfg.uav_disc_radius_m,
            cfg.uav_min_separation_m,
            cfg.uav_altitude_m,
            rng,
            cfg.placement_attempts,
        )
        if cfg.uav_count
        else np.zeros((0, 3))
    )
    tracks = [np.tile(g, (T, 1)) for g in ground]
    for u in range(cfg.uav_count):
        waypoints = cfg.uav_waypoints.get(str(u)) or cfg.uav_waypoints.get(u) or []
        track = _uav_trajectory(uav_base[u], waypoints, T)
        step = np.linalg.norm(np.diff(track, axis=0), axis=1)
        limit = cfg.uav_max_speed_mps * cfg.slot_seconds
        if step.size and step.max() > limit + 1e-9:
            raise ValueError(f"UAV {u} waypoint speed exceeds {cfg.uav_max_speed_mps} m/s")
        tracks.append(track)
    if cfg.satellite_trace_file:
        sat = load_satellite_trace(cfg.satellite_trace_file, cfg.satellite_count, T)
        tracks.extend(sat[s] for s in range(cfg.satellite_count))
    else:
        orbits = cfg.satellite_orbits or [OrbitConfig() for _ in range(cfg.satellite_count)]
        if len(orbits) != cfg.satellite_count:
            raise ValueError("satellite_orbits length must match satellite_count")
        for orbit in orbits:
            tracks.append(
                np.array(
                    [propagate_satellite(orbit, t, cfg.slot_seconds) for t in range(1, T + 1)]
                )
            )
    return np.stack(tracks) if tracks else np.zeros((0, T, 3))


def build_rteg(
    nodes: list,
    positions: np.ndarray,
    slot_count: int,
    slot_seconds: float,
    ranges: RangeLimits,
) -> Rteg:
    """Wire up every slot: a typed directed link wherever kind and range allow."""
    limit = {
        LinkKind.G2U: ranges.g2u_m,
        LinkKind.U2G: ranges.u2g_m,
        LinkKind.U2U: ranges.u2u_m,
        LinkKind.U2S: ranges.u2s_m,
        LinkKind.S2S: ranges.s2s_m,
        LinkKind.S2G: ranges.s2g_m,
    }
    n = len(nodes)
    node_kind = np.array([node.kind for node in nodes], dtype=object)
    # per (src, dst) pair: the link kind code and its range limit
    pair_code = np.full((n, n), -1, dtype=np.int8)
    pair_limit = np.full((n, n), -np.inf)
    for (src_kind, dst_kind), kind in _LINK_KINDS.items():
        cell = np.outer(node_kind == src_kind, node_kind == dst_kind)
        pair_code[cell] = LINK_KINDS.index(kind)
        pair_limit[cell] = limit[kind]
    np.fill_diagonal(pair_code, -1)  # no self links: storage across slots is implicit
    by_slot = positions.transpose(1, 0, 2)  # (slot, node, xyz)
    diff = by_slot[:, :, None] - by_slot[:, None]
    # vecdot is the per-vector dot product np.linalg.norm takes, so distances match it exactly
    distances = np.sqrt(np.vecdot(diff, diff))
    kinds = np.where(distances <= pair_limit, pair_code, np.int8(-1))
    return Rteg(slot_count, slot_seconds, nodes, positions, distances, kinds)


def build_topology(cfg: ScenarioConfig, rng: np.random.Generator, energy_budgets: tuple) -> Rteg:
    nodes = build_nodes(cfg, energy_budgets)
    positions = build_positions(cfg, rng)
    return build_rteg(nodes, positions, cfg.slot_count, cfg.slot_seconds, cfg.range_limits)
