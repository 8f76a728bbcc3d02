"""Energy accounting for UAVs and satellites.

UAVs pay hover plus movement power every slot and transmit energy per bit
sent; satellites pay a fixed operational cost per slot plus transmit and
receive energy. Compute energy is charged per processed bit on both. The
ledger tracks cumulative spend per node against its budget. The environment
and the validator both price energy through fixed_energy_j, compute_j_per_bit,
link_powers_w and transfer_charges, which read the instance's config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .topology import LinkKind, NodeKind


def uav_hover_power_w(
    mass_kg: float,
    rotor_radius_m: float,
    rotor_count: int,
    gravity: float = 9.8,
    air_density: float = 1.225,
) -> float:
    """Induced hover power: sqrt(g^3 / (2 pi rho)) * sqrt(m^3 / (r^2 n))."""
    if mass_kg <= 0 or rotor_radius_m <= 0 or rotor_count <= 0:
        raise ValueError("mass, rotor radius and rotor count must be positive")
    theta = math.sqrt(gravity**3 / (2.0 * math.pi * air_density))
    return theta * math.sqrt(mass_kg**3 / (rotor_radius_m**2 * rotor_count))


def uav_move_power_w(speed_mps: float, max_speed_mps: float, max_power_w: float, hover_w: float) -> float:
    """Movement power scales linearly with speed; clamped at zero headroom."""
    if speed_mps < 0 or max_speed_mps <= 0:
        raise ValueError("speeds must be non-negative, max speed positive")
    return (speed_mps / max_speed_mps) * max(max_power_w - hover_w, 0.0)


def uav_slot_energy_j(
    speed_mps: float,
    max_speed_mps: float,
    max_power_w: float,
    hover_w: float,
    displacement_m: float,
    tau_s: float,
) -> float:
    """Propulsion energy for one slot: movement over the displacement plus hover."""
    hover_term = hover_w * tau_s
    if displacement_m <= 0.0 or speed_mps <= 0.0:
        return hover_term
    move_w = uav_move_power_w(speed_mps, max_speed_mps, max_power_w, hover_w)
    return move_w * displacement_m / speed_mps + hover_term


def transfer_energy_j(p_w: float, delta_bits: float, rate_bps: float) -> float:
    """Radio energy for moving delta bits at a given rate: P * delta / r."""
    if rate_bps <= 0:
        raise ValueError("rate must be positive")
    return p_w * delta_bits / rate_bps


def compute_energy_j(sigma_bits: float, e_c_j_per_bit: float) -> float:
    return sigma_bits * e_c_j_per_bit


def fixed_energy_j(instance, horizon: int) -> dict:
    """Unavoidable burn over the horizon: hover/movement for UAVs, upkeep for satellites."""
    rteg, e = instance.rteg, instance.config.energy
    tau = rteg.slot_seconds
    fixed = {}
    for n in rteg.nodes:
        if n.kind is NodeKind.UAV:
            hover = uav_hover_power_w(n.mass_kg, n.rotor_radius_m, n.rotor_count,
                                      e.gravity_mps2, e.air_density_kg_m3)
            total = 0.0
            for t in range(1, horizon + 1):
                prev = rteg.position(n.node_id, max(t - 1, 1))
                here = rteg.position(n.node_id, t)
                disp = float(np.linalg.norm(here - prev))
                total += uav_slot_energy_j(disp / tau, n.max_speed_mps, n.max_power_w,
                                           hover, disp, tau)
            fixed[n.node_id] = total
        elif n.kind is NodeKind.SATELLITE:
            fixed[n.node_id] = e.e_op_sat_j_per_slot * horizon
    return fixed


def compute_j_per_bit(instance) -> list:
    """Per node id: compute energy per processed bit, the satellite rate or the UAV rate."""
    e = instance.config.energy
    return [e.e_c_sat_j_per_bit if n.kind is NodeKind.SATELLITE else e.e_c_uav_j_per_bit
            for n in instance.rteg.nodes]


def link_powers_w(instance) -> dict:
    """Per link kind: (transmit power at the source, receive power at the destination)."""
    r, e = instance.config.radio, instance.config.energy
    return {
        LinkKind.G2U: (0.0, 0.0),  # ground stations are not energy tracked
        LinkKind.U2G: (r.p_tr_u_w, 0.0),
        LinkKind.U2U: (r.p_uu_w, 0.0),
        LinkKind.U2S: (r.p_us_w, e.p_re_us_w),
        LinkKind.S2S: (r.p_ss_w, e.p_re_ss_w),
        LinkKind.S2G: (r.p_sg_w, 0.0),
    }


def transfer_charges(
    powers: dict, kind: LinkKind, src: int, dst: int, delta_bits: float, rate_bps: float
) -> list:
    """(node, joules) radio energy of one transfer: the sender first, then the receiver."""
    tx_w, rx_w = powers[kind]
    return [(node, transfer_energy_j(p_w, delta_bits, rate_bps))
            for node, p_w in ((src, tx_w), (dst, rx_w)) if p_w > 0]


@dataclass
class EnergyLedger:
    """Cumulative per-node energy spend, with running totals per (node, label)."""

    budgets: dict  # node_id -> budget J
    spent: dict = field(default_factory=dict)
    by_label: dict = field(default_factory=dict)  # (node_id, label) -> J

    def charge(self, node_id: int, label: str, joules: float) -> None:
        if joules < 0:
            raise ValueError("energy charges are non-negative")
        self.spent[node_id] = self.spent.get(node_id, 0.0) + joules
        key = (node_id, label)
        self.by_label[key] = self.by_label.get(key, 0.0) + joules

    def spent_j(self, node_id: int) -> float:
        return self.spent.get(node_id, 0.0)

    def headroom_j(self, node_id: int) -> float:
        return self.budgets.get(node_id, math.inf) - self.spent_j(node_id)

    def feasible(self, node_id: int) -> bool:
        return self.spent_j(node_id) <= self.budgets.get(node_id, math.inf) + 1e-9

    def total_by_label(self, node_id: int, label: str) -> float:
        return self.by_label.get((node_id, label), 0.0)
