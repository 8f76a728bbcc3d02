"""Link budgets and per-slot capacities for the six link kinds.

Ground-UAV uses a distance-squared gain model, UAV-UAV a log-distance path
loss, UAV/satellite uplinks and inter-satellite links a bit-energy budget,
and satellite-ground an SNR with free-space and rain terms. Air links map
SNR to rate through the Shannon bound; slot capacity is rate * slot length.

Every formula is elementwise: it takes a scalar distance or an array of
them. LinkRateTable evaluates each link kind once over all of that kind's
links and keeps the rates as a (slot, src, dst) array beside Rteg.kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RadioConfig
from .topology import LINK_KINDS, LinkKind, Rteg

SPEED_OF_LIGHT = 299_792_458.0  # m/s
BOLTZMANN = 1.380649e-23  # J/K


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class RadioConstants:
    """Linear-domain radio parameters, converted once from RadioConfig."""

    p_tr_g_w: float
    p_tr_u_w: float
    p_uu_w: float
    p_us_w: float
    p_ss_w: float
    p_sg_w: float
    iota0: float  # linear reference gain
    sigma_uu2_w: float
    f_uu_hz: float
    f_cen_us_hz: float
    f_cen_ss_hz: float
    f_cen_sg_hz: float
    b_gu_hz: float
    b_ug_hz: float
    b_uu_hz: float
    b_us_hz: float
    b_ss_hz: float
    b_sg_hz: float
    gain_us: float
    gain_ss: float
    gain_sg: float
    line_loss: float  # < 1
    ebn0_req: float
    margin: float
    sat_budget_denominator: str
    t_s_k: float
    n0_w_per_hz: float
    rain_db_per_km: float
    rain_slant_path_km: float

    @classmethod
    def from_config(cls, cfg: RadioConfig) -> "RadioConstants":
        return cls(
            p_tr_g_w=cfg.p_tr_g_w,
            p_tr_u_w=cfg.p_tr_u_w,
            p_uu_w=cfg.p_uu_w,
            p_us_w=cfg.p_us_w,
            p_ss_w=cfg.p_ss_w,
            p_sg_w=cfg.p_sg_w,
            iota0=db_to_linear(cfg.iota0_db),
            sigma_uu2_w=cfg.sigma_uu2_w,
            f_uu_hz=cfg.f_uu_hz,
            f_cen_us_hz=cfg.f_cen_us_hz,
            f_cen_ss_hz=cfg.f_cen_ss_hz,
            f_cen_sg_hz=cfg.f_cen_sg_hz,
            b_gu_hz=cfg.b_gu_hz,
            b_ug_hz=cfg.b_ug_hz,
            b_uu_hz=cfg.b_uu_hz,
            b_us_hz=cfg.b_us_hz,
            b_ss_hz=cfg.b_ss_hz,
            b_sg_hz=cfg.b_sg_hz,
            gain_us=db_to_linear(cfg.gain_us_db),
            gain_ss=db_to_linear(cfg.gain_ss_db),
            gain_sg=db_to_linear(cfg.gain_sg_db),
            line_loss=db_to_linear(-abs(cfg.line_loss_db)),
            ebn0_req=db_to_linear(cfg.ebn0_req_db),
            margin=db_to_linear(cfg.margin_db),
            sat_budget_denominator=cfg.sat_budget_denominator,
            t_s_k=cfg.t_s_k,
            n0_w_per_hz=dbm_to_watts(cfg.n0_dbm_per_hz),
            rain_db_per_km=cfg.rain_db_per_km,
            rain_slant_path_km=cfg.rain_slant_path_km,
        )


def g2u_snr(p_tr_w: float, iota0: float, distance_m):
    """Ground-UAV SNR: transmit power times reference gain over squared distance."""
    if np.any(distance_m <= 0):
        raise ValueError("distance must be positive")
    return p_tr_w * iota0 / distance_m**2


def u2u_path_loss_db(distance_m, f_hz: float):
    """Free-space log-distance loss between UAVs, dB."""
    if np.any(distance_m <= 0) or f_hz <= 0:
        raise ValueError("distance and frequency must be positive")
    return 20.0 * np.log10(distance_m) + 20.0 * math.log10(f_hz) - 147.55


def u2u_snr(p_w: float, f_hz: float, distance_m, noise_w: float):
    """UAV-UAV SNR through the log-distance loss over receiver noise power."""
    pl = u2u_path_loss_db(distance_m, f_hz)
    return p_w * db_to_linear(-pl) / noise_w


def free_space_factor(slant_range_m, f_hz: float):
    """(c / (4 pi S f))^2 propagation factor."""
    if np.any(slant_range_m <= 0):
        raise ValueError("slant range must be positive")
    return (SPEED_OF_LIGHT / (4.0 * math.pi * slant_range_m * f_hz)) ** 2


def sat_link_rate(
    p_w: float,
    gain_product: float,
    slant_range_m,
    f_hz: float,
    line_loss: float,
    ebn0_req: float,
    t_s_k: float,
    denominator,
):
    """Achievable bit rate of a bit-energy-budget link (uplink / inter-satellite).

    `denominator` is the final divisor: a linear link margin under the default
    reading, or the literal slant range under the alternate switch.
    """
    l_ij = free_space_factor(slant_range_m, f_hz)
    return p_w * gain_product * l_ij * line_loss / (ebn0_req * BOLTZMANN * t_s_k * denominator)


def rain_loss_linear(rain_db_per_km: float, slant_path_km: float) -> float:
    """Rain attenuation as a linear factor <= 1."""
    return db_to_linear(-abs(rain_db_per_km * slant_path_km))


def s2g_snr(
    p_w: float,
    gain_product: float,
    slant_range_m,
    f_hz: float,
    rain_linear: float,
    n0_w_per_hz: float,
    b_hz: float,
):
    """Satellite-ground SNR: EIRP through free space and rain over noise power."""
    l_ij = free_space_factor(slant_range_m, f_hz)
    return p_w * gain_product * l_ij * rain_linear / (n0_w_per_hz * b_hz)


def shannon_rate_bps(b_hz: float, snr):
    return b_hz * np.log2(1.0 + snr)


def link_rate_bps(kind: LinkKind, distance_m, k: RadioConstants):
    """Nominal point-to-point rate of a link at a given separation."""
    if kind is LinkKind.G2U:
        return shannon_rate_bps(k.b_gu_hz, g2u_snr(k.p_tr_g_w, k.iota0, distance_m))
    if kind is LinkKind.U2G:
        return shannon_rate_bps(k.b_ug_hz, g2u_snr(k.p_tr_u_w, k.iota0, distance_m))
    if kind is LinkKind.U2U:
        return shannon_rate_bps(
            k.b_uu_hz, u2u_snr(k.p_uu_w, k.f_uu_hz, distance_m, k.sigma_uu2_w)
        )
    if kind is LinkKind.U2S:
        return sat_link_rate(
            k.p_us_w, k.gain_us, distance_m, k.f_cen_us_hz,
            k.line_loss, k.ebn0_req, k.t_s_k, _sat_budget_denominator(k, distance_m),
        )
    if kind is LinkKind.S2S:
        return sat_link_rate(
            k.p_ss_w, k.gain_ss, distance_m, k.f_cen_ss_hz,
            k.line_loss, k.ebn0_req, k.t_s_k, _sat_budget_denominator(k, distance_m),
        )
    if kind is LinkKind.S2G:
        rain = rain_loss_linear(k.rain_db_per_km, k.rain_slant_path_km)
        snr = s2g_snr(
            k.p_sg_w, k.gain_sg, distance_m, k.f_cen_sg_hz, rain, k.n0_w_per_hz, k.b_sg_hz
        )
        return shannon_rate_bps(k.b_sg_hz, snr)
    raise ValueError(f"unknown link kind {kind}")


def _sat_budget_denominator(k: RadioConstants, slant_range_m):
    if k.sat_budget_denominator == "margin":
        return k.margin
    if k.sat_budget_denominator == "slant_range":
        return slant_range_m
    raise ValueError(f"unknown sat_budget_denominator {k.sat_budget_denominator!r}")


class LinkRateTable:
    """Nominal rate and slot capacity of every (src, dst, slot) link, as one array."""

    def __init__(self, rteg: Rteg, constants: RadioConstants):
        self.tau_s = rteg.slot_seconds
        self._kinds = rteg.kinds
        self.bps = np.zeros(rteg.kinds.shape)  # (slot, src, dst) rate; 0 where no link
        for code, kind in enumerate(LINK_KINDS):
            cells = rteg.kinds == code
            if cells.any():
                self.bps[cells] = link_rate_bps(kind, rteg.distances[cells], constants)
        self._slots, self._nodes = rteg.slot_count, rteg.node_count

    def has(self, src: int, dst: int, slot: int) -> bool:
        """Whether the link exists; False for a slot outside 1..T or a node outside 0..N-1."""
        n = self._nodes
        return (0 < slot <= self._slots and 0 <= src < n and 0 <= dst < n
                and self._kinds.item(slot - 1, src, dst) >= 0)

    def rate_bps(self, src: int, dst: int, slot: int) -> float:
        if not self.has(src, dst, slot):
            raise KeyError((src, dst, slot))
        return self.bps.item(slot - 1, src, dst)

    def slot_bits(self, src: int, dst: int, slot: int) -> float:
        if not self.has(src, dst, slot):
            raise KeyError((src, dst, slot))
        return self.bps.item(slot - 1, src, dst) * self.tau_s
