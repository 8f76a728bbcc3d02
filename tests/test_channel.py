"""Link-budget formulas pinned against independently derived vectors.

Each golden value below is computed twice: once by the library and once,
inside the test, from first principles in the dB domain (or straight from
the defining physics).  The frozen literals guard against silent drift.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sagin_sfc.channel import (
    BOLTZMANN,
    SPEED_OF_LIGHT,
    LinkRateTable,
    RadioConstants,
    db_to_linear,
    dbm_to_watts,
    free_space_factor,
    g2u_snr,
    link_rate_bps,
    rain_loss_linear,
    s2g_snr,
    sat_link_rate,
    shannon_rate_bps,
    u2u_path_loss_db,
    u2u_snr,
)
from sagin_sfc.config import RadioConfig
from sagin_sfc.topology import LinkKind

from helpers import corridor_instance

REL = 1e-6


def test_db_conversions():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(30.0) == pytest.approx(1000.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(-114.0) == pytest.approx(10 ** (-14.4), rel=1e-12)


def test_golden_g2u_snr():
    # dB domain: 10 log10(0.5) + 80 - 20 log10(100) = 36.98970... dB
    snr_db = 10 * math.log10(0.5) + 80.0 - 20 * math.log10(100.0)
    independent = 10 ** (snr_db / 10)
    got = g2u_snr(0.5, db_to_linear(80.0), 100.0)
    assert got == pytest.approx(independent, rel=REL)
    assert got == pytest.approx(5000.0, rel=1e-9)


def test_golden_u2u_path_loss():
    # 20 log10(d) + 20 log10(f) - 147.55 evaluated by hand
    independent = 20 * math.log10(100.0) + 20 * math.log10(2.4e9) - 147.55
    got = u2u_path_loss_db(100.0, 2.4e9)
    assert got == pytest.approx(independent, rel=REL)
    assert got == pytest.approx(80.05422483423212, rel=1e-9)


def test_u2u_snr_matches_path_loss():
    pl = u2u_path_loss_db(150.0, 2.4e9)
    expected = 10.0 * 10 ** (-pl / 10) / 4e-13
    assert u2u_snr(10.0, 2.4e9, 150.0, 4e-13) == pytest.approx(expected, rel=1e-12)


def test_free_space_factor_definition():
    s, f = 1.2e6, 3.4e9
    expected = (SPEED_OF_LIGHT / (4 * math.pi * s * f)) ** 2
    assert free_space_factor(s, f) == pytest.approx(expected, rel=1e-12)


def test_golden_sat_link_rate():
    # EIRP-over-kT bit-rate budget, assembled term by term in the dB domain:
    # P=10 dBW, G=42 dB, L_fs = 20log10(c/(4 pi S f)), loss=-2 dB,
    # Eb/N0=10 dB, margin=3 dB, kT = 10log10(1.380649e-23 * 1000).
    lfs_db = 20 * math.log10(SPEED_OF_LIGHT / (4 * math.pi * 1.2e6 * 3.4e9))
    num_db = 10.0 + 42.0 + lfs_db - 2.0
    den_db = 10.0 + 10 * math.log10(BOLTZMANN * 1000.0) + 3.0
    independent = 10 ** ((num_db - den_db) / 10)
    got = sat_link_rate(
        10.0, db_to_linear(42.0), 1.2e6, 3.4e9,
        db_to_linear(-2.0), db_to_linear(10.0), 1000.0, db_to_linear(3.0),
    )
    assert got == pytest.approx(independent, rel=REL)
    assert got == pytest.approx(12411322.738262365, rel=1e-9)


def test_golden_s2g_snr_and_rate():
    # P=13 dBW + 42 dB gain through free space at 20 GHz over N0*B
    lfs_db = 20 * math.log10(SPEED_OF_LIGHT / (4 * math.pi * 1e6 * 20e9))
    snr_db = 10 * math.log10(20.0) + 42.0 + lfs_db - (-114.0 - 30.0 + 10 * math.log10(80e6))
    independent = 10 ** (snr_db / 10)
    got = s2g_snr(20.0, db_to_linear(42.0), 1e6, 20e9, 1.0, dbm_to_watts(-114.0), 80e6)
    assert got == pytest.approx(independent, rel=REL)
    assert got == pytest.approx(1.4161253435239462e-06, rel=1e-9)
    rate = shannon_rate_bps(80e6, got)
    assert rate == pytest.approx(80e6 * math.log2(1 + independent), rel=REL)
    assert rate == pytest.approx(163.4428450922212, rel=1e-9)


def test_rain_loss():
    assert rain_loss_linear(0.0, 3.0) == 1.0
    assert rain_loss_linear(3.0, 3.0) == pytest.approx(10 ** (-0.9), rel=1e-12)


def test_shannon_rate_zero_snr():
    assert shannon_rate_bps(1e6, 0.0) == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        g2u_snr(0.5, 1e8, 0.0)
    with pytest.raises(ValueError):
        u2u_path_loss_db(100.0, 0.0)
    with pytest.raises(ValueError):
        free_space_factor(0.0, 1e9)


def _constants() -> RadioConstants:
    return RadioConstants.from_config(RadioConfig())


def test_link_rate_dispatch_uses_per_kind_power():
    k = _constants()
    d = 200.0
    up = link_rate_bps(LinkKind.G2U, d, k)
    down = link_rate_bps(LinkKind.U2G, d, k)
    assert up == pytest.approx(
        shannon_rate_bps(k.b_gu_hz, g2u_snr(k.p_tr_g_w, k.iota0, d)), rel=1e-12
    )
    assert down == pytest.approx(
        shannon_rate_bps(k.b_ug_hz, g2u_snr(k.p_tr_u_w, k.iota0, d)), rel=1e-12
    )
    assert down > up  # the UAV transmits 13 dB harder than the ground station


def test_sat_budget_denominator_switch():
    k = _constants()
    d = 1.5e6
    with_margin = link_rate_bps(LinkKind.U2S, d, k)
    k.sat_budget_denominator = "slant_range"
    with_range = link_rate_bps(LinkKind.U2S, d, k)
    assert with_margin / with_range == pytest.approx(d / k.margin, rel=1e-9)
    k.sat_budget_denominator = "nonsense"
    with pytest.raises(ValueError, match="sat_budget_denominator"):
        link_rate_bps(LinkKind.U2S, d, k)


def test_s2g_rate_includes_rain():
    cfg = RadioConfig()
    dry = link_rate_bps(LinkKind.S2G, 1e6, RadioConstants.from_config(cfg))
    cfg.rain_db_per_km = 3.0
    wet = link_rate_bps(LinkKind.S2G, 1e6, RadioConstants.from_config(cfg))
    assert wet < dry


def test_rate_table_matches_direct_evaluation():
    inst = corridor_instance()
    rteg, rates = inst.rteg, inst.rates
    k = RadioConstants.from_config(inst.config.radio)
    for t in (1, rteg.slot_count):
        for src, dst in np.argwhere(rteg.kinds[t - 1] >= 0).tolist():
            d = np.linalg.norm(rteg.position(src, t) - rteg.position(dst, t))
            assert rates.has(src, dst, t)
            assert rates.rate_bps(src, dst, t) == pytest.approx(
                link_rate_bps(rteg.link(src, dst, t), d, k), rel=1e-12
            )
            assert rates.slot_bits(src, dst, t) == pytest.approx(
                rates.rate_bps(src, dst, t) * rteg.slot_seconds, rel=1e-12
            )
    assert not rates.has(0, 2, 1)  # no ground-to-ground entry
