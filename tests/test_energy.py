"""Propulsion, radio and compute energy; the per-node ledger."""

from __future__ import annotations

import math

import pytest

from sagin_sfc.energy import (
    EnergyLedger,
    compute_energy_j,
    transfer_energy_j,
    uav_hover_power_w,
    uav_move_power_w,
    uav_slot_energy_j,
)


def test_golden_hover_power():
    # independent route: per-rotor momentum theory.  Each of the n rotors
    # carries thrust T = m g / n and draws T^1.5 / sqrt(2 rho A) induced
    # power with disc area A = pi r^2.
    m, r, n, g, rho = 0.5, 0.2, 4, 9.8, 1.225
    thrust = m * g / n
    independent = n * thrust**1.5 / math.sqrt(2 * rho * math.pi * r**2)
    got = uav_hover_power_w(m, r, n)
    assert got == pytest.approx(independent, rel=1e-6)
    assert got == pytest.approx(9.7740858698351, rel=1e-9)


def test_hover_power_scaling():
    base = uav_hover_power_w(0.5, 0.2, 4)
    # power goes with mass^1.5: four times the mass, eight times the power
    assert uav_hover_power_w(2.0, 0.2, 4) == pytest.approx(8.0 * base, rel=1e-9)
    assert uav_hover_power_w(0.5, 0.4, 4) == pytest.approx(base / 2, rel=1e-9)
    with pytest.raises(ValueError):
        uav_hover_power_w(0.0, 0.2, 4)


def test_move_power_linear_with_clamp():
    hover = 9.0
    assert uav_move_power_w(6.0, 12.0, 12.0, hover) == pytest.approx(1.5, rel=1e-12)
    assert uav_move_power_w(0.0, 12.0, 12.0, hover) == 0.0
    # hover already exceeds the power envelope: no movement headroom left
    assert uav_move_power_w(6.0, 12.0, 8.0, hover) == 0.0
    with pytest.raises(ValueError):
        uav_move_power_w(-1.0, 12.0, 12.0, hover)


def test_golden_slot_energy():
    hover = uav_hover_power_w(0.5, 0.2, 4)
    move_w = uav_move_power_w(4.0, 12.0, 12.0, hover)
    assert move_w == pytest.approx(0.7419713767216335, rel=1e-9)
    got = uav_slot_energy_j(4.0, 12.0, 12.0, hover, 20.0, 5.0)
    # movement power over the traverse time plus hover for the whole slot
    assert got == pytest.approx(move_w * 20.0 / 4.0 + hover * 5.0, rel=1e-12)
    assert got == pytest.approx(52.58028623278366, rel=1e-9)


def test_slot_energy_hover_only_when_parked():
    hover = 9.774
    assert uav_slot_energy_j(0.0, 12.0, 12.0, hover, 0.0, 5.0) == pytest.approx(hover * 5.0)
    assert uav_slot_energy_j(3.0, 12.0, 12.0, hover, 0.0, 5.0) == pytest.approx(hover * 5.0)


def test_golden_transfer_energy():
    assert transfer_energy_j(10.0, 8e7, 2.5e7) == pytest.approx(32.0, rel=1e-12)
    with pytest.raises(ValueError):
        transfer_energy_j(10.0, 8e7, 0.0)


def test_compute_energy():
    assert compute_energy_j(4e8, 1e-8) == pytest.approx(4.0, rel=1e-12)
    assert compute_energy_j(0.0, 1e-8) == 0.0


def test_ledger_accounting():
    led = EnergyLedger(budgets={1: 100.0})
    led.charge(1, "fixed", 60.0)
    led.charge(1, "transfer", 25.0)
    led.charge(1, "compute", 10.0)
    assert led.spent_j(1) == pytest.approx(95.0)
    assert led.headroom_j(1) == pytest.approx(5.0)
    assert led.feasible(1)
    led.charge(1, "transfer", 6.0)
    assert not led.feasible(1)
    assert led.total_by_label(1, "transfer") == pytest.approx(31.0)
    assert led.total_by_label(1, "fixed") == pytest.approx(60.0)
    assert led.total_by_label(1, "fixed") == 60.0  # the one fixed charge, exactly
    assert led.total_by_label(1, "compute") == 10.0
    assert led.total_by_label(1, "hover") == 0.0
    assert led.total_by_label(2, "fixed") == 0.0


def test_ledger_unbudgeted_node_is_unbounded():
    led = EnergyLedger(budgets={})
    led.charge(9, "compute", 1e9)
    assert led.feasible(9)
    assert led.headroom_j(9) == math.inf


def test_ledger_rejects_negative_charge():
    led = EnergyLedger(budgets={1: 10.0})
    with pytest.raises(ValueError):
        led.charge(1, "fixed", -1.0)
