"""Time-expanded topology: placement, orbits, trajectories, link wiring."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sagin_sfc.channel import RadioConstants, link_rate_bps
from sagin_sfc.config import OrbitConfig, RangeLimits, ScenarioConfig, load_config
from sagin_sfc.env import SaginEnv
from sagin_sfc.scenario import build_instance
from sagin_sfc.topology import (
    EARTH_MU,
    EARTH_RADIUS_M,
    LinkKind,
    NodeKind,
    NodeSpec,
    Rteg,
    build_positions,
    build_rteg,
    build_topology,
    load_satellite_trace,
    orbit_period_s,
    place_uavs,
    propagate_satellite,
)

from helpers import (
    U1,
    corridor_instance,
    random_policy_actions,
    reference_action_mask,
    reference_links,
    tiny_run_config,
)


def test_orbit_period_kepler():
    # independent evaluation of the circular-orbit period at 550 km
    a = 6.371e6 + 550e3
    expected = 2 * math.pi * (a**3 / 3.986004418e14) ** 0.5
    got = orbit_period_s(550e3)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(5730.127089334606, rel=1e-12)


def test_satellite_overhead_at_phase_zero():
    orbit = OrbitConfig(altitude_m=550e3, inclination_rad=0.3, phase_rad=0.0)
    p = propagate_satellite(orbit, slot=1, slot_seconds=5.0)
    assert p == pytest.approx([0.0, 0.0, 550e3])


def test_satellite_quarter_orbit_equatorial():
    orbit = OrbitConfig(altitude_m=550e3, inclination_rad=0.0, phase_rad=0.0)
    period = orbit_period_s(550e3)
    tau = period / 4
    p = propagate_satellite(orbit, slot=2, slot_seconds=tau)
    r = EARTH_RADIUS_M + 550e3
    assert p == pytest.approx([r, 0.0, -EARTH_RADIUS_M], abs=1e-3)


def test_satellite_stays_on_its_sphere():
    orbit = OrbitConfig(altitude_m=550e3, inclination_rad=0.4, phase_rad=1.1)
    r = EARTH_RADIUS_M + 550e3
    for slot in range(1, 30):
        p = propagate_satellite(orbit, slot, slot_seconds=60.0)
        ecef = np.array([p[2] + EARTH_RADIUS_M, p[0], p[1]])
        assert np.linalg.norm(ecef) == pytest.approx(r, rel=1e-12)


def test_place_uavs_respects_disc_and_separation():
    rng = np.random.default_rng(0)
    pts = place_uavs(12, disc_radius_m=300.0, min_separation_m=40.0,
                     altitude_m=100.0, rng=rng)
    assert pts.shape == (12, 3)
    assert np.allclose(pts[:, 2], 100.0)
    assert np.all(np.linalg.norm(pts[:, :2], axis=1) <= 300.0 + 1e-9)
    for i in range(12):
        for j in range(i + 1, 12):
            assert np.linalg.norm(pts[i, :2] - pts[j, :2]) >= 40.0 - 1e-9


def test_place_uavs_deterministic_per_seed():
    a = place_uavs(5, 300.0, 40.0, 100.0, np.random.default_rng(7))
    b = place_uavs(5, 300.0, 40.0, 100.0, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_place_uavs_infeasible_density_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="could not place"):
        place_uavs(3, disc_radius_m=10.0, min_separation_m=1000.0,
                   altitude_m=100.0, rng=rng, attempts=50)


def _corridor_rteg() -> Rteg:
    return corridor_instance().rteg


def _links(rteg: Rteg, slot: int) -> list:
    """(src, dst) of every link present in a slot."""
    return [tuple(pair) for pair in np.argwhere(rteg.kinds[slot - 1] >= 0).tolist()]


def test_link_kinds_directed():
    rteg = _corridor_rteg()
    assert rteg.link(0, 1, 1) is LinkKind.G2U
    assert rteg.link(1, 0, 1) is LinkKind.U2G
    assert rteg.link(0, 2, 1) is None  # no ground-to-ground hop
    # full scene: satellite never transmits down to a UAV
    sc = ScenarioConfig(uav_count=2, satellite_count=1,
                        satellite_orbits=[OrbitConfig()], slot_count=4)
    rteg2 = build_topology(sc, np.random.default_rng(0), (8e4, 1e7))
    uavs = rteg2.nodes_of_kind(NodeKind.UAV)
    sats = rteg2.nodes_of_kind(NodeKind.SATELLITE)
    for t in range(1, 5):
        for src, dst in _links(rteg2, t):
            assert not (src in sats and dst in uavs)
    kinds = {rteg2.link(src, dst, 1) for src, dst in _links(rteg2, 1)}
    assert {LinkKind.G2U, LinkKind.U2G, LinkKind.U2U, LinkKind.U2S, LinkKind.S2G} <= kinds


def test_range_limit_cuts_links():
    nodes = [NodeSpec(0, NodeKind.GROUND), NodeSpec(1, NodeKind.UAV)]
    positions = np.zeros((2, 2, 3))
    positions[1, :] = [0.0, 0.0, 500.0]
    near = build_rteg(nodes, positions, 2, 5.0, RangeLimits())
    assert near.link(0, 1, 1) is not None
    far = build_rteg(nodes, positions, 2, 5.0, RangeLimits(g2u_m=400.0))
    assert far.link(0, 1, 1) is None
    assert far.link(1, 0, 1) is not None  # u2g range untouched


def test_link_lookups_reject_out_of_range():
    inst = corridor_instance()
    rteg, rates = inst.rteg, inst.rates
    T, N = rteg.slot_count, rteg.node_count
    assert rates.has(0, 1, 1) and rates.has(0, 1, T)
    for slot in (0, T + 1):
        assert not rates.has(0, 1, slot)
        assert rteg.link(0, 1, slot) is None
    # node ids outside 0..N-1 must not wrap onto the last node (U1 -> G1 exists)
    assert rates.has(U1, N - 1, 1)
    for src, dst in ((U1, -1), (U1, N), (-1, U1), (N, U1)):
        assert not rates.has(src, dst, 1)
        assert rteg.link(src, dst, 1) is None
    with pytest.raises(KeyError):
        rates.slot_bits(U1, -1, 1)
    with pytest.raises(KeyError):
        rates.rate_bps(0, 1, 0)


def test_build_positions_orbit_count_mismatch():
    sc = ScenarioConfig(uav_count=0, satellite_count=2,
                        satellite_orbits=[OrbitConfig()], slot_count=3)
    with pytest.raises(ValueError, match="satellite_orbits length"):
        build_positions(sc, np.random.default_rng(0))


def test_waypoint_interpolation_and_speed_check():
    sc = ScenarioConfig(uav_count=1, satellite_count=0, satellite_orbits=[],
                        slot_count=6, uav_disc_radius_m=1.0,
                        uav_min_separation_m=0.0)
    sc.uav_waypoints = {"0": [[2, 0.0, 0.0, 100.0], [4, 0.0, 100.0, 100.0]]}
    pos = build_positions(sc, np.random.default_rng(1))
    uav = pos[2]  # two ground nodes come first
    assert uav[1] == pytest.approx([0.0, 0.0, 100.0])  # slot 2
    assert uav[2] == pytest.approx([0.0, 50.0, 100.0])  # midpoint
    assert uav[3] == pytest.approx([0.0, 100.0, 100.0])  # slot 4
    assert np.array_equal(uav[4], uav[3])  # parked after the last waypoint
    sc.uav_waypoints = {"0": [[2, 0.0, 0.0, 100.0], [3, 0.0, 1e4, 100.0]]}
    with pytest.raises(ValueError, match="speed"):
        build_positions(sc, np.random.default_rng(1))


def test_ground_nodes_are_static():
    sc = ScenarioConfig(uav_count=1, satellite_count=0, satellite_orbits=[], slot_count=5)
    pos = build_positions(sc, np.random.default_rng(3))
    for g in range(2):
        assert np.all(pos[g] == pos[g, 0])


def test_satellite_trace_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    rows = ["node_id,slot,x_m,y_m,z_m"]
    for sat in range(2):
        for slot in range(1, 4):
            rows.append(f"{sat},{slot},{sat * 10.0},{slot * 2.0},550000.0")
    path.write_text("\n".join(rows) + "\n")
    got = load_satellite_trace(str(path), 2, 3)
    assert got.shape == (2, 3, 3)
    assert got[1, 2, 0] == 10.0
    assert got[0, 1, 1] == 4.0


def test_satellite_trace_rejects_bad_header_and_gaps(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,slot,x,y,z\n0,1,0,0,0\n")
    with pytest.raises(ValueError, match="header"):
        load_satellite_trace(str(bad), 1, 1)
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("node_id,slot,x_m,y_m,z_m\n0,1,0.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="cover"):
        load_satellite_trace(str(sparse), 1, 2)


def test_topology_deterministic_per_seed():
    sc = ScenarioConfig(uav_count=3, satellite_count=1,
                        satellite_orbits=[OrbitConfig()], slot_count=4)
    a = build_topology(sc, np.random.default_rng(11), (8e4, 1e7))
    b = build_topology(sc, np.random.default_rng(11), (8e4, 1e7))
    c = build_topology(sc, np.random.default_rng(12), (8e4, 1e7))
    assert a.canonical() == b.canonical()
    assert a.canonical() != c.canonical()


def test_earth_constants():
    assert EARTH_RADIUS_M == 6.371e6
    assert EARTH_MU == 3.986004418e14


def _property_instances():
    rng = np.random.default_rng(2024)
    for name in ("tiny", "desk"):
        cfg = load_config(f"configs/{name}.yaml")
        for seed in rng.integers(1, 10_000, size=2).tolist():
            yield pytest.param(cfg, seed, id=f"{name}-{seed}")
    for i in range(4):
        yield pytest.param(tiny_run_config(rng), int(rng.integers(1, 10_000)),
                           id=f"random-tiny-{i}")


@pytest.mark.parametrize("cfg,seed", list(_property_instances()))
def test_array_graph_matches_scalar_reference(cfg, seed):
    inst = build_instance(cfg, seed)
    rteg, rates = inst.rteg, inst.rates
    links = reference_links(rteg.nodes, rteg.positions, rteg.slot_count,
                            cfg.scenario.range_limits)
    # (a) the same typed links
    expected = {(t, src, dst, kind) for t, slot in links.items() for src, dst, kind in slot}
    got = {(t + 1, src, dst, rteg.link(src, dst, t + 1))
           for t, src, dst in np.argwhere(rteg.kinds >= 0).tolist()}
    assert got == expected
    # (b) every rate as the scalar formula gives it
    k = RadioConstants.from_config(cfg.radio)
    for t, src, dst, kind in expected:
        d = np.linalg.norm(rteg.positions[src, t - 1] - rteg.positions[dst, t - 1])
        assert rates.rate_bps(src, dst, t) == pytest.approx(
            link_rate_bps(kind, d, k), rel=1e-12)
    # (c) the same masks along random-policy episodes
    env = SaginEnv(inst)
    policy = np.random.default_rng(seed)
    for _episode in range(2):
        env.reset()
        while not env.episode_over:
            for c in env.active_sfcs():
                assert np.array_equal(env.action_mask(c), reference_action_mask(env, c, links))
            env.step(random_policy_actions(env, policy))
