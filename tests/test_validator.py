"""Referee checks: feasible logs pass clean, each corruption family is caught."""

from __future__ import annotations

import pytest

from sagin_sfc.env import ScheduleLog
from sagin_sfc.scenario import SHOWCASE_S4, SHOWCASE_S5, SHOWCASE_U2
from sagin_sfc.validator import Violation, check_schedule, objective_value

from mutations import MUTATIONS, mutation_cases, showcase_feasible

ALL_FAMILIES = [family for family, _ in MUTATIONS]


def test_family_list_is_complete():
    assert len(ALL_FAMILIES) == 10
    assert len(set(ALL_FAMILIES)) == 10


def test_deferral_log_is_feasible(showcase_instance, showcase_deferral_log):
    assert check_schedule(showcase_deferral_log, showcase_instance) == []
    assert objective_value(showcase_deferral_log, showcase_instance) == 3


def test_naive_log_is_feasible_with_lower_objective(showcase_instance, showcase_naive_log):
    assert check_schedule(showcase_naive_log, showcase_instance) == []
    assert objective_value(showcase_naive_log, showcase_instance) == 2


def test_every_mutation_flags_exactly_its_family():
    seen = []
    for family, log, instance in mutation_cases():
        violations = check_schedule(log, instance)
        families = {v.family for v in violations}
        assert violations, f"{family}: mutation produced no violations"
        assert families == {family}, (
            f"{family}: expected only that family, got {sorted(families)}"
        )
        seen.append(family)
    assert seen == ALL_FAMILIES


def test_violations_carry_locations():
    expect = {
        "unique-placement": dict(k=3),
        "placement-presence": dict(k=2, node=5, slot=11),
        "vnf-order": dict(k=2),
        "phase-exclusive": dict(k=3, slot=10),
        "compute-capacity": dict(node=5, slot=11),
        "storage-capacity": dict(node=4, slot=7),
        "link-capacity": dict(link=(4, 5), slot=9),
        "energy-budget": dict(node=1),
        "deadline": dict(k=3),
    }
    for family, log, instance in mutation_cases():
        want = expect.get(family)
        if want is None:
            continue
        violations = [v for v in check_schedule(log, instance) if v.family == family]
        assert any(
            all(getattr(v, attr) == val for attr, val in want.items())
            for v in violations
        ), f"{family}: no violation located at {want}: {[str(v) for v in violations]}"


def test_violation_str_mentions_family_and_location():
    v = Violation("link-capacity", "oversubscribed", k=2, link=(4, 5), slot=9)
    s = str(v)
    assert "link-capacity" in s and "4->5" in s and "t=9" in s and "k=2" in s


def test_transfer_over_absent_link_is_flow_continuity():
    log, instance = showcase_feasible()
    log.add_z(1, 0, 1, 1, 1, 4e7)  # no ground-to-ground link exists, ever
    families = {v.family for v in check_schedule(log, instance)}
    assert families == {"flow-continuity"}


def test_transfer_ids_out_of_range_never_wrap():
    _log, instance = showcase_feasible()
    rteg = instance.rteg
    T, N = rteg.slot_count, rteg.node_count
    assert SHOWCASE_S5 == N - 1  # a wrapped -1 would read the last node's links
    assert rteg.link(SHOWCASE_S5, SHOWCASE_S4, 9) is not None
    assert rteg.link(SHOWCASE_U2, SHOWCASE_S5, T) is not None  # slot 0 would wrap onto T
    cases = [
        (-1, SHOWCASE_S4, 9),  # from node -1
        (SHOWCASE_U2, N, 9),  # to node N
        (SHOWCASE_U2, SHOWCASE_S5, 0),
        (SHOWCASE_U2, SHOWCASE_S5, T + 1),
    ]
    for src, dst, t in cases:
        assert not instance.rates.has(src, dst, t)
        assert rteg.link(src, dst, t) is None
        log, _ = showcase_feasible()
        log.add_z(1, src, dst, t, 1, 4e7)
        violations = check_schedule(log, instance)
        assert {v.family for v in violations} == {"flow-continuity"}, (src, dst, t)
        assert any(v.link == (src, dst) and ("absent link" in v.message
                                             or "outside the horizon" in v.message)
                   for v in violations), (src, dst, t)
    # mid-chain, the unknown node also opens a presence window, which is not looked up
    log, _ = showcase_feasible()
    log.add_z(1, SHOWCASE_U2, N, 4, 1, 4e7)
    violations = check_schedule(log, instance)
    assert any(v.link == (SHOWCASE_U2, N) and "absent link" in v.message for v in violations)


def test_records_at_unknown_nodes_are_flow_continuity():
    _log, instance = showcase_feasible()
    rteg = instance.rteg
    N = rteg.node_count
    delta = next(r.delta_bits for r in instance.requests if r.k == 1)
    # enough held payloads to overflow the last node's storage, were -1 to wrap
    overflow = int(rteg.nodes[N - 1].storage_bits // delta) + 1
    cases = [
        [("x", N)],
        [("x", -1)],
        [("y", N)],
        [("y", -1)],
        [("rho", N)],
        [("rho", -1)] * overflow,
    ]
    for records in cases:
        log, _ = showcase_feasible()
        for var, node in records:
            log.records.append({"var": var, "k": 1, "node": node, "t": 3, "value": 1,
                                **({"vnf": 1} if var == "x" else {})})
        violations = check_schedule(log, instance)
        assert {v.family for v in violations} == {"flow-continuity"}, records[0]
        assert all(v.node == records[0][1] and "node the instance lacks" in v.message
                   for v in violations), records[0]
        assert objective_value(log, instance) == 3


def test_malformed_records_rejected(showcase_instance):
    log = ScheduleLog()
    log.records.append({"var": "w", "k": 1, "value": 1})
    with pytest.raises(ValueError, match="malformed"):
        check_schedule(log, showcase_instance)
    log2 = ScheduleLog()
    log2.add_y(99, 2, 3)  # no such chain
    with pytest.raises(ValueError, match="malformed"):
        check_schedule(log2, showcase_instance)
    for bad in ({"var": "x", "k": 1, "t": 3, "vnf": 1, "value": 1},  # no node
                {"var": "z", "k": 1, "link": [2], "t": 3, "dur": 1, "share_bits": 1.0},
                {"var": "rho", "k": [1], "node": 2, "t": 3},
                ["x", 1]):
        log3 = ScheduleLog()
        log3.records.append(bad)
        with pytest.raises(ValueError, match="malformed"):
            check_schedule(log3, showcase_instance)


def test_empty_log_is_feasible_and_scores_zero(showcase_instance):
    log = ScheduleLog()
    assert check_schedule(log, showcase_instance) == []
    assert objective_value(log, showcase_instance) == 0


def test_objective_recomputed_from_structure_not_indicators():
    log, instance = showcase_feasible()
    for rec in log.records:
        if rec["var"] == "I":
            rec["value"] = 0  # lie in the indicators
    assert objective_value(log, instance) == 3
