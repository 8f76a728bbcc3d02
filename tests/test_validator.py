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


def test_malformed_records_rejected(showcase_instance):
    log = ScheduleLog()
    log.records.append({"var": "w", "k": 1, "value": 1})
    with pytest.raises(ValueError, match="malformed"):
        check_schedule(log, showcase_instance)
    log2 = ScheduleLog()
    log2.add_y(99, 2, 3)  # no such chain
    with pytest.raises(ValueError, match="malformed"):
        check_schedule(log2, showcase_instance)


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
