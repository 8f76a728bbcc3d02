"""Environment semantics: phase table, timing, rewards, contention, resources.

The backbone is a fully hand-computed walkthrough on the three-node corridor
(ground -> UAV -> ground) where every rate, duration, reward and energy
charge is derived in comments and asserted exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagin_sfc.config import load_config
from sagin_sfc.energy import uav_hover_power_w
from sagin_sfc.env import (
    EnvState,
    SaginEnv,
    ScheduleLog,
    VnfPhase,
    admit_contenders,
    encode_states,
    encoded_length,
    reward,
)
from sagin_sfc.scenario import build_instance, itinerary_actions, run_itinerary
from sagin_sfc.validator import check_schedule, objective_value
from sagin_sfc.workload import SfcRequest

from helpers import (
    CORRIDOR_PLAN,
    G0,
    G1,
    U1,
    corridor_instance,
    of_var,
    random_policy_actions,
    run_random_episode,
    tiny_run_config,
)

T, P, S = VnfPhase.TRANSMITTING, VnfPhase.PROCESSING, VnfPhase.STORED


# -- pure decision-table pieces ---------------------------------------------

def test_reward_formula():
    assert reward(0.0, 0.0, 1.0, 0.1, 0.2) == 1.0
    assert reward(3.0, 0.0, 1.0, 0.1, 0.2) == pytest.approx(0.7)
    assert reward(0.0, 2.0, 1.0, 0.1, 0.2) == pytest.approx(0.6)


def test_admit_contenders_smallest_payload_first():
    contenders = [(1, 5e8, 3e8), (2, 4e8, 3e8), (3, 4e8, 3e8)]
    admitted, rejected = admit_contenders(contenders, 6e8)
    assert admitted == [2, 3]  # ties on payload break by chain id
    assert rejected == [1]
    # fits-exactly passes through the tolerance
    admitted, rejected = admit_contenders([(7, 1e8, 6e8)], 6e8)
    assert admitted == [7] and rejected == []
    admitted, rejected = admit_contenders([(7, 1e8, 6e8 + 1.0)], 6e8)
    assert admitted == [] and rejected == [7]


# -- corridor walkthrough ----------------------------------------------------
#
# Geometry: G0=(0,0,0), U1=(100,0,100), G1=(200,0,0); both hops span
# sqrt(2)*100 m, so d^2 = 2e4.
#   G2U: SNR = 0.5 * 1e8 / 2e4 = 2500, slot bits = 5 * 2e6 * log2(2501)
#        = 1.1288e8  ->  a 1e8 payload wires in 1 slot
#   U2G: SNR = 10 * 1e8 / 2e4 = 50000, slot bits = 1e7 * log2(50001)
#        = 1.5610e8  ->  1 slot
# sigma = 4e8 at a 1e8 bps UAV over 5 s slots -> exactly 1 processing slot.
#
# With defaults c0=1, c1=0.1, c2=0.2, gamma=0.9 the slot-by-slot story is:
#   slot 1  initiate G0->U1 (dur 1)      r = 1 - 0.1*1          = 0.9
#   slot 2  arrive, admitted to compute  r = 1                  = 1.0
#   slot 3  last processing slot ends, stored next; idle wait 1 r = 0.8
#   slot 4  initiate U1->G1 (dur 1)      r = 0.9
#   slot 5  delivered, vnfs done, t <= deadline:
#           r = 1 + 1*0.9/(1-0.9)                               = 10.0

def _walk_instance(**kw):
    return corridor_instance(delta_bits=1e8, sigmas=(4e8,), deadline=10, **kw)


def test_corridor_walkthrough_rewards_and_log():
    env = SaginEnv(_walk_instance(), record_log=True)
    s = env.sfcs[1]
    assert (s.phase, s.node) == (S, G0)

    r1 = env.step({1: U1})
    assert r1.rewards[1] == pytest.approx(0.9)
    assert (s.phase, s.node, s.t_c) == (T, U1, 1)

    r2 = env.step({1: U1})
    assert r2.rewards[1] == pytest.approx(1.0)  # admission overwrites the wait
    assert (s.phase, s.t_p) == (P, 1)

    r3 = env.step({1: U1})
    assert r3.rewards[1] == pytest.approx(0.8)
    assert (s.phase, s.vnf_index) == (S, 2)

    r4 = env.step({1: G1})
    assert r4.rewards[1] == pytest.approx(0.9)
    assert (s.phase, s.node) == (T, G1)

    r5 = env.step({1: G1})
    assert r5.rewards[1] == pytest.approx(10.0)
    assert r5.done_flags[1] == "completed"
    assert r5.episode_over
    assert s.completion_slot == 5
    assert env.objective() == 1

    expected = [
        {"var": "z", "k": 1, "link": [G0, U1], "t": 2, "dur": 1, "share_bits": 1e8, "value": 1},
        {"var": "x", "k": 1, "node": U1, "t": 3, "vnf": 1, "value": 1},
        {"var": "y", "k": 1, "node": U1, "t": 3, "value": 1},
        {"var": "rho", "k": 1, "node": U1, "t": 4, "value": 1},
        {"var": "y", "k": 1, "node": U1, "t": 4, "value": 1},
        {"var": "z", "k": 1, "link": [U1, G1], "t": 5, "dur": 1, "share_bits": 1e8, "value": 1},
        {"var": "I", "k": 1, "value": 1},
    ]
    assert env.log.records == expected
    assert check_schedule(env.log, env.instance) == []
    assert objective_value(env.log, env.instance) == 1


def test_corridor_walkthrough_energy():
    inst = _walk_instance()
    env = SaginEnv(inst, record_log=True)
    run_itinerary(env, CORRIDOR_PLAN)
    hover = uav_hover_power_w(0.5, 0.2, 4)
    assert env.energy.total_by_label(U1, "fixed") == pytest.approx(hover * 5.0 * 12)
    assert env.energy.total_by_label(U1, "compute") == pytest.approx(4e8 * 1e-8)
    u2g = 10.0 * 1e8 / inst.rates.rate_bps(U1, G1, 5)
    assert env.energy.total_by_label(U1, "transfer") == pytest.approx(u2g)
    assert env.energy.spent_j(U1) == pytest.approx(hover * 60 + 4.0 + u2g)
    assert G0 not in env.energy.budgets  # ground stations are not tracked
    assert env.energy.feasible(U1)


def test_corridor_utilization():
    env = SaginEnv(_walk_instance())
    run_itinerary(env, CORRIDOR_PLAN)
    # compute occupied only during the single processing slot (slot 3)
    assert env.utilization() == pytest.approx(4e8 / (8e8 * 12))


def test_initiation_charges_full_duration():
    # 2e8 payload over the 1.1288e8-bit G2U slot needs a 2-slot wire
    env = SaginEnv(corridor_instance(delta_bits=2e8, sigmas=(4e8,), deadline=10))
    s = env.sfcs[1]
    r1 = env.step({1: U1})
    assert s.t_c == 2
    assert r1.rewards[1] == pytest.approx(1.0 - 0.1 * 2)
    # mid-wire slot: committed, zero reward, mask pinned to the target
    mask = env.action_mask(1)
    assert mask[U1] and mask.sum() == 1
    r2 = env.step({1: U1})
    assert r2.rewards[1] == 0.0
    assert s.t_c == 1
    r3 = env.step({1: U1})  # final wire slot: lands stored, admitted
    assert r3.rewards[1] == pytest.approx(1.0)
    assert s.phase is P


def test_step_follows_the_phase_table():
    """The seven-case phase table, read off the chain's phase after `step`.

    The corridor's only relay is U1, so a chain there could only move on to
    its destination; counting G0 as a relay gives it a second move target.
    """
    cases = [
        # mid-wire slots ignore the action (the mask holds only the target)
        (dict(delta_bits=3e8), [U1], (T, 3), U1, T),
        # final wire slot: stay lands the data (too big to admit), a move
        # chains a new transfer
        (dict(delta_bits=1e8, sigmas=(9e8,)), [U1], (T, 1), U1, S),
        (dict(delta_bits=1e8), [U1], (T, 1), G0, T),
        # processing: stay keeps going or falls to stored on the last slot,
        # a move abandons it
        (dict(delta_bits=1e8, sigmas=(8e8,)), [U1, U1], (P, 2), U1, P),
        (dict(delta_bits=1e8, sigmas=(4e8,)), [U1, U1], (P, 1), U1, S),
        (dict(delta_bits=1e8, sigmas=(8e8,)), [U1, U1], (P, 2), G0, T),
        # stored: stay idles, move transmits
        ({}, [], (S, 0), G0, S),
        ({}, [], (S, 0), U1, T),
    ]
    for kw, prefix, before, action, after in cases:
        env = SaginEnv(corridor_instance(**kw))
        env._relay[G0] = True
        for a in prefix:
            env.step({1: a})
        s = env.sfcs[1]
        assert (s.phase, {T: s.t_c, P: s.t_p}.get(s.phase, 0)) == before
        env.step({1: action})
        assert s.phase is after, (before, action)


def test_wait_penalty_accumulates():
    env = SaginEnv(_walk_instance())
    rewards = [env.step({1: G0}).rewards[1] for _ in range(3)]
    assert rewards == pytest.approx([0.8, 0.6, 0.4])
    env2 = SaginEnv(_walk_instance())
    env2.step({1: G0})
    r = env2.step({1: U1})  # the penalty run resets when a move initiates
    assert r.rewards[1] == pytest.approx(0.9)


def test_completion_exactly_at_deadline_succeeds():
    env = SaginEnv(corridor_instance(delta_bits=1e8, sigmas=(4e8,), deadline=5))
    assert run_itinerary(env, CORRIDOR_PLAN) == 1
    assert env.sfcs[1].completion_slot == 5


def test_deadline_failure_releases_and_penalizes():
    env = SaginEnv(corridor_instance(delta_bits=1e8, sigmas=(4e8,), deadline=4),
                   record_log=True)
    for a in (U1, U1, U1):
        env.step({1: a})
    assert env.storage_used[U1] == pytest.approx(1e8)
    r = env.step({1: G1})  # t=4 >= deadline: fails before the move matters
    assert r.done_flags[1] == "failed"
    assert r.rewards[1] == pytest.approx(-1.0)
    assert env.storage_used[U1] == 0.0
    assert env.episode_over
    assert env.objective() == 0
    assert check_schedule(env.log, env.instance) == []  # failed logs stay feasible


def test_horizon_exhaustion_fails_chains():
    env = SaginEnv(corridor_instance(delta_bits=1e8, sigmas=(4e8,),
                                     deadline=10, slot_count=4))
    r = None
    for _ in range(4):
        r = env.step({1: G0})
    assert r.done_flags[1] == "failed"
    assert env.episode_over


def test_mask_gates_ground_until_chain_is_done():
    env = SaginEnv(_walk_instance())
    mask = env.action_mask(1)
    assert list(mask) == [True, True, False]  # dest closed while VNFs remain
    env.step({1: U1})
    env.step({1: U1})
    env.step({1: U1})  # vnf finished; stored at U1
    mask = env.action_mask(1)
    assert list(mask) == [False, True, True]  # origin is not the dest


def test_full_storage_degrades_move_to_stay():
    env = SaginEnv(
        corridor_instance(delta_bits=1e8, sigmas=(4e8,), deadline=10,
                          uav_storage_bits=5e7),
        record_log=True,
    )
    r = env.step({1: U1})
    assert r.rewards[1] == pytest.approx(0.8)  # stored wait, not an initiation
    assert env.sfcs[1].node == G0
    assert of_var(env.log, "z") == []


def test_energy_exhaustion_degrades_move_to_stay():
    inst = _walk_instance()
    hover = uav_hover_power_w(0.5, 0.2, 4)
    fixed = hover * 5.0 * 12
    u2g = 10.0 * 1e8 / inst.rates.rate_bps(U1, G1, 5)
    # room for hover and compute but only half the uplink transfer
    tight = corridor_instance(delta_bits=1e8, sigmas=(4e8,), deadline=10,
                              e_max_uav_j=fixed + 4.0 + 0.5 * u2g)
    env = SaginEnv(tight, record_log=True)
    for a in (U1, U1, U1):
        env.step({1: a})
    r = env.step({1: G1})  # the outbound move is energy-blocked
    assert r.rewards[1] == pytest.approx(0.6)  # second consecutive idle slot
    assert env.sfcs[1].node == U1
    assert len(of_var(env.log, "z")) == 1
    while not env.episode_over:
        r = env.step({1: G1})
    assert env.objective() == 0
    assert env.energy.feasible(U1)
    assert check_schedule(env.log, env.instance) == []


def test_link_sharing_pro_rata():
    reqs = [
        SfcRequest(k=1, sigmas_bits=[4e8], delta_bits=1e8, origin=G0, dest=G1,
                   deadline_slots=12),
        SfcRequest(k=2, sigmas_bits=[4e8], delta_bits=1e8, origin=G0, dest=G1,
                   deadline_slots=12),
    ]
    inst = corridor_instance(requests=reqs)
    env = SaginEnv(inst, record_log=True)
    r = env.step({1: U1, 2: U1})
    # chain 1 claims 1e8 of the 1.1288e8-bit slot; chain 2 fits its pro-rata
    # share only by stretching to ceil(1e8 / 1.288e7) = 8 slots
    z1, z2 = of_var(env.log, "z")
    assert (z1["k"], z1["dur"]) == (1, 1)
    assert (z2["k"], z2["dur"]) == (2, 8)
    assert z2["share_bits"] == pytest.approx(1e8 / 8)
    assert r.rewards[1] == pytest.approx(0.9)
    assert r.rewards[2] == pytest.approx(1.0 - 0.1 * 8)
    cap = inst.rates.slot_bits(G0, U1, 2)
    for w in range(2, 10):
        assert env.link_load[w - 1, G0, U1] <= cap + 1e-6
    assert env.link_load[2 - 1, G0, U1] == pytest.approx(1e8 + 1e8 / 8)
    # both still finish inside the horizon, and the log stays feasible
    plans = {1: CORRIDOR_PLAN[1], 2: CORRIDOR_PLAN[1]}
    while not env.episode_over:
        env.step(itinerary_actions(env, plans))
    assert env.objective() == 2
    assert check_schedule(env.log, env.instance) == []


def test_mid_wire_failure_frees_the_rest_of_the_wire():
    env = SaginEnv(corridor_instance(delta_bits=3e8, deadline=3), record_log=True)
    env.step({1: U1})  # 3e8 bits over 1.1288e8-bit slots: wires slots 2..4
    assert env.link_load[:5, G0, U1].tolist() == [0.0, 1e8, 1e8, 1e8, 0.0]
    env.step({1: U1})
    r = env.step({1: U1})  # t=3 reaches the deadline on the second wire slot
    assert r.done_flags[1] == "failed"
    assert env.link_load[:5, G0, U1].tolist() == [0.0, 1e8, 1e8, 0.0, 0.0]
    assert check_schedule(env.log, env.instance) == []


def test_storage_reserved_from_initiation_to_departure():
    env = SaginEnv(_walk_instance())
    env.step({1: U1})
    assert env.storage_used[U1] == pytest.approx(1e8)  # reserved while wiring
    env.step({1: U1})
    env.step({1: U1})
    assert env.storage_used[U1] == pytest.approx(1e8)  # held while resident
    env.step({1: G1})
    assert env.storage_used[U1] == 0.0  # released at outbound initiation


def test_step_rejects_bad_calls():
    env = SaginEnv(_walk_instance())
    with pytest.raises(ValueError, match="outside mask"):
        env.step({1: G1})
    run_itinerary(env, CORRIDOR_PLAN)
    with pytest.raises(RuntimeError, match="episode is over"):
        env.step({1: U1})
    with pytest.raises(ValueError, match="finished"):
        env.action_mask(1)


def test_encode_state_layout():
    state = EnvState(
        slot=4,
        ks=[2, 3],
        phase=np.array([P, T]),
        node=np.array([1, 2]),
        vnf_index=np.array([2, 5]),
        length=np.array([3, 4]),
        occupancy_bits=np.array([0.0, 4e8, 0.0]),
        capacity_bits=np.array([0.0, 8e8, 0.0]),
        sfc_count=4,
    )
    obs = encode_states(state)
    assert encoded_length(3) == 11 == obs.shape[1]
    assert obs.tolist() == [
        # k/K, phase one-hot, node one-hot, min(vnf, l)/l, occupancy / capacity
        [0.5, 0, 1, 0, 0, 1, 0, 2 / 3, 0.0, 0.5, 0.0],
        [0.75, 1, 0, 0, 0, 0, 1, 1.0, 0.0, 0.5, 0.0],
    ]


def test_step_validates_against_the_handed_out_masks(monkeypatch):
    env = SaginEnv(_walk_instance())
    masks = env.masks()
    assert masks[1].tolist() == [True, True, False]
    with pytest.raises(ValueError, match="outside mask"):
        env.step({1: G1})
    calls = []
    rule = SaginEnv.action_mask
    monkeypatch.setattr(SaginEnv, "action_mask",
                        lambda self, k: calls.append(k) or rule(self, k))
    masks = env.masks()
    assert calls == [1]
    masks[1][U1] = False  # the step reads the handed-out row, not a fresh one
    with pytest.raises(ValueError, match="outside mask"):
        env.step({1: U1})
    assert calls == [1]
    env.masks()
    env.step({1: U1})
    assert calls == [1, 1]  # one mask per decision
    env.step({1: U1})  # no masks handed out for this slot: the step computes its own
    assert calls == [1, 1, 1]


@pytest.mark.parametrize("rewind", ["restore", "reset"])
def test_rewinding_drops_the_handed_out_masks(rewind):
    env = SaginEnv(_walk_instance())
    snap = env.snapshot()
    env.step({1: U1})
    assert env.masks()[1].tolist() == [False, True, False]  # only U1, where it now is
    if rewind == "restore":
        env.restore(snap)
    else:
        env.reset()
    # back at G0, staying is allowed again; a stale mask would refuse it
    assert env.step({1: G0}).done_flags == {1: None}
    assert env.sfcs[1].node == G0


def test_snapshot_restore_replays_identically():
    env = SaginEnv(_walk_instance(), record_log=False)
    env.step({1: U1})
    snap = env.snapshot()
    key = env.memo_key()
    tail1 = [env.step({1: a}).rewards[1] for a in (U1, U1, G1, G1)]
    assert env.episode_over
    env.restore(snap)
    assert env.memo_key() == key
    assert not env.episode_over
    tail2 = [env.step({1: a}).rewards[1] for a in (U1, U1, G1, G1)]
    assert tail1 == tail2
    assert env.objective() == 1


def _labels_sum_to_spend(env):
    for node in env.energy.budgets:
        by_label = sum(env.energy.total_by_label(node, label)
                       for label in ("fixed", "transfer", "compute"))
        assert by_label == pytest.approx(env.energy.spent_j(node), rel=1e-12), node


def test_restore_rewinds_the_ledger_totals():
    env = SaginEnv(corridor_instance())
    env.step({1: U1})
    snap = env.snapshot()
    fixed = env.energy.spent_j(U1)
    while not env.episode_over:
        env.step(itinerary_actions(env, CORRIDOR_PLAN))
    assert env.objective() == 1
    assert env.energy.total_by_label(U1, "transfer") > 0
    env.restore(snap)
    assert env.energy.spent_j(U1) == fixed
    assert env.energy.total_by_label(U1, "compute") == 0.0
    assert env.energy.total_by_label(U1, "transfer") == 0.0
    _labels_sum_to_spend(env)


def _snapshot_round_trip(inst, rng) -> int:
    """Snapshot a random-policy episode at a random slot, play on, restore, replay.

    Returns how many chains failed mid-wire after the snapshot, which is
    when the env hands back the rest of a claimed wire.
    """
    env = SaginEnv(inst)
    length = 0
    while not env.episode_over:
        env.step(random_policy_actions(env, rng))
        length += 1
    cut = int(rng.integers(length))
    env.reset()
    for _ in range(cut):
        env.step(random_policy_actions(env, rng))
    snap, key = env.snapshot(), env.memo_key()
    load = env.link_load[env.slot - 1:].copy()

    mid_wire = []
    release = env._release_on_failure

    def spy(k, t):
        s = env.sfcs[k]
        mid_wire.append(s.phase is VnfPhase.TRANSMITTING and s.transfer_end > t)
        release(k, t)

    env._release_on_failure = spy
    actions, rewards = [], []
    while not env.episode_over:
        actions.append(random_policy_actions(env, rng))
        rewards.append(env.step(actions[-1]).rewards)
    objective, released = env.objective(), sum(mid_wire)
    env.restore(snap)
    assert env.memo_key() == key
    assert np.array_equal(env.link_load[env.slot - 1:], load)
    _labels_sum_to_spend(env)
    assert [env.step(a).rewards for a in actions] == rewards
    assert env.episode_over and env.objective() == objective
    return released


def test_snapshot_restore_round_trips_random_episodes():
    mid_wire = 0
    for seed in range(12):
        inst = build_instance(tiny_run_config(np.random.default_rng(seed)), seed)
        mid_wire += _snapshot_round_trip(inst, np.random.default_rng(seed + 100))
    desk = load_config("configs/desk.yaml")
    for seed in (1, 2):
        mid_wire += _snapshot_round_trip(build_instance(desk, seed),
                                         np.random.default_rng(seed + 100))
    assert mid_wire > 0  # the release path ran inside some rewound tail


def test_memo_key_ignores_reward_bookkeeping():
    env = SaginEnv(_walk_instance())
    env.step({1: U1})
    before = env.memo_key()
    env.sfcs[1].wait_run += 5  # shapes rewards, not dynamics
    assert env.memo_key() == before
    env.sfcs[1].t_c += 1  # shapes dynamics
    assert env.memo_key() != before


def test_memo_key_tells_claimed_cells_apart():
    env = SaginEnv(_walk_instance())
    env.step({1: U1})  # claims 1e8 bits of G0->U1 in slot 2, the current slot
    before = env.memo_key()
    env.link_load[0, G0, U1] = 5.0  # a past slot shapes nothing to come
    assert env.memo_key() == before
    env.link_load[1, G0, U1], env.link_load[1, U1, G1] = 0.0, 1e8  # same bits, other link
    assert env.memo_key() != before


def test_schedule_log_jsonl_round_trip(showcase_deferral_log):
    text = showcase_deferral_log.to_jsonl()
    back = ScheduleLog.from_jsonl(text)
    assert back.records == showcase_deferral_log.records
    assert text.count("\n") == len(showcase_deferral_log.records)


def test_step_cap_truncates_horizon():
    env = SaginEnv(_walk_instance(), step_cap=3)
    assert env.horizon == 3
    for _ in range(3):
        r = env.step({1: G0})
    assert r.done_flags[1] == "failed"
    assert env.episode_over


# -- the safety net: every emitted log is feasible ---------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_episodes_emit_feasible_logs(seed):
    cfg = tiny_run_config(np.random.default_rng(seed))
    inst = build_instance(cfg, seed)
    env = SaginEnv(inst, record_log=True)
    run_random_episode(env, np.random.default_rng(seed + 1))
    violations = check_schedule(env.log, inst)
    assert violations == []
    assert objective_value(env.log, inst) == env.objective()


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_desk_episodes_emit_feasible_logs(seed):
    inst = build_instance(load_config("configs/desk.yaml"), seed)
    env = SaginEnv(inst, record_log=True)
    run_random_episode(env, np.random.default_rng(seed + 1))
    assert check_schedule(env.log, inst) == []
    assert objective_value(env.log, inst) == env.objective()
