"""Agents and training loop: replay, target rules, schedules, tabular math."""

from __future__ import annotations

import numpy as np
import pytest

from sagin_sfc.config import AgentConfig, load_config
from sagin_sfc.env import SaginEnv
from sagin_sfc.learn import (
    DrlAgent,
    MetricRecord,
    ReplayMemory,
    TabularAgent,
    TrainingDiverged,
    bootstrap_targets,
    discretize,
    epsilon_greedy,
    evaluate_greedy,
    greediness_schedule,
    make_agent,
    masked_argmax,
    run_episode,
    train,
)
from sagin_sfc.env import EnvState, VnfPhase, encode_states, encoded_length
from sagin_sfc.scenario import build_instance, contention_instance
from sagin_sfc.workload import SfcRequest

from helpers import (
    G0,
    G1,
    U1,
    corridor_instance,
    ddqn_target,
    dqn_target,
    reference_action_mask,
    reference_discretize,
    reference_encode_state,
    reference_epsilon_greedy,
    reference_links,
)


def _tr(seed=0, terminal=False, reward=1.0, obs_len=6, actions=3) -> tuple:
    """A replay row as DrlAgent.record stores it."""
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=obs_len)
    action = int(rng.integers(actions))
    next_obs = np.zeros(obs_len) if terminal else rng.normal(size=obs_len)
    return (obs, action, reward, next_obs, np.ones(actions, dtype=bool), terminal)


# -- replay ring -------------------------------------------------------------

def test_replay_ring_overwrites_oldest():
    mem = ReplayMemory(3)
    for i in range(5):
        mem.push(_tr(i, reward=float(i)))
    assert len(mem) == 3
    # rows 3 and 4 took the ring slots of rows 0 and 1
    assert [row[2] for row in mem._items] == [3.0, 4.0, 2.0]


def test_replay_sample_without_replacement():
    mem = ReplayMemory(10)
    for i in range(10):
        mem.push(_tr(i, reward=float(i)))
    got = mem.sample(10, np.random.default_rng(0))
    assert sorted(row[2] for row in got) == [float(i) for i in range(10)]
    small = mem.sample(64, np.random.default_rng(0))
    assert len(small) == 10  # clamped to what exists
    with pytest.raises(ValueError):
        ReplayMemory(0)


def test_terminal_rows_stack_with_the_rest():
    agent = DrlAgent("dqn", 6, 3, _deep_cfg(), np.random.default_rng(0))
    agent.record(1, np.ones(6), 2, -1.0, None, None, True)
    obs, action, reward, next_obs, next_mask, terminal = agent.memory._items[0]
    assert (action, reward, terminal) == (2, -1.0, True)
    assert np.array_equal(next_obs, np.zeros(6))
    assert np.array_equal(next_mask, np.ones(3, dtype=bool))


# -- target rules ------------------------------------------------------------

def _target(reward, gamma, terminal, q_pick, q_score, mask=None):
    """bootstrap_targets on a one-row batch; no mask means every action allowed."""
    mask = np.ones(3, dtype=bool) if mask is None else mask
    if terminal:  # no non-terminal row, so no next-state values
        q_pick = q_score = np.zeros((0, 3))
    return bootstrap_targets(np.array([reward]), np.array([terminal]), gamma,
                             np.atleast_2d(q_pick), np.atleast_2d(q_score),
                             np.atleast_2d(mask))[0]


def test_masked_argmax():
    q = np.array([1.0, 5.0, 3.0])
    assert masked_argmax(q, np.array([True, False, True])) == 2
    assert masked_argmax(q, np.ones(3, dtype=bool)) == 1
    # row by row, ties to the lowest index
    rows = np.array([[1.0, 5.0, 3.0], [4.0, 4.0, 4.0]])
    picks = masked_argmax(rows, np.array([[True, False, True], [False, True, True]]))
    assert picks.tolist() == [2, 1]
    with pytest.raises(ValueError):
        masked_argmax(q, np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        masked_argmax(rows, np.array([[True, True, True], [False, False, False]]))


def test_dqn_target():
    assert _target(2.5, 0.9, True, None, None) == 2.5
    nq = np.array([1.0, 4.0, 2.0])
    assert _target(1.0, 0.9, False, nq, nq) == pytest.approx(1.0 + 0.9 * 4.0)
    mask = np.array([True, False, True])
    assert _target(1.0, 0.9, False, nq, nq, mask) == pytest.approx(1.0 + 0.9 * 2.0)


def test_ddqn_target_decouples_choice_from_score():
    online = np.array([9.0, 0.0, 1.0])   # picks action 0
    target = np.array([2.0, 7.0, 3.0])   # would rather score action 1
    assert _target(1.0, 0.9, False, online, target) == pytest.approx(1.0 + 0.9 * 2.0)
    assert _target(1.0, 0.9, False, target, target) == pytest.approx(1.0 + 0.9 * 7.0)
    # identical nets collapse the double estimator onto the single one
    everything = np.ones(3, dtype=bool)
    assert _target(1.0, 0.9, False, target, target) == dqn_target(1.0, 0.9, False,
                                                                   target, everything)
    assert _target(3.0, 0.9, True, None, None) == 3.0
    mask = np.array([False, True, True])
    assert _target(0.0, 1.0, False, online, target, mask) == pytest.approx(3.0)


def test_bootstrap_targets_match_the_one_row_rules():
    rng = np.random.default_rng(0)
    for case in range(300):
        rows, actions = int(rng.integers(1, 17)), int(rng.integers(1, 7))
        if case % 2:  # small integers, so argmax ties are common
            q_online = rng.integers(-2, 3, size=(rows, actions)).astype(float)
            q_target = rng.integers(-2, 3, size=(rows, actions)).astype(float)
        else:
            q_online = rng.normal(size=(rows, actions))
            q_target = rng.normal(size=(rows, actions))
        mask = rng.random((rows, actions)) < 0.5
        mask[np.arange(rows), rng.integers(actions, size=rows)] = True
        terminal = rng.random(rows) < 0.3
        reward = rng.normal(size=rows)
        gamma = float(rng.random())
        live = ~terminal
        dqn = bootstrap_targets(reward, terminal, gamma, q_target[live],
                                q_target[live], mask)
        ddqn = bootstrap_targets(reward, terminal, gamma, q_online[live],
                                 q_target[live], mask)
        for i in range(rows):
            t = bool(terminal[i])
            assert dqn[i] == dqn_target(reward[i], gamma, t, q_target[i], mask[i])
            assert ddqn[i] == ddqn_target(reward[i], gamma, t, q_online[i],
                                          q_target[i], mask[i])


def test_epsilon_greedy_respects_mask():
    q = np.array([0.0, 10.0, 5.0])
    mask = np.array([True, False, True])
    rng = np.random.default_rng(0)
    picks = {epsilon_greedy(q, mask, 1.0, rng) for _ in range(20)}
    assert picks == {2}  # the masked-out optimum is never taken
    explore = {epsilon_greedy(q, mask, 0.0, rng) for _ in range(200)}
    assert explore == {0, 2}
    with pytest.raises(ValueError):
        epsilon_greedy(q, np.zeros(3, dtype=bool), 0.5, rng)


def _drl_agent_acting_on(q: np.ndarray) -> DrlAgent:
    """A deep agent whose online net scores every observation matrix as `q`."""
    agent = DrlAgent("ddqn", 4, q.shape[1], _deep_cfg(), np.random.default_rng(0))
    agent.online.forward = lambda obs: q
    return agent


def test_drl_act_makes_the_per_chain_draws():
    rng = np.random.default_rng(0)
    for case in range(200):
        rows, actions = int(rng.integers(1, 13)), int(rng.integers(1, 7))
        if case % 2:  # small integers, so argmax ties are common
            q = rng.integers(-2, 3, size=(rows, actions)).astype(float)
        else:
            q = rng.normal(size=(rows, actions))
        mask = rng.random((rows, actions)) < 0.5
        mask[np.arange(rows), rng.integers(actions, size=rows)] = True
        ks = sorted(rng.choice(50, size=rows, replace=False).tolist())
        masks = dict(zip(ks, mask))
        for greediness in (0.0, 0.5, 1.0):
            seed = int(rng.integers(2**31))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _drl_agent_acting_on(q).act(ks, None, masks, greediness, got_rng)
            want = [reference_epsilon_greedy(q[i], mask[i], greediness, want_rng)
                    for i in range(rows)]
            assert list(got) == ks
            assert list(got.values()) == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_greediness_schedule_ramp():
    assert greediness_schedule(0, 100, 0.9, 0.5) == 0.0
    assert greediness_schedule(25, 100, 0.9, 0.5) == pytest.approx(0.45)
    assert greediness_schedule(50, 100, 0.9, 0.5) == pytest.approx(0.9)
    assert greediness_schedule(99, 100, 0.9, 0.5) == pytest.approx(0.9)
    # degenerate fraction still ramps over at least one episode
    assert greediness_schedule(0, 100, 0.9, 0.0) == 0.0
    assert greediness_schedule(1, 100, 0.9, 0.0) == pytest.approx(0.9)


# -- discretization and tabular agents ---------------------------------------

def _state(occ, cap, phase=VnfPhase.STORED, node=0, vnf_index=1):
    return EnvState(
        slot=1,
        ks=[1, 2],
        phase=np.array([phase, VnfPhase.TRANSMITTING]),
        node=np.array([node, 3]),
        vnf_index=np.array([vnf_index, 2]),
        length=np.array([2, 2]),
        occupancy_bits=np.asarray(occ, dtype=float),
        capacity_bits=np.asarray(cap, dtype=float),
        sfc_count=2,
    )


def test_discretize_buckets_and_tracking():
    st = _state(occ=[0.0, 2e8, 8e8, 0.0], cap=[0.0, 8e8, 8e8, 8e8])
    keys = discretize(st, tracked_nodes=2, buckets=4)
    # ground (capacity 0) skipped; loads 25% and 100% -> buckets 1 and 3,
    # shared by every chain of the slot
    assert keys == [(int(VnfPhase.STORED), 0, 1, (1, 3)),
                    (int(VnfPhase.TRANSMITTING), 3, 2, (1, 3))]
    assert discretize(st, tracked_nodes=3, buckets=4)[0][3] == (1, 3, 0)
    st2 = _state(occ=[0.0] * 4, cap=[0.0, 8e8, 8e8, 8e8], vnf_index=9)
    assert discretize(st2, 2, 4)[0][2] == 4  # progress clamps


def _slot_pass_instance(name):
    if name == "contention":
        return contention_instance()
    seed = {"tiny": 3, "desk": 1, "default": 1}[name]
    return build_instance(load_config(f"configs/{name}.yaml"), seed)


@pytest.mark.parametrize("name", ["tiny", "desk", "default", "contention"])
def test_slot_pass_matches_the_per_chain_references(name):
    instance = _slot_pass_instance(name)
    rteg, cfg = instance.rteg, AgentConfig()
    links = reference_links(rteg.nodes, rteg.positions, rteg.slot_count,
                            instance.config.scenario.range_limits)
    env = SaginEnv(instance)
    rng = np.random.default_rng(5)
    decisions = 0
    for _episode in range(2):
        state = env.reset()
        while not env.episode_over:
            masks = env.masks()
            obs = encode_states(state)
            keys = discretize(state, cfg.tabular_tracked_nodes, cfg.tabular_buckets)
            assert state.ks == env.active_sfcs() == list(masks)
            assert obs.shape == (len(state.ks), encoded_length(rteg.node_count))
            for i, k in enumerate(state.ks):
                assert np.array_equal(obs[i], reference_encode_state(env, k))
                assert keys[i] == reference_discretize(env, k, cfg.tabular_tracked_nodes,
                                                       cfg.tabular_buckets)
                assert all(type(v) is int for v in keys[i][:3] + keys[i][3])
                assert np.array_equal(masks[k], reference_action_mask(env, k, links))
            decisions += len(masks)
            env.step({k: int(rng.choice(np.flatnonzero(m))) for k, m in masks.items()})
            state = env.state()
    assert decisions > 2 * len(instance.requests)


def test_qlearning_update_math():
    cfg = AgentConfig(tabular_alpha=0.5, discount=0.9)
    agent = TabularAgent("qlearning", 3, cfg)
    key, nxt = ("s",), ("s2",)
    agent.q[nxt] = np.array([0.0, 2.0, 1.0])
    agent.record(1, key, 0, 1.0, nxt, np.array([True, True, True]), False)
    # target = 1 + 0.9 * 2 = 2.8; row moves half way from 0
    assert agent.q[key][0] == pytest.approx(1.4)
    agent.record(1, key, 0, -1.0, None, None, True)
    assert agent.q[key][0] == pytest.approx(1.4 + 0.5 * (-1.0 - 1.4))


def test_sarsa_waits_for_the_realized_action():
    cfg = AgentConfig(tabular_alpha=0.5, discount=0.9)
    agent = TabularAgent("sarsa", 3, cfg)
    key, nxt = ("s",), ("s2",)
    agent.q[nxt] = np.array([0.0, 5.0, 1.0])
    agent.record(1, key, 0, 1.0, nxt, np.ones(3, dtype=bool), False)
    assert key not in agent.q  # stashed, not applied yet
    assert 1 in agent.pending
    # the mask forces action 2 — not the argmax 1 — so the realized action is
    # exploratory and Sarsa must bootstrap on it, not on the max
    taken = agent.act([1], [nxt], {1: np.array([False, False, True])}, 1.0,
                      np.random.default_rng(0))
    assert taken == {1: 2}
    assert agent.q[key][0] == pytest.approx(0.5 * (1.0 + 0.9 * 1.0))
    assert 1 not in agent.pending


def test_sarsa_terminal_updates_immediately():
    agent = TabularAgent("sarsa", 2, AgentConfig(tabular_alpha=1.0))
    agent.record(1, ("s",), 1, -1.0, None, None, True)
    assert agent.q[("s",)][1] == pytest.approx(-1.0)
    assert agent.pending == {}


# -- deep agents -------------------------------------------------------------

def _deep_cfg(**kw) -> AgentConfig:
    base = dict(batch_size=4, replay_capacity=50, target_sync_steps=10_000,
                updates_per_step=1, hidden_widths=[16], learning_rate=0.01)
    base.update(kw)
    return AgentConfig(**base)


def test_make_agent_dispatch():
    cfg = _deep_cfg()
    rng = np.random.default_rng(0)
    assert isinstance(make_agent("ddqn", 3, cfg, rng), DrlAgent)
    assert make_agent("dqn", 3, cfg, rng).double is False
    assert isinstance(make_agent("qlearning", 3, cfg, rng), TabularAgent)
    assert make_agent("sarsa", 3, cfg, rng).kind == "sarsa"
    with pytest.raises(ValueError, match="unknown tabular agent"):
        make_agent("a2c", 3, cfg, rng)


def test_drl_agent_waits_for_batch_then_learns():
    agent = DrlAgent("dqn", 6, 3, _deep_cfg(), np.random.default_rng(0))
    before = [w.copy() for w in agent.online.weights]
    agent.memory.push(_tr(0))
    agent.train_tick(np.random.default_rng(1))
    assert all(np.array_equal(a, b) for a, b in zip(before, agent.online.weights))
    for i in range(1, 4):
        agent.memory.push(_tr(i))
    agent.train_tick(np.random.default_rng(1))
    assert agent.updates == 1
    assert not all(np.array_equal(a, b) for a, b in zip(before, agent.online.weights))


def test_target_net_syncs_on_schedule():
    agent = DrlAgent("dqn", 6, 3, _deep_cfg(target_sync_steps=2),
                     np.random.default_rng(0))
    for i in range(8):
        agent.memory.push(_tr(i))
    agent.train_tick(np.random.default_rng(1))  # update 1: no sync yet
    assert not all(
        np.array_equal(a, b)
        for a, b in zip(agent.online.weights, agent.target.weights)
    )
    agent.train_tick(np.random.default_rng(2))  # update 2: synced
    assert all(
        np.array_equal(a, b)
        for a, b in zip(agent.online.weights, agent.target.weights)
    )


def test_ddqn_equals_dqn_while_nets_are_identical():
    # fresh agents clone online into target, so the first batch must produce
    # byte-identical updates for both estimators
    transitions = [_tr(i) for i in range(6)]
    nets = {}
    for kind in ("ddqn", "dqn"):
        agent = DrlAgent(kind, 6, 3, _deep_cfg(), np.random.default_rng(42))
        for t in transitions:
            agent.memory.push(t)
        agent.train_tick(np.random.default_rng(7))
        nets[kind] = agent.online
    for a, b in zip(nets["ddqn"].parameters(), nets["dqn"].parameters()):
        assert np.array_equal(a, b)


def test_training_divergence_detected():
    agent = DrlAgent("dqn", 6, 3, _deep_cfg(), np.random.default_rng(0))
    for i in range(4):
        agent.memory.push(_tr(i))
    agent.online.weights[0][:] = np.nan
    with pytest.raises(TrainingDiverged):
        agent.train_tick(np.random.default_rng(1))


def test_updates_per_step_multiplier():
    agent = DrlAgent("dqn", 6, 3, _deep_cfg(updates_per_step=3),
                     np.random.default_rng(0))
    for i in range(8):
        agent.memory.push(_tr(i))
    agent.train_tick(np.random.default_rng(1))
    assert agent.updates == 3


# -- episode loop ------------------------------------------------------------

class _ScriptedAgent:
    """Replays a slot-indexed action plan and records every callback.

    Slots missing from the plan take the highest node id the mask allows.
    """

    def __init__(self, plan):
        self.plan = plan
        self.recorded = []
        self.ticks = 0
        self.prepared = 0
        self.acted = {}  # (slot, k) -> (obs, mask) handed to act
        self.nexts = []  # (slot, k, next_obs, next_mask) of non-terminal records

    def prepare(self, state):
        self.prepared += 1
        return [(state.slot, k) for k in state.ks]

    def act(self, ks, obs, masks, greediness, rng):
        self.greediness = greediness
        actions = {}
        for k, ob in zip(ks, obs):
            self.acted[ob] = (ob, masks[k])
            actions[k] = self.plan.get(ob[0], int(np.flatnonzero(masks[k])[-1]))
        return actions

    def record(self, k, obs, action, reward, next_obs, next_mask, terminal):
        self.recorded.append((obs[0], action, reward, terminal))
        if not terminal:
            self.nexts.append((obs[0], k, next_obs, next_mask))

    def train_tick(self, rng):
        self.ticks += 1


def test_run_episode_accounting():
    env = SaginEnv(corridor_instance(delta_bits=1e8, sigmas=(4e8,), deadline=10))
    agent = _ScriptedAgent({1: U1, 2: U1, 3: U1, 4: G1, 5: G1})
    mean_reward, completed, utilization = run_episode(
        env, agent, 0.7, np.random.default_rng(0), learn=True
    )
    assert mean_reward == pytest.approx(0.9 + 1.0 + 0.8 + 0.9 + 10.0)
    assert completed == 1
    assert utilization == pytest.approx(4e8 / (8e8 * 12))
    assert agent.ticks == 5
    assert len(agent.recorded) == 5
    slot, action, reward, terminal = agent.recorded[-1]
    assert (slot, action, reward, terminal) == (5, G1, pytest.approx(10.0), True)
    assert all(not t for *_, t in agent.recorded[:-1])


def test_run_episode_prepares_each_chain_once_per_slot():
    reqs = [SfcRequest(k=k, sigmas_bits=[4e8], delta_bits=1e8, origin=G0, dest=G1,
                       deadline_slots=deadline)
            for k, deadline in ((1, 12), (2, 7), (3, 4))]
    env = SaginEnv(corridor_instance(requests=reqs))
    agent = _ScriptedAgent({})
    run_episode(env, agent, 1.0, np.random.default_rng(0), learn=True)
    slots = {slot for slot, _k in agent.acted}
    assert agent.prepared == len(slots) == agent.ticks
    assert len(agent.acted) == len(agent.recorded)
    assert {k for _slot, k in agent.acted} == {1, 2, 3}
    assert agent.nexts
    for slot, k, next_obs, next_mask in agent.nexts:
        obs, mask = agent.acted[(slot + 1, k)]
        assert next_obs is obs and next_mask is mask


def test_run_episode_learn_false_records_nothing():
    env = SaginEnv(corridor_instance(delta_bits=1e8, sigmas=(4e8,), deadline=10))
    agent = _ScriptedAgent({1: U1, 2: U1, 3: U1, 4: G1, 5: G1})
    run_episode(env, agent, 1.0, np.random.default_rng(0), learn=False)
    assert agent.recorded == []
    assert agent.ticks == 0


def test_train_produces_metric_records():
    env = SaginEnv(corridor_instance(delta_bits=1e8, sigmas=(4e8,), deadline=10))
    cfg = _deep_cfg(greed_max=0.9, greed_fraction=0.5)
    agent = make_agent("qlearning", env.rteg.node_count, cfg, np.random.default_rng(0))
    records = train(env, agent, 6, cfg, np.random.default_rng(0))
    assert len(records) == 6
    assert [r.episode for r in records] == [1, 2, 3, 4, 5, 6]
    assert all(isinstance(r, MetricRecord) for r in records)
    assert all(r.wall_seconds == 0.0 for r in records)
    timed = train(env, agent, 2, cfg, np.random.default_rng(0),
                  measure_wall_time=True)
    assert all(r.wall_seconds > 0.0 for r in timed)


def test_evaluate_greedy_is_pure_exploitation():
    env = SaginEnv(corridor_instance(delta_bits=1e8, sigmas=(4e8,), deadline=10))
    agent = _ScriptedAgent({1: U1, 2: U1, 3: U1, 4: G1, 5: G1})
    evaluate_greedy(env, agent, np.random.default_rng(0))
    assert agent.greediness == 1.0
    assert agent.recorded == []


def test_deep_agent_runs_on_the_environment():
    env = SaginEnv(corridor_instance(delta_bits=1e8, sigmas=(4e8,), deadline=10))
    cfg = _deep_cfg(batch_size=8)
    agent = make_agent("ddqn", env.rteg.node_count, cfg, np.random.default_rng(0))
    records = train(env, agent, 10, cfg, np.random.default_rng(1))
    assert len(records) == 10
    assert agent.updates > 0
    assert all(np.isfinite(r.mean_reward) for r in records)
