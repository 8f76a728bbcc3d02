"""Online schedulers: replay-trained value networks and tabular baselines.

All agents pick one target node per in-flight chain per slot under the
environment's action mask, deciding a whole slot at a time: `prepare` turns
the slot's state into one observation per active chain and `act` returns
every chain's action. The deep agents share one network across chains (the
chain index is part of the observation) and score the slot in one forward
pass; the tabular ones share one table over a coarse discretization.
Everything is driven by explicit numpy Generators so runs are
bit-reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import AgentConfig
from .env import EnvState, encode_states, encoded_length
from .net import DenseNet, make_optimizer


class TrainingDiverged(RuntimeError):
    """Raised when a loss or parameter stops being finite."""


# ---------------------------------------------------------------------------
# Replay memory and target rules
# ---------------------------------------------------------------------------

class ReplayMemory:
    """Fixed-capacity ring of (obs, action, reward, next_obs, next_mask, terminal)
    tuples; uniform sampling without replacement."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list = []
        self._cursor = 0

    def push(self, item: tuple) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._cursor] = item
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch: int, rng: np.random.Generator) -> list:
        idx = rng.choice(len(self._items), size=min(batch, len(self._items)),
                         replace=False)
        return [self._items[i] for i in idx]

    def __len__(self) -> int:
        return len(self._items)


def masked_argmax(q: np.ndarray, mask: np.ndarray):
    """Best allowed action per row (ties to the lowest index)."""
    if not mask.any(axis=-1).all():
        raise ValueError("mask admits no action")
    return np.argmax(np.where(mask, q, -np.inf), axis=-1)


def bootstrap_targets(reward: np.ndarray, terminal: np.ndarray, gamma: float,
                      q_pick: np.ndarray, q_score: np.ndarray,
                      mask: np.ndarray) -> np.ndarray:
    """One-step targets: `q_pick` picks the masked next action, `q_score` scores it.

    `reward`, `terminal` and `mask` cover the whole batch; `q_pick` and
    `q_score` hold next-state values of its non-terminal rows, in batch order.
    DQN passes the target net's values as both, DDQN lets the online net pick.
    """
    live = ~terminal
    best = masked_argmax(q_pick, mask[live])
    targets = reward.copy()
    targets[live] += gamma * q_score[np.arange(best.size), best]
    return targets


def epsilon_greedy(q: np.ndarray, mask: np.ndarray, greediness: float,
                   rng: np.random.Generator):
    """Masked ε-greedy per row of `q`, in row order.

    Each row draws one `rng.random()`: below `greediness` it takes the
    masked argmax (ties to the lowest index), otherwise it draws one
    `rng.integers` for a uniformly chosen allowed action. One row gives an
    int, a matrix a list.
    """
    rows = np.atleast_2d(mask)
    actions = np.atleast_1d(masked_argmax(q, mask)).tolist()
    for i in range(len(actions)):
        if rng.random() >= greediness:
            valid = np.flatnonzero(rows[i])
            actions[i] = int(valid[rng.integers(valid.size)])
    return actions if q.ndim > 1 else actions[0]


def greediness_schedule(episode: int, episodes: int, greed_max: float,
                        fraction: float) -> float:
    """Linear 0 -> greed_max over the first `fraction` of episodes, then flat."""
    ramp = max(1, int(round(episodes * fraction)))
    return greed_max * min(1.0, episode / ramp)


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------

class DrlAgent:
    """DQN/DDQN on a shared dense net; one gradient batch per train tick."""

    def __init__(self, kind: str, obs_len: int, action_count: int,
                 cfg: AgentConfig, rng: np.random.Generator):
        if kind not in ("ddqn", "dqn"):
            raise ValueError(f"unknown deep agent '{kind}'")
        self.kind = kind
        self.double = kind == "ddqn"
        self.cfg = cfg
        self.action_count = action_count
        self.online = DenseNet([obs_len, *cfg.hidden_widths, action_count], rng)
        self.target = self.online.clone()
        self.optimizer = make_optimizer(cfg.optimizer, self.online.parameters(),
                                        cfg.learning_rate)
        self.memory = ReplayMemory(cfg.replay_capacity)
        self.updates = 0
        # what terminal rows store as next observation and mask, so batches stack
        self._no_obs = np.zeros(obs_len)
        self._any_action = np.ones(action_count, dtype=bool)

    def prepare(self, state: EnvState) -> np.ndarray:
        return encode_states(state)

    def act(self, ks: list, obs: np.ndarray, masks: dict, greediness: float,
            rng: np.random.Generator) -> dict:
        mask = np.array([masks[k] for k in ks])
        return dict(zip(ks, epsilon_greedy(self.online.forward(obs), mask, greediness, rng)))

    def record(self, k: int, obs, action: int, reward: float, next_obs,
               next_mask, terminal: bool) -> None:
        if terminal:
            next_obs, next_mask = self._no_obs, self._any_action
        self.memory.push((obs, action, reward, next_obs, next_mask, terminal))

    def train_tick(self, rng: np.random.Generator) -> None:
        for _ in range(self.cfg.updates_per_step):
            if len(self.memory) < self.cfg.batch_size:
                return
            self._learn_batch(self.memory.sample(self.cfg.batch_size, rng))

    def _learn_batch(self, batch: list) -> None:
        obs, acts, rewards, next_obs, next_masks, terminal = map(np.array, zip(*batch))
        live_next = next_obs[~terminal]
        q_score = self.target.forward(live_next)
        q_pick = self.online.forward(live_next) if self.double else q_score
        targets = bootstrap_targets(rewards, terminal, self.cfg.discount, q_pick,
                                    q_score, next_masks)
        out, cache = self.online.forward_cached(obs)
        grad_out = np.zeros_like(out)
        rows = np.arange(len(batch))
        diff = out[rows, acts] - targets
        loss = float(np.mean(diff**2))
        if not np.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss}")
        grad_out[rows, acts] = 2.0 * diff / len(batch)
        grad_w, grad_b = self.online.backward(cache, grad_out)
        self.optimizer.step(grad_w + grad_b)
        self.updates += 1
        if self.updates % self.cfg.target_sync_steps == 0:
            self.target.copy_from(self.online)


def discretize(state: EnvState, tracked_nodes: int, buckets: int) -> list:
    """Coarse table key per active chain: phase, node, progress, and the
    bucketed load of the tracked nodes, which every chain shares."""
    occupancy, capacity = state.occupancy_bits.tolist(), state.capacity_bits.tolist()
    compute_ids = [n for n, cap in enumerate(capacity) if cap > 0][:tracked_nodes]
    levels = tuple(min(buckets - 1, int(occupancy[n] / capacity[n] * buckets))
                   for n in compute_ids)
    return [(phase, node, min(vnf_index, 4), levels) for phase, node, vnf_index
            in zip(state.phase.tolist(), state.node.tolist(), state.vnf_index.tolist())]


class TabularAgent:
    """Q-learning (off-policy max) or Sarsa (on-policy realized action)."""

    def __init__(self, kind: str, action_count: int, cfg: AgentConfig):
        if kind not in ("qlearning", "sarsa"):
            raise ValueError(f"unknown tabular agent '{kind}'")
        self.kind = kind
        self.cfg = cfg
        self.action_count = action_count
        self.q: dict = {}
        self.pending: dict = {}  # k -> (key, action, reward) awaiting Sarsa's a'

    def _row(self, key: tuple) -> np.ndarray:
        if key not in self.q:
            self.q[key] = np.zeros(self.action_count)
        return self.q[key]

    def prepare(self, state: EnvState) -> list:
        return discretize(state, self.cfg.tabular_tracked_nodes, self.cfg.tabular_buckets)

    def act(self, ks: list, keys: list, masks: dict, greediness: float,
            rng: np.random.Generator) -> dict:
        """Chain by chain: a Sarsa bump can change the row a later chain reads."""
        actions = {}
        for k, key in zip(ks, keys):
            action = epsilon_greedy(self._row(key), masks[k], greediness, rng)
            held = self.pending.pop(k, None)
            if held is not None:  # Sarsa: bootstrap on the action just realized
                p_key, p_action, p_reward = held
                target = p_reward + self.cfg.discount * self._row(key)[action]
                self._bump(p_key, p_action, target)
            actions[k] = action
        return actions

    def _bump(self, key: tuple, action: int, target: float) -> None:
        row = self._row(key)
        row[action] += self.cfg.tabular_alpha * (target - row[action])

    def record(self, k: int, key, action: int, reward: float, next_key,
               next_mask, terminal: bool) -> None:
        if self.kind == "qlearning":
            target = reward
            if not terminal:
                row = self._row(next_key)
                target += self.cfg.discount * float(row[masked_argmax(row, next_mask)])
            self._bump(key, action, target)
        elif terminal:
            self._bump(key, action, reward)
        else:
            self.pending[k] = (key, action, reward)

    def train_tick(self, rng: np.random.Generator) -> None:
        return None  # updates happen inline


def make_agent(kind: str, node_count: int, cfg: AgentConfig,
               rng: np.random.Generator):
    if kind in ("ddqn", "dqn"):
        return DrlAgent(kind, encoded_length(node_count), node_count, cfg, rng)
    return TabularAgent(kind, node_count, cfg)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class MetricRecord:
    episode: int
    mean_reward: float
    completed_sfcs: int
    node_utilization: float
    wall_seconds: float


def run_episode(env, agent, greediness: float, rng: np.random.Generator,
                learn: bool = True) -> tuple:
    """One full episode; returns (mean reward per chain, completed, utilization).

    Each slot reads the state, the masks and the agent's observations once
    and asks the agent for every active chain's action at once. A
    non-terminal record's next observation and mask are the very ones the
    chain acts on in the following slot.
    """
    state = env.reset()
    masks = env.masks()
    obs = agent.prepare(state)
    total = 0.0
    while not env.episode_over:
        ks, acted_obs = state.ks, obs
        actions = agent.act(ks, obs, masks, greediness, rng)
        result = env.step(actions)
        if not env.episode_over:  # otherwise every chain just finished
            state = env.state()
            masks = env.masks()
            obs = agent.prepare(state)
        row = {k: i for i, k in enumerate(state.ks)}
        for i, k in enumerate(ks):
            reward_k = result.rewards[k]
            total += reward_k
            if not learn:
                continue
            if result.done_flags[k] is None:
                agent.record(k, acted_obs[i], actions[k], reward_k, obs[row[k]], masks[k],
                             False)
            else:
                agent.record(k, acted_obs[i], actions[k], reward_k, None, None, True)
        if learn:
            agent.train_tick(rng)
    return total / len(env.sfcs), env.objective(), env.utilization()


def train(env, agent, episodes: int, cfg: AgentConfig, rng: np.random.Generator,
          measure_wall_time: bool = False) -> list:
    """Full training run; one MetricRecord per episode."""
    records = []
    for episode in range(episodes):
        started = time.perf_counter() if measure_wall_time else None
        greediness = greediness_schedule(episode, episodes, cfg.greed_max,
                                         cfg.greed_fraction)
        mean_reward, completed, utilization = run_episode(env, agent, greediness,
                                                          rng)
        wall = time.perf_counter() - started if measure_wall_time else 0.0
        records.append(MetricRecord(episode + 1, mean_reward, completed,
                                    utilization, wall))
    return records


def evaluate_greedy(env, agent, rng: np.random.Generator) -> tuple:
    """One exploitation-only episode without learning."""
    return run_episode(env, agent, 1.0, rng, learn=False)
