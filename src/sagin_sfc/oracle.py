"""Exact solver: exhaustive search over joint per-slot actions on tiny instances.

Ground truth for the agents and the feasibility checker. The search drives
the same environment the agents use (snapshot/restore around each branch),
memoizes on the environment's dynamics-complete state key, and prunes
branches that provably cannot beat the best sibling found so far. Values
memoized are exact, so the returned objective is the true optimum; ties
resolve to the lexicographically smallest joint-action sequence.
"""

from __future__ import annotations

import itertools

import numpy as np

from .env import SaginEnv

ORACLE_MAX_SFCS = 3
ORACLE_MAX_COMPUTE_NODES = 4  # UAVs + satellites
ORACLE_MAX_SLOTS = 20
DEFAULT_STATE_BUDGET = 2_000_000


class InstanceTooLarge(ValueError):
    """The instance exceeds the exact solver's structural or search bounds."""


def check_tiny(instance, step_cap: int | None = None) -> None:
    """Upfront structural bounds; the runtime budget guards the rest."""
    sfcs = len(instance.requests)
    compute_nodes = sum(
        1 for n in instance.rteg.nodes if n.compute_capacity_bits > 0
    )
    slots = min(step_cap or instance.rteg.slot_count, instance.rteg.slot_count)
    if sfcs > ORACLE_MAX_SFCS:
        raise InstanceTooLarge(f"{sfcs} chains exceed the {ORACLE_MAX_SFCS}-chain bound")
    if compute_nodes > ORACLE_MAX_COMPUTE_NODES:
        raise InstanceTooLarge(
            f"{compute_nodes} compute nodes exceed the {ORACLE_MAX_COMPUTE_NODES}-node bound"
        )
    if slots > ORACLE_MAX_SLOTS:
        raise InstanceTooLarge(f"{slots} slots exceed the {ORACLE_MAX_SLOTS}-slot bound")


def _joint_actions(env: SaginEnv) -> list:
    """All joint assignments, lexicographic by (chain, action)."""
    ks = sorted(env.active_sfcs())
    per_k = [
        [int(a) for a in np.flatnonzero(env.action_mask(k))]
        for k in ks
    ]
    return [dict(zip(ks, combo)) for combo in itertools.product(*per_k)]


def solve_exact(instance, step_cap: int | None = None,
                state_budget: int = DEFAULT_STATE_BUDGET) -> tuple:
    """Maximum number of completable chains plus one optimal realized log."""
    check_tiny(instance, step_cap)
    env = SaginEnv(instance, record_log=False, step_cap=step_cap)
    env.reset()
    memo: dict = {}
    calls = 0

    def bound(e: SaginEnv) -> int:
        """Chains completed or still alive: no branch can complete more."""
        return sum(1 for s in e.sfcs.values() if s.done != "failed")

    def dfs() -> int:
        nonlocal calls
        calls += 1
        if calls > state_budget:
            raise InstanceTooLarge(
                f"search exceeded the {state_budget}-state budget"
            )
        if env.episode_over:
            return env.objective()
        key = env.memo_key()
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        snap = env.snapshot()
        best_value, best_action = -1, None
        for joint in _joint_actions(env):
            env.step(joint)
            if bound(env) > best_value:  # branch can still improve on siblings
                value = dfs()
                if value > best_value:
                    best_value, best_action = value, joint
            env.restore(snap)
        memo[key] = (best_value, best_action)
        return best_value

    optimum = dfs()

    witness_env = SaginEnv(instance, record_log=True, step_cap=step_cap)
    witness_env.reset()
    while not witness_env.episode_over:
        _, action = memo[witness_env.memo_key()]
        witness_env.step(action)
    if witness_env.objective() != optimum:
        raise RuntimeError("witness replay does not reach the memoized optimum")
    return optimum, witness_env.log
