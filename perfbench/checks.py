"""Output checks, made apart from the code they check.

Each function returns a list of problems as strings; an empty list means the
output passed. The schedule validator is the referee for logs; the rest are
plain bounds that any correct run must meet.
"""

from __future__ import annotations

import math

from sagin_sfc import validator


def check_log(log, instance, env_objective: int, horizon=None) -> list:
    """A realised log validates clean and recomputes to the env's own objective."""
    problems = [f"violation: {v}" for v in validator.check_schedule(log, instance, horizon=horizon)]
    recomputed = validator.objective_value(log, instance)
    if recomputed != env_objective:
        problems.append(f"objective_value(log) = {recomputed}, env objective = {env_objective}")
    return problems


def check_utilisation(value: float, what: str) -> list:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        return [f"{what}: utilisation {value!r} outside [0, 1]"]
    return []


def check_optimum(optimum: int, random_completed: int, chain_count: int) -> list:
    """The exact optimum lies between a random policy's result and the chain count."""
    problems = []
    if optimum < random_completed:
        problems.append(f"optimum {optimum} below a random policy's {random_completed}")
    if optimum > chain_count:
        problems.append(f"optimum {optimum} above the chain count {chain_count}")
    return problems
