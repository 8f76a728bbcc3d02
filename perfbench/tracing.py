"""Per-layer trace: wrap package callables from outside and time them.

Each wrapper records one span per call (its callable, duration and the span
that was open when it started). Spans are aggregated in memory by callable
and by (parent, callable) edge, so a long run costs constant memory. Self
time is a span's duration minus the time its child spans cover.

A callable is wrapped at the attribute its caller looks up: methods on their
class, module functions in the namespace of the module that calls them
(``scenario.build_topology``, not ``topology.build_topology``). A callable
that no longer exists is reported as absent and the trace carries on.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


def _count_calls(name):
    return lambda args, result: {name: 1}


def _count_step(args, result):
    return {"env_steps": 1, "decisions": len(args[1])}


def _count_log_records(args, result):
    return {"log_records_checked": len(args[0].records)}


@dataclass(frozen=True)
class Target:
    """One traced callable: where it is looked up, its metric name, its counts."""

    module: str  # sagin_sfc submodule that holds the lookup owner
    owner: str  # "" for a module function, else the class name
    attr: str
    label: str  # metric prefix: <defining module>.<callable>
    count: object = None  # (args, result) -> {count name: increment}


# The layer table of perfbench/README.md, in the same order.
TARGETS = (
    # scenario
    Target("scenario", "", "build_instance", "scenario.build_instance",
           _count_calls("instances")),
    # topology
    Target("scenario", "", "build_topology", "topology.build_topology"),
    Target("topology", "Rteg", "link", "topology.Rteg.link"),
    # channel
    Target("channel", "LinkRateTable", "__init__", "channel.LinkRateTable.__init__"),
    Target("channel", "LinkRateTable", "has", "channel.LinkRateTable.has"),
    Target("channel", "LinkRateTable", "slot_bits", "channel.LinkRateTable.slot_bits"),
    Target("channel", "LinkRateTable", "rate_bps", "channel.LinkRateTable.rate_bps"),
    # workload
    Target("scenario", "", "generate_workload", "workload.generate_workload",
           lambda args, result: {"chains": len(result)}),
    # env
    Target("env", "SaginEnv", "reset", "env.SaginEnv.reset"),
    Target("env", "SaginEnv", "step", "env.SaginEnv.step", _count_step),
    Target("env", "SaginEnv", "action_mask", "env.SaginEnv.action_mask"),
    Target("env", "SaginEnv", "state", "env.SaginEnv.state"),
    # env (search)
    Target("env", "SaginEnv", "snapshot", "env.SaginEnv.snapshot"),
    Target("env", "SaginEnv", "restore", "env.SaginEnv.restore"),
    Target("env", "SaginEnv", "memo_key", "env.SaginEnv.memo_key",
           _count_calls("states_expanded")),
    # energy
    Target("energy", "EnergyLedger", "charge", "energy.EnergyLedger.charge",
           _count_calls("energy_charges")),
    Target("energy", "EnergyLedger", "headroom_j", "energy.EnergyLedger.headroom_j"),
    # learn
    Target("learn", "DrlAgent", "prepare", "learn.DrlAgent.prepare"),
    Target("learn", "DrlAgent", "act", "learn.DrlAgent.act"),
    Target("learn", "DrlAgent", "record", "learn.DrlAgent.record",
           _count_calls("transitions")),
    Target("learn", "DrlAgent", "train_tick", "learn.DrlAgent.train_tick"),
    Target("learn", "TabularAgent", "prepare", "learn.TabularAgent.prepare"),
    Target("learn", "TabularAgent", "act", "learn.TabularAgent.act"),
    Target("learn", "TabularAgent", "record", "learn.TabularAgent.record",
           _count_calls("transitions")),
    Target("learn", "ReplayMemory", "sample", "learn.ReplayMemory.sample",
           _count_calls("learn_batches")),
    # net
    Target("net", "DenseNet", "forward", "net.DenseNet.forward"),
    Target("net", "DenseNet", "forward_cached", "net.DenseNet.forward_cached"),
    Target("net", "DenseNet", "backward", "net.DenseNet.backward"),
    Target("net", "Adam", "step", "net.Adam.step"),
    # oracle
    Target("oracle", "", "solve_exact", "oracle.solve_exact",
           _count_calls("instances_solved")),
    # validator
    Target("validator", "", "check_schedule", "validator.check_schedule",
           _count_log_records),
    Target("validator", "", "objective_value", "validator.objective_value"),
)

COUNTS = ("instances", "chains", "env_steps", "decisions", "states_expanded",
          "energy_charges", "transitions", "learn_batches", "instances_solved",
          "log_records_checked")


def per_layer_names() -> list:
    """Every per-layer metric a traced run prints, in print order."""
    names = []
    for target in TARGETS:
        names += [f"{target.label}.calls", f"{target.label}.s", f"{target.label}.self_s"]
    names += [f"count.{c}" for c in COUNTS]
    names += ["trace.overhead_pct", "trace.absent", "trace.uncalled"]
    return names


class Tracer:
    """Span aggregation with a parent stack; install() patches, remove() undoes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict = {}  # label -> [calls, seconds, self seconds]
        self.edges: dict = {}  # (parent label, label) -> [calls, seconds]
        self.counts: dict = {name: 0 for name in COUNTS}
        self.absent: list = []
        self._stack: list = []  # open spans: [label, seconds covered by children]
        self._patched: list = []  # (owner, attr, original)
        self._setup: tuple = ({}, dict(self.counts))

    # -- spans -------------------------------------------------------------

    def _close(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        label = frame[0]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += elapsed
        st = self.stats.setdefault(label, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += elapsed
        st[2] += elapsed - frame[1]
        edge = self.edges.setdefault((parent[0] if parent else None, label), [0, 0.0])
        edge[0] += 1
        edge[1] += elapsed

    @contextmanager
    def span(self, label: str):
        """A span opened by the benchmark itself, parent to the calls inside it."""
        frame = [label, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            self._close(frame, self.clock() - start)

    def _wrapper(self, original, label: str, count):
        tracer = self

        def traced(*args, **kwargs):
            frame = [label, 0.0]
            tracer._stack.append(frame)
            start = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(frame, tracer.clock() - start)
            if count is not None:
                for name, inc in count(args, result).items():
                    tracer.counts[name] += inc
            return result

        traced.__wrapped__ = original
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target that exists under `package` (the sagin_sfc module)."""
        self.absent = []
        for target in TARGETS:
            module = getattr(package, target.module, None)
            owner = getattr(module, target.owner, None) if target.owner else module
            original = getattr(owner, target.attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(target.label)
                continue
            self._patched.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrapper(original, target.label, target.count))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- report ------------------------------------------------------------

    def mark_setup(self) -> None:
        """Freeze what has been recorded so far as the set-up phase."""
        self._setup = ({k: list(v) for k, v in self.stats.items()}, dict(self.counts))

    def layer_metrics(self, rounds: int) -> dict:
        """Set-up once plus one round (the mean over `rounds` traced rounds).

        Rounds repeat the same operations, so calls and counts per round are
        whole numbers.
        """
        setup_stats, setup_counts = self._setup
        zero = [0, 0.0, 0.0]
        out = {}
        for target in TARGETS:
            a = setup_stats.get(target.label, zero)
            b = self.stats.get(target.label, zero)
            for i, suffix, unit in ((0, "calls", "count"), (1, "s", "s"), (2, "self_s", "s")):
                out[f"{target.label}.{suffix}"] = (a[i] + (b[i] - a[i]) / rounds, unit)
        for name in COUNTS:
            value = setup_counts[name] + (self.counts[name] - setup_counts[name]) / rounds
            out[f"count.{name}"] = (value, "count")
        return out

    def uncalled(self) -> list:
        """Wrapped callables with no call at all (a wrapper that misses its caller)."""
        return [t.label for t in TARGETS
                if t.label not in self.absent and t.label not in self.stats]
