"""Slot-stepped scheduling environment for SFCs over the time-expanded network.

Each in-flight chain is in exactly one phase per slot: transmitting (0),
processing (1) or stored (2). Actions pick a node at the start of a slot and
take effect in the following slot: a move decided at t wires during
t+1..t+d, the arrival shows up as stored at t+d+1, and processing admission
is resolved against node capacity with ties broken by payload size
ascending. Completion happens on the wire slot that reaches the destination.

Conventions that keep emitted logs feasible by construction:
 - concurrent transfers on one directed link split capacity pro rata; a new
   transfer's duration is ceil(delta / residual slot capacity), so per-slot
   shares never oversubscribe a link;
 - delta is reserved at the target's storage from initiation until departure;
 - hover and per-slot satellite upkeep for the whole horizon are charged at
   reset, transfers and compute on top as they happen;
 - a move that cannot execute (no link in the wire slot, full link, full
   storage, no energy headroom, or past the horizon) degrades to a stay.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .energy import (
    EnergyLedger,
    compute_energy_j,
    compute_j_per_bit,
    fixed_energy_j,
    link_powers_w,
    transfer_charges,
)
from .topology import NodeKind
from .workload import vnf_process_slots


class VnfPhase(IntEnum):
    TRANSMITTING = 0
    PROCESSING = 1
    STORED = 2


def reward(t_c: float, t_w: float, c0: float, c1: float, c2: float) -> float:
    """Per-step return signal: base payoff minus transmit and wait penalties."""
    return c0 - c1 * t_c - c2 * t_w


def admit_contenders(contenders: list, capacity_remaining: float) -> tuple:
    """Greedy admission by payload size ascending while compute demand fits.

    `contenders` holds (k, delta_bits, sigma_bits) triples; returns
    (admitted, rejected) lists of k in decision order.
    """
    admitted, rejected = [], []
    room = capacity_remaining
    for k, _delta, sigma in sorted(contenders, key=lambda c: (c[1], c[0])):
        if sigma <= room + 1e-9:
            admitted.append(k)
            room -= sigma
        else:
            rejected.append(k)
    return admitted, rejected


@dataclass
class EnvState:
    """One slot's view for policies: the active chains, in chain order, as arrays."""

    slot: int
    ks: list  # active chain ids
    phase: np.ndarray  # (A,) VnfPhase codes
    node: np.ndarray  # (A,)
    vnf_index: np.ndarray  # (A,)
    length: np.ndarray  # (A,) VNFs per chain, l_k
    occupancy_bits: np.ndarray  # (node_count,)
    capacity_bits: np.ndarray
    sfc_count: int


def encode_states(state: EnvState) -> np.ndarray:
    """One observation row per active chain: k/K, phase one-hot, node one-hot,
    progress, occupancy."""
    node_count = len(state.capacity_bits)
    rows = np.arange(len(state.ks))
    obs = np.zeros((rows.size, encoded_length(node_count)))
    obs[:, 0] = np.divide(state.ks, state.sfc_count)
    obs[rows, 1 + state.phase] = 1.0
    obs[rows, 4 + state.node] = 1.0
    obs[:, 4 + node_count] = np.minimum(state.vnf_index, state.length) / state.length
    np.divide(state.occupancy_bits, state.capacity_bits, out=obs[:, 5 + node_count:],
              where=state.capacity_bits > 0)
    return obs


def encoded_length(node_count: int) -> int:
    return 1 + 3 + node_count + 1 + node_count


class ScheduleLog:
    """Realized decision variables, one JSON object per line on export."""

    def __init__(self):
        self.records: list = []

    def add_x(self, k: int, node: int, t: int, vnf: int) -> None:
        self.records.append({"var": "x", "k": k, "node": node, "t": t, "vnf": vnf, "value": 1})

    def remove_x(self, k: int, vnf: int) -> None:
        self.records = [
            r for r in self.records
            if not (r["var"] == "x" and r["k"] == k and r.get("vnf") == vnf)
        ]

    def add_y(self, k: int, node: int, t: int) -> None:
        self.records.append({"var": "y", "k": k, "node": node, "t": t, "value": 1})

    def add_z(self, k: int, src: int, dst: int, t: int, dur: int, share_bits: float) -> None:
        self.records.append(
            {"var": "z", "k": k, "link": [src, dst], "t": t, "dur": dur,
             "share_bits": share_bits, "value": 1}
        )

    def truncate_z(self, k: int, start: int, used: int) -> None:
        for r in self.records:
            if r["var"] == "z" and r["k"] == k and r["t"] == start:
                r["dur"] = used

    def add_rho(self, k: int, node: int, t: int) -> None:
        self.records.append({"var": "rho", "k": k, "node": node, "t": t, "value": 1})

    def add_indicator(self, k: int, value: int) -> None:
        self.records.append({"var": "I", "k": k, "value": value})

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)

    @classmethod
    def from_jsonl(cls, text: str) -> "ScheduleLog":
        log = cls()
        for line in text.splitlines():
            if line.strip():
                log.records.append(json.loads(line))
        return log


@dataclass
class StepResult:
    rewards: dict  # k -> float, for every SFC that was active entering the step
    done_flags: dict  # k -> None | "completed" | "failed"
    episode_over: bool


@dataclass
class _Sfc:
    request: object
    phase: VnfPhase = VnfPhase.STORED
    node: int = 0
    vnf_index: int = 1
    t_c: int = 0
    t_p: int = 0
    wait_run: int = 0  # consecutive stored-idle slots at the current node
    done: str | None = None
    completion_slot: int | None = None
    transfer_src: int = -1
    transfer_start: int = 0
    transfer_end: int = 0
    transfer_share: float = 0.0


class SaginEnv:
    """Online scheduler environment over a built instance (see scenario.build_instance)."""

    def __init__(self, instance, record_log: bool = False, step_cap: int | None = None):
        self.instance = instance
        self.rteg = instance.rteg
        self.rates = instance.rates
        self.record_log = record_log
        self.horizon = min(step_cap or instance.rteg.slot_count, instance.rteg.slot_count)
        agent = instance.config.agent
        self.c0, self.c1, self.c2 = agent.reward_c0, agent.reward_c1, agent.reward_c2
        self.discount = agent.discount
        self.node_kind = {n.node_id: n.kind for n in self.rteg.nodes}
        self.capacity = np.array(
            [n.compute_capacity_bits for n in self.rteg.nodes], dtype=float
        )
        self._present = self.rteg.kinds >= 0  # (slot, src, dst)
        self._relay = np.array([n.kind is not NodeKind.GROUND for n in self.rteg.nodes])
        self.link_load = np.zeros(self.rteg.kinds.shape)  # (slot, src, dst) bits claimed
        self._link_powers = link_powers_w(instance)
        self._e_c = compute_j_per_bit(instance)
        self._fixed_j = fixed_energy_j(instance, self.horizon)
        self.reset()

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> EnvState:
        self.slot = 1
        self._handed = None  # masks handed out for the current slot, if any
        self.sfcs = {r.k: _Sfc(request=r, node=r.origin) for r in self.instance.requests}
        self.occupancy = {n.node_id: 0.0 for n in self.rteg.nodes}
        self.storage_used = {n.node_id: 0.0 for n in self.rteg.nodes}
        self.link_load.fill(0.0)
        self.energy = EnergyLedger(
            budgets={n.node_id: n.energy_budget_j for n in self.rteg.nodes
                     if n.kind is not NodeKind.GROUND}
        )
        self.log = ScheduleLog() if self.record_log else None
        self.util_occupied_sum = 0.0
        self.episode_over = False
        for node, joules in self._fixed_j.items():
            self.energy.charge(node, "fixed", joules)
        return self.state()

    # -- views -------------------------------------------------------------

    def state(self) -> EnvState:
        ks, phase, node, vnf_index, length = [], [], [], [], []
        for k, s in self.sfcs.items():
            if s.done is None:
                ks.append(k)
                phase.append(int(s.phase))
                node.append(s.node)
                vnf_index.append(s.vnf_index)
                length.append(s.request.length)
        return EnvState(
            slot=self.slot,
            ks=ks,
            phase=np.array(phase, dtype=np.intp),
            node=np.array(node, dtype=np.intp),
            vnf_index=np.array(vnf_index, dtype=np.intp),
            length=np.array(length, dtype=np.intp),
            occupancy_bits=np.array(list(self.occupancy.values())),
            capacity_bits=self.capacity.copy(),
            sfc_count=len(self.sfcs),
        )

    def active_sfcs(self) -> list:
        return [k for k, s in self.sfcs.items() if s.done is None]

    def action_mask(self, k: int) -> np.ndarray:
        """Boolean mask over node ids; stay is always allowed, moves need a link now.

        A move may target any linked UAV or satellite, and the chain's
        destination once its last VNF is done.
        """
        s = self.sfcs[k]
        if s.done is not None:
            raise ValueError(f"SFC {k} is finished")
        if s.phase is VnfPhase.TRANSMITTING and s.t_c > 1:
            mask = np.zeros(self.rteg.node_count, dtype=bool)  # committed to the wire
        else:
            links = self._present[self.slot - 1, s.node]
            mask = links & self._relay
            if s.vnf_index > s.request.length:
                mask[s.request.dest] = links[s.request.dest]
        mask[s.node] = True
        return mask

    def masks(self) -> dict:
        """Each active chain's action mask; the next `step` validates against these."""
        self._handed = {k: self.action_mask(k) for k in self.active_sfcs()}
        return self._handed

    # -- stepping ----------------------------------------------------------

    def step(self, actions: dict) -> StepResult:
        if self.episode_over:
            raise RuntimeError("episode is over; call reset()")
        t = self.slot
        rewards: dict = {}
        done_flags: dict = {}
        active = self.active_sfcs()
        handed, self._handed = self._handed, None
        for k in active:
            a = actions.get(k)
            mask = self.action_mask(k) if handed is None else handed[k]
            if a is None or not mask[a]:
                raise ValueError(f"SFC {k}: action {a} outside mask at slot {t}")

        self._settle_completions(t, rewards, done_flags)
        self._settle_failures(t, rewards, done_flags, active)

        pending: dict = {}
        for k in active:
            s = self.sfcs[k]
            if s.done is not None:
                continue
            done_flags[k] = None
            a = actions[k]
            if s.phase is VnfPhase.TRANSMITTING and s.t_c > 1:
                s.t_c -= 1
                pending[k] = VnfPhase.TRANSMITTING
                rewards[k] = 0.0  # forced wire slot, not a decision
                continue
            initiated = 0
            if a != s.node:
                initiated = self._try_transfer(k, a, t)
            if initiated:
                pending[k] = VnfPhase.TRANSMITTING
                rewards[k] = reward(float(initiated), 0.0, self.c0, self.c1, self.c2)
                continue
            # stay, chosen or degraded
            if s.phase is VnfPhase.PROCESSING:
                if s.t_p > 1:
                    s.t_p -= 1
                    pending[k] = VnfPhase.PROCESSING
                    rewards[k] = reward(0.0, 0.0, self.c0, self.c1, self.c2)
                    continue
                self._complete_vnf(k)
            pending[k] = VnfPhase.STORED
            s.wait_run += 1
            rewards[k] = reward(0.0, float(s.wait_run), self.c0, self.c1, self.c2)

        self._resolve_contention(pending, t, rewards)
        self._advance(pending, t)
        return StepResult(rewards=rewards, done_flags=done_flags,
                          episode_over=self.episode_over)

    def _settle_completions(self, t: int, rewards: dict, done_flags: dict) -> None:
        for k, s in self.sfcs.items():
            if (
                s.done is None
                and s.phase is VnfPhase.TRANSMITTING
                and s.t_c <= 1
                and s.node == s.request.dest
                and s.vnf_index > s.request.length
                and t <= s.request.deadline_slots
            ):
                s.done = "completed"
                s.completion_slot = t
                # closed-form value of the absorbing post-completion payoff stream
                bonus = self.c0 * self.discount / (1.0 - self.discount)
                rewards[k] = reward(0.0, 0.0, self.c0, self.c1, self.c2) + bonus
                done_flags[k] = "completed"

    def _settle_failures(self, t: int, rewards: dict, done_flags: dict, active: list) -> None:
        for k in active:
            s = self.sfcs[k]
            if s.done is None and (t >= s.request.deadline_slots or t >= self.horizon):
                self._release_on_failure(k, t)
                s.done = "failed"
                rewards[k] = -self.c0
                done_flags[k] = "failed"

    def _complete_vnf(self, k: int) -> None:
        """The current VNF's last processing slot just ran; free its compute."""
        s = self.sfcs[k]
        sigma = s.request.sigmas_bits[s.vnf_index - 1]
        self.occupancy[s.node] = max(0.0, self.occupancy[s.node] - sigma)
        s.t_p = 0
        s.vnf_index += 1
        s.wait_run = 0

    def _try_transfer(self, k: int, target: int, t: int) -> int:
        """Initiate a move decided at slot t; returns the wire duration, 0 if degraded."""
        s = self.sfcs[k]
        delta = s.request.delta_bits
        src = s.node
        start = t + 1
        dur = self._feasible_duration(src, target, start, delta)
        if dur == 0:
            return 0
        if self.node_kind[target] is not NodeKind.GROUND:
            spec = self.rteg.nodes[target]
            if self.storage_used[target] + delta > spec.storage_bits + 1e-9:
                return 0
        if not self._charge_transfer_energy(src, target, start, delta, dry_run=True):
            return 0

        # committed: drop any partial processing, move holdings, claim the wire
        if s.phase is VnfPhase.PROCESSING:
            self._cancel_processing(k)
        if self.node_kind[src] is not NodeKind.GROUND:
            self.storage_used[src] = max(0.0, self.storage_used[src] - delta)
        if self.node_kind[target] is not NodeKind.GROUND:
            self.storage_used[target] += delta
        share = delta / dur
        self.link_load[start - 1:start - 1 + dur, src, target] += share
        self._charge_transfer_energy(src, target, start, delta, dry_run=False)
        s.t_c = dur
        s.node = target
        s.transfer_src = src
        s.transfer_start = start
        s.transfer_end = start + dur - 1
        s.transfer_share = share
        s.wait_run = 0
        if self.log is not None:
            self.log.add_z(k, src, target, start, dur, share)
        return dur

    def _feasible_duration(self, src: int, dst: int, start: int, delta: float) -> int:
        """Smallest wire length whose pro-rata share fits every covered slot."""
        if start > self.horizon or not self._present.item(start - 1, src, dst):
            return 0
        first = self._residual(src, dst, start)
        if first <= 0:
            return 0
        dur = max(1, math.ceil(delta / first))
        while True:
            if start + dur - 1 > self.horizon:
                return 0
            worst = math.inf
            for w in range(start, start + dur):
                if not self._present.item(w - 1, src, dst):
                    return 0
                worst = min(worst, self._residual(src, dst, w))
            if worst <= 0:
                return 0
            needed = max(1, math.ceil(delta / worst))
            if needed <= dur:
                return dur
            dur = needed

    def _residual(self, src: int, dst: int, w: int) -> float:
        """Unclaimed bits of a present link in slot w."""
        return (self.rates.bps.item(w - 1, src, dst) * self.rates.tau_s
                - self.link_load.item(w - 1, src, dst))

    def _charge_transfer_energy(
        self, src: int, dst: int, start: int, delta: float, dry_run: bool
    ) -> bool:
        """Transmit (and satellite receive) energy for one transfer; False if over budget."""
        kind = self.rteg.link(src, dst, start)
        rate = self.rates.rate_bps(src, dst, start)
        charges = transfer_charges(self._link_powers, kind, src, dst, delta, rate)
        if any(self.energy.headroom_j(node) < joules for node, joules in charges):
            return False
        if not dry_run:
            for node, joules in charges:
                self.energy.charge(node, "transfer", joules)
        return True

    def _cancel_processing(self, k: int) -> None:
        s = self.sfcs[k]
        sigma = s.request.sigmas_bits[s.vnf_index - 1]
        self.occupancy[s.node] = max(0.0, self.occupancy[s.node] - sigma)
        s.t_p = 0
        if self.log is not None:
            self.log.remove_x(k, s.vnf_index)

    def _resolve_contention(self, pending: dict, t: int, rewards: dict) -> None:
        """Admit stored chains with an unprocessed VNF, smallest payload first."""
        by_node: dict = {}
        for k, phase in pending.items():
            s = self.sfcs[k]
            if (
                phase is VnfPhase.STORED
                and s.vnf_index <= s.request.length
                and self.node_kind[s.node] is not NodeKind.GROUND
            ):
                by_node.setdefault(s.node, []).append(k)
        for node in sorted(by_node):
            room = self.capacity[node] - self.occupancy[node]
            contenders = [
                (k, self.sfcs[k].request.delta_bits,
                 self.sfcs[k].request.sigmas_bits[self.sfcs[k].vnf_index - 1])
                for k in by_node[node]
            ]
            admitted, _ = admit_contenders(contenders, room)
            spec = self.rteg.nodes[node]
            for k in admitted:
                s = self.sfcs[k]
                sigma = s.request.sigmas_bits[s.vnf_index - 1]
                joules = compute_energy_j(sigma, self._e_c[node])
                if self.energy.headroom_j(node) < joules:
                    continue  # energy-blocked; stays stored and waits
                self.energy.charge(node, "compute", joules)
                self.occupancy[node] += sigma
                pending[k] = VnfPhase.PROCESSING
                s.t_p = vnf_process_slots(sigma, spec.compute_rate_bps, self.rteg.slot_seconds)
                s.wait_run = 0
                rewards[k] = reward(0.0, 0.0, self.c0, self.c1, self.c2)
                if self.log is not None:
                    self.log.add_x(k, node, t + 1, s.vnf_index)
            assert self.occupancy[node] <= self.capacity[node] + 1e-6

    def _advance(self, pending: dict, t: int) -> None:
        self.slot = t + 1
        if self.slot <= self.horizon:
            for k, phase in pending.items():
                s = self.sfcs[k]
                s.phase = phase
                if self.log is not None and phase is not VnfPhase.TRANSMITTING \
                        and self.node_kind[s.node] is not NodeKind.GROUND:
                    if phase is VnfPhase.STORED and self.slot < self.rteg.slot_count:
                        self.log.add_rho(k, s.node, self.slot)
                    self.log.add_y(k, s.node, self.slot)
            self.util_occupied_sum += sum(
                self.occupancy[n] for n, kind in self.node_kind.items()
                if kind is not NodeKind.GROUND
            )
        if not self.active_sfcs() or self.slot > self.horizon:
            self._finish_episode()

    def _release_on_failure(self, k: int, t: int) -> None:
        s = self.sfcs[k]
        delta = s.request.delta_bits
        if s.phase is VnfPhase.PROCESSING:
            self._cancel_processing(k)
        elif s.phase is VnfPhase.TRANSMITTING:
            cells = (slice(t, s.transfer_end), s.transfer_src, s.node)  # slots t+1..end
            self.link_load[cells] = np.maximum(self.link_load[cells] - s.transfer_share, 0.0)
            if self.log is not None and s.transfer_end > t:
                self.log.truncate_z(k, s.transfer_start, t - s.transfer_start + 1)
        if self.node_kind[s.node] is not NodeKind.GROUND:
            self.storage_used[s.node] = max(0.0, self.storage_used[s.node] - delta)

    def _finish_episode(self) -> None:
        self.episode_over = True
        for k, s in self.sfcs.items():
            if s.done is None:
                s.done = "failed"
            if self.log is not None:
                self.log.add_indicator(k, 1 if s.done == "completed" else 0)

    # -- episode metrics ---------------------------------------------------

    def objective(self) -> int:
        return sum(1 for s in self.sfcs.values() if s.done == "completed")

    def utilization(self) -> float:
        """Occupied compute over the full-horizon capacity product, UAV/satellite pool."""
        cap = sum(
            n.compute_capacity_bits for n in self.rteg.nodes
            if n.kind is not NodeKind.GROUND
        )
        if cap <= 0:
            return 0.0
        return self.util_occupied_sum / (cap * self.horizon)

    # -- snapshot / restore (exact search support) -------------------------

    def snapshot(self) -> tuple:
        sfc_part = tuple(
            (k, int(s.phase), s.node, s.vnf_index, s.t_c, s.t_p, s.wait_run,
             s.done, s.completion_slot, s.transfer_src, s.transfer_start,
             s.transfer_end, s.transfer_share)
            for k, s in sorted(self.sfcs.items())
        )
        return (
            self.slot,
            sfc_part,
            dict(self.occupancy),
            dict(self.storage_used),
            self.link_load.copy(),
            dict(self.energy.spent),
            dict(self.energy.by_label),
            self.util_occupied_sum,
            self.episode_over,
        )

    def restore(self, snap: tuple) -> None:
        (self.slot, sfc_part, occ, storage, load, spent, by_label,
         self.util_occupied_sum, self.episode_over) = snap
        self._handed = None
        for (k, phase, node, vnf_index, t_c, t_p, wait_run, done, comp,
             tsrc, tstart, tend, tshare) in sfc_part:
            s = self.sfcs[k]
            s.phase = VnfPhase(phase)
            s.node, s.vnf_index, s.t_c, s.t_p, s.wait_run = node, vnf_index, t_c, t_p, wait_run
            s.done, s.completion_slot = done, comp
            s.transfer_src, s.transfer_start, s.transfer_end = tsrc, tstart, tend
            s.transfer_share = tshare
        self.occupancy = dict(occ)
        self.storage_used = dict(storage)
        self.link_load[...] = load
        self.energy.spent = dict(spent)
        self.energy.by_label = dict(by_label)

    def memo_key(self) -> tuple:
        """Search-state identity for the exact solver.

        Keeps everything that shapes future dynamics: progress, resource
        claims, and energy spent (quantized — headroom gates actions).
        Bookkeeping (wait counters, completion slots, per-label energy
        totals) and stale transfer fields of non-transmitting chains are dropped so equivalent
        states merge.
        """
        sfc_part = tuple(
            (k, int(s.phase), s.node, s.vnf_index, s.t_c, s.t_p, s.done)
            + ((s.transfer_src, s.transfer_end, round(s.transfer_share, 6))
               if s.phase is VnfPhase.TRANSMITTING and s.done is None else ())
            for k, s in sorted(self.sfcs.items())
        )
        # claimed cells from the current slot on; a dense copy would grow the
        # memo by every empty cell of every state
        tail = self.link_load[self.slot - 1:].ravel()
        claimed = np.flatnonzero(tail)
        return (
            self.slot,
            self.episode_over,
            sfc_part,
            tuple(sorted(self.occupancy.items())),
            tuple(sorted(self.storage_used.items())),
            claimed.tobytes(),
            tail[claimed].tobytes(),
            tuple(sorted((n, round(v, 6)) for n, v in self.energy.spent.items())),
        )
