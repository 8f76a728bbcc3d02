"""Feasibility checker: replays a realized schedule log against an instance.

Ten independent constraint families, each tagged on its violations:

  unique-placement    a chain function placed more than once, or placed for
                      a function the chain does not have
  placement-presence  a processing slot without the matching presence record
  vnf-order           chain functions deployed out of order or overlapping,
                      or data departing before its processing finished
  flow-continuity     broken transfer chains: wrong origin/destination, gaps
                      in node presence, records at nodes the chain never
                      occupies, transfers over absent links, records at
                      nodes the instance lacks
  phase-exclusive     one chain simultaneously in transit, processing, or
                      stored in the same slot
  compute-capacity    per node-slot resident VNF sizes above capacity
  storage-capacity    per node-slot held payloads above storage
  link-capacity       per link-slot claimed shares above the slot capacity,
                      or claimed shares too small to deliver the payload
  energy-budget       replayed energy (fixed burn + transfers + compute)
                      above a node's budget
  deadline            a structurally complete chain arriving past its deadline

The environment emits logs that satisfy all ten by construction; the checker
is the independent referee for those logs, the exact solver's witnesses, and
anything hand-written.
"""

from __future__ import annotations

from dataclasses import dataclass

from .energy import (
    compute_energy_j,
    compute_j_per_bit,
    fixed_energy_j,
    link_powers_w,
    transfer_charges,
)
from .topology import NodeKind
from .workload import vnf_process_slots

_REL_TOL = 1e-9
_ABS_TOL = 1e-6


@dataclass
class Violation:
    family: str
    message: str
    k: int | None = None
    node: int | None = None
    link: tuple | None = None
    slot: int | None = None

    def __str__(self) -> str:
        where = []
        if self.k is not None:
            where.append(f"k={self.k}")
        if self.node is not None:
            where.append(f"node={self.node}")
        if self.link is not None:
            where.append(f"link={self.link[0]}->{self.link[1]}")
        if self.slot is not None:
            where.append(f"t={self.slot}")
        loc = f" [{', '.join(where)}]" if where else ""
        return f"{self.family}: {self.message}{loc}"


@dataclass
class _Chain:
    request: object
    xs: list  # (vnf, node, t) possibly with duplicates
    zs: list  # (t, src, dst, dur, share_bits) multiset, sorted by t
    ys: set  # {(node, t)}
    rhos: list  # (node, t) multiset
    strays: list  # (var, node, t) of x/y/rho records at nodes the instance lacks
    logged_indicator: int | None = None


def _parse(log, instance) -> dict:
    """Records grouped by chain; ValueError on any record of the wrong shape."""
    by_k = {
        r.k: _Chain(request=r, xs=[], zs=[], ys=set(), rhos=[], strays=[])
        for r in instance.requests
    }
    node_count = instance.rteg.node_count
    for rec in log.records:
        try:
            chain = by_k[rec["k"]]
            var = rec["var"]
            if var == "z":
                src, dst = rec["link"]
                chain.zs.append((int(rec["t"]), int(src), int(dst), int(rec["dur"]),
                                 float(rec["share_bits"])))
            elif var == "I":
                chain.logged_indicator = int(rec["value"])
            elif var in ("x", "y", "rho"):
                vnf = int(rec["vnf"]) if var == "x" else None
                node, t = int(rec["node"]), int(rec["t"])
                if not 0 <= node < node_count:
                    chain.strays.append((var, node, t))
                elif var == "x":
                    chain.xs.append((vnf, node, t))
                elif var == "y":
                    chain.ys.add((node, t))
                else:
                    chain.rhos.append((node, t))
            else:
                raise ValueError(var)
        except (AttributeError, KeyError, TypeError, ValueError):
            raise ValueError(f"malformed record: {rec}") from None
    for chain in by_k.values():
        chain.zs.sort()
        chain.xs.sort()
    return by_k


def _spans(chain: _Chain, instance) -> list:
    """(vnf, node, start, end) per placement, using the node's compute rate."""
    spans = []
    tau = instance.rteg.slot_seconds
    for vnf, node, t in chain.xs:
        spec = instance.rteg.nodes[node]
        sigma = chain.request.sigmas_bits[vnf - 1] if 1 <= vnf <= chain.request.length else None
        if sigma is None or spec.compute_rate_bps <= 0:
            spans.append((vnf, node, t, t))
            continue
        dur = vnf_process_slots(sigma, spec.compute_rate_bps, tau)
        spans.append((vnf, node, t, t + dur - 1))
    return spans


def _intervals(chain: _Chain) -> list:
    """(node, first, last) presence windows implied by the transfer chain."""
    unique = sorted(set(chain.zs))
    out = []
    for i, (t, _src, dst, dur, _share) in enumerate(unique):
        arrival = t + dur
        if i + 1 < len(unique):
            out.append((dst, arrival, unique[i + 1][0] - 1))
        else:
            out.append((dst, arrival, None))  # open-ended tail
    return out


def _in_interval(intervals: list, node: int, slot: int) -> bool:
    for n, lo, hi in intervals:
        if n == node and slot >= lo and (hi is None or slot <= hi):
            return True
    return False


def _structurally_complete(chain: _Chain) -> bool:
    """All functions placed and the full payload delivered to the destination.

    A chain that failed mid-wire leaves a truncated final transfer whose
    claimed shares cannot carry the payload; it is not complete.
    """
    placed = {vnf for vnf, _n, _t in chain.xs}
    if placed != set(range(1, chain.request.length + 1)):
        return False
    unique = sorted(set(chain.zs))
    if not unique or unique[-1][2] != chain.request.dest:
        return False
    _t, _src, _dst, dur, share = unique[-1]
    return share * dur >= chain.request.delta_bits * (1 - _REL_TOL)


def check_schedule(log, instance, horizon: int | None = None) -> list:
    """All violations in the realized log; empty list means feasible."""
    T = instance.rteg.slot_count
    horizon = min(horizon or T, T)
    chains = _parse(log, instance)
    rates = instance.rates
    out: list = []

    def flag(family, message, **kw):
        out.append(Violation(family, message, **kw))

    for k, chain in sorted(chains.items()):
        req = chain.request
        unique_z = sorted(set(chain.zs))
        intervals = _intervals(chain)

        for var, node, t in chain.strays:
            flag("flow-continuity", f"{var} record at a node the instance lacks",
                 k=k, node=node, slot=t)

        # transfer chain: origin, continuity, link existence, bounds
        for i, (t, src, dst, dur, share) in enumerate(unique_z):
            if dur < 1 or t < 1 or t + dur - 1 > horizon:
                flag("flow-continuity", "transfer outside the horizon",
                     k=k, link=(src, dst), slot=t)
                continue
            for w in range(t, t + dur):
                if not rates.has(src, dst, w):
                    flag("flow-continuity", "transfer over an absent link",
                         k=k, link=(src, dst), slot=w)
            if i == 0:
                if src != req.origin:
                    flag("flow-continuity", "first transfer does not leave the origin",
                         k=k, link=(src, dst), slot=t)
            else:
                pt, _ps, pdst, pdur, _ = unique_z[i - 1]
                if src != pdst:
                    flag("flow-continuity", "transfer leaves a node the data is not on",
                         k=k, link=(src, dst), slot=t)
                if t < pt + pdur:
                    flag("flow-continuity", "transfer departs before the data arrives",
                         k=k, link=(src, dst), slot=t)

        # presence between consecutive transfers, via y (x-covered slots are
        # the placement-presence family's concern)
        spans = _spans(chain, instance)
        x_slots = {(node, s) for _v, node, lo, hi in spans for s in range(lo, hi + 1)}
        for node, lo, hi in intervals:
            if hi is None or not 0 <= node < instance.rteg.node_count:
                continue  # a transfer to an unknown node is flagged as over an absent link
            if instance.rteg.nodes[node].kind is NodeKind.GROUND:
                continue
            for s in range(lo, hi + 1):
                if (node, s) in chain.ys:
                    continue
                if (node, s) in x_slots:
                    flag("placement-presence", "processing slot without presence",
                         k=k, node=node, slot=s)
                else:
                    flag("flow-continuity", "held data with no presence record",
                         k=k, node=node, slot=s)

        # placements: uniqueness, ordering, locality, presence
        seen: dict = {}
        for vnf, node, t in chain.xs:
            seen.setdefault(vnf, []).append((node, t))
        for vnf, places in sorted(seen.items()):
            if not 1 <= vnf <= req.length:
                flag("unique-placement", "placement for a function the chain lacks",
                     k=k, node=places[0][0], slot=places[0][1])
            if len(places) > 1:  # records are assertions; two of them is two placements
                flag("unique-placement", "one function placed more than once",
                     k=k, node=places[0][0], slot=places[0][1])
        ordered = sorted(spans)
        for vnf, node, lo, hi in ordered:
            if not _in_interval(intervals, node, lo) or not _in_interval(intervals, node, hi):
                flag("flow-continuity", "processing at a node the data is not on",
                     k=k, node=node, slot=lo)
        placed = sorted({vnf for vnf, *_ in spans})
        for a, b in zip(placed, placed[1:]):
            if b != a + 1:
                flag("vnf-order", "a later function deployed while an earlier one is not",
                     k=k)
                break
        if placed and placed[0] != 1:
            flag("vnf-order", "a later function deployed while an earlier one is not",
                 k=k)
        by_vnf = {vnf: (lo, hi) for vnf, _n, lo, hi in sorted(spans)}
        for m in sorted(by_vnf):
            if m + 1 in by_vnf and by_vnf[m + 1][0] <= by_vnf[m][1]:
                flag("vnf-order", "functions processed out of sequence",
                     k=k, slot=by_vnf[m + 1][0])

        # data must not leave a node before its processing there finished
        for vnf, node, lo, hi in spans:
            for t, src, _dst, _dur, _s in unique_z:
                if src == node and lo <= t <= hi:
                    flag("vnf-order", "data departs during processing",
                         k=k, node=node, slot=t)

        # stray presence/storage records
        for node, t in sorted(chain.ys):
            if not _in_interval(intervals, node, t):
                flag("flow-continuity", "presence at a node the data is not on",
                     k=k, node=node, slot=t)
        for node, t in sorted(set(chain.rhos)):
            if not _in_interval(intervals, node, t):
                flag("flow-continuity", "stored record at a node the data is not on",
                     k=k, node=node, slot=t)
            if t >= horizon:
                flag("flow-continuity", "stored record with no following slot",
                     k=k, node=node, slot=t)

        # phase exclusivity per slot
        wire_slots = {s for t, _src, _dst, dur, _sh in unique_z for s in range(t, t + dur)}
        rho_slots = {t for _n, t in chain.rhos}
        proc_slots = {s for _n, s in x_slots}
        for s in sorted(wire_slots & proc_slots):
            flag("phase-exclusive", "in transit and processing at once", k=k, slot=s)
        for s in sorted(wire_slots & rho_slots):
            flag("phase-exclusive", "in transit and stored at once", k=k, slot=s)
        for s in sorted(proc_slots & rho_slots):
            flag("phase-exclusive", "processing and stored at once", k=k, slot=s)

        # payload delivery and deadline for structurally complete chains
        if _structurally_complete(chain):
            for t, src, dst, dur, share in unique_z:
                if share * dur < req.delta_bits * (1 - _REL_TOL):
                    flag("link-capacity", "claimed shares cannot carry the payload",
                         k=k, link=(src, dst), slot=t)
            last = unique_z[-1]
            completion = last[0] + last[3] - 1
            if completion > req.deadline_slots:
                flag("deadline", "completion past the tolerable delay",
                     k=k, slot=completion)

    # global capacity sums (duplicates intentionally counted)
    occupancy: dict = {}
    for k, chain in sorted(chains.items()):
        for vnf, node, lo, hi in _spans(chain, instance):
            sigma = (chain.request.sigmas_bits[vnf - 1]
                     if 1 <= vnf <= chain.request.length else 0.0)
            for s in range(lo, hi + 1):
                occupancy[(node, s)] = occupancy.get((node, s), 0.0) + sigma
    for (node, s), total in sorted(occupancy.items()):
        cap = instance.rteg.nodes[node].compute_capacity_bits
        if total > cap + _ABS_TOL:
            flag("compute-capacity", f"resident sizes {total:.3e} over capacity {cap:.3e}",
                 node=node, slot=s)

    storage: dict = {}
    for k, chain in sorted(chains.items()):
        for node, t in chain.rhos:
            storage[(node, t)] = storage.get((node, t), 0.0) + chain.request.delta_bits
    for (node, t), total in sorted(storage.items()):
        cap = instance.rteg.nodes[node].storage_bits
        if total > cap + _ABS_TOL:
            flag("storage-capacity", f"held payloads {total:.3e} over storage {cap:.3e}",
                 node=node, slot=t)

    loads: dict = {}
    for k, chain in sorted(chains.items()):
        for t, src, dst, dur, share in chain.zs:
            for w in range(t, t + dur):
                loads[(src, dst, w)] = loads.get((src, dst, w), 0.0) + share
    for (src, dst, w), total in sorted(loads.items()):
        if not rates.has(src, dst, w):
            continue  # absence already flagged per chain
        cap = rates.slot_bits(src, dst, w)
        if total > cap * (1 + _REL_TOL) + _ABS_TOL:
            flag("link-capacity", f"claimed {total:.3e} bits over slot capacity {cap:.3e}",
                 link=(src, dst), slot=w)

    for node, spent, budget in _energy_replay(chains, instance, horizon):
        if spent > budget + _ABS_TOL:
            flag("energy-budget", f"replayed energy {spent:.3f} J over budget {budget:.3f} J",
                 node=node)

    return out


def _energy_replay(chains: dict, instance, horizon: int):
    spent = fixed_energy_j(instance, horizon)
    powers = link_powers_w(instance)
    e_c = compute_j_per_bit(instance)
    rteg = instance.rteg
    for k, chain in sorted(chains.items()):
        delta = chain.request.delta_bits
        for t, src, dst, dur, _share in chain.zs:
            kind = rteg.link(src, dst, t)
            if kind is None or not instance.rates.has(src, dst, t):
                continue  # flagged as flow-continuity already
            rate = instance.rates.rate_bps(src, dst, t)
            for node, joules in transfer_charges(powers, kind, src, dst, delta, rate):
                spent[node] = spent.get(node, 0.0) + joules
        for vnf, node, t in chain.xs:
            if not 1 <= vnf <= chain.request.length:
                continue
            spent[node] = spent.get(node, 0.0) + compute_energy_j(
                chain.request.sigmas_bits[vnf - 1], e_c[node])
    for n in rteg.nodes:
        if n.kind is NodeKind.GROUND:
            continue
        yield n.node_id, spent.get(n.node_id, 0.0), n.energy_budget_j


def objective_value(log, instance) -> int:
    """Completed-chain count recomputed from the realized variables."""
    chains = _parse(log, instance)
    total = 0
    for chain in chains.values():
        if not _structurally_complete(chain):
            continue
        last = sorted(set(chain.zs))[-1]
        if last[0] + last[3] - 1 <= chain.request.deadline_slots:
            total += 1
    return total
