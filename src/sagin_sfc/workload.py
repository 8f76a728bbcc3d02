"""Service function chain requests: generation, CSV round-trip, slot math."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import WorkloadConfig


@dataclass
class SfcRequest:
    """One chain: ordered VNF sizes, payload size, endpoints, deadline."""

    k: int
    sigmas_bits: list  # per-VNF processing sizes, ordered
    delta_bits: float
    origin: int  # ground node id
    dest: int
    deadline_slots: int

    @property
    def length(self) -> int:
        return len(self.sigmas_bits)


def vnf_process_slots(sigma_bits: float, rate_bps: float, tau_s: float) -> int:
    """Whole slots to process a VNF at a node's compute rate."""
    if sigma_bits <= 0 or rate_bps <= 0 or tau_s <= 0:
        raise ValueError("sigma, rate and tau must be positive")
    return max(1, math.ceil(sigma_bits / (rate_bps * tau_s)))


def generate_workload(
    cfg: WorkloadConfig, ground_nodes: list, rng: np.random.Generator
) -> list:
    """Draw `count` requests with uniform sizes, lengths and deadlines."""
    if not ground_nodes:
        raise ValueError("at least one ground node is required")
    requests = []
    for k in range(1, cfg.count + 1):
        length = int(rng.integers(cfg.vnf_min, cfg.vnf_max + 1))
        sigmas = [float(rng.uniform(cfg.sigma_min_bits, cfg.sigma_max_bits)) for _ in range(length)]
        delta = float(rng.uniform(cfg.data_min_bits, cfg.data_max_bits))
        origin = int(ground_nodes[rng.integers(0, len(ground_nodes))])
        dest = int(ground_nodes[rng.integers(0, len(ground_nodes))])
        deadline = int(rng.integers(cfg.deadline_min_slots, cfg.deadline_max_slots + 1))
        requests.append(
            SfcRequest(
                k=k,
                sigmas_bits=sigmas,
                delta_bits=delta,
                origin=origin,
                dest=dest,
                deadline_slots=deadline,
            )
        )
    return requests


_CSV_FIELDS = ["k", "l_k", "delta_bits", "deadline_slots", "origin", "dest"]


def _csv_header(sigma_columns: int) -> list:
    return _CSV_FIELDS + [f"sigma_{i}" for i in range(1, sigma_columns + 1)]


def write_requests_csv(path: str, requests: list) -> None:
    """One row per chain; at least three sigma columns, more for longer chains."""
    columns = max([3] + [r.length for r in requests])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(columns))
        for r in requests:
            writer.writerow(
                [r.k, r.length, repr(r.delta_bits), r.deadline_slots, r.origin, r.dest]
                + [repr(s) for s in r.sigmas_bits] + [""] * (columns - r.length)
            )


def load_requests_csv(path: str) -> list:
    requests = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        names = reader.fieldnames or []
        columns = len(names) - len(_CSV_FIELDS)
        if columns < 1 or names != _csv_header(columns):
            raise ValueError(f"request header must be {','.join(_CSV_FIELDS)},sigma_1..sigma_m")
        for row in reader:
            length = int(row["l_k"])
            if not 1 <= length <= columns:
                raise ValueError(f"chain {row['k']}: l_k {length} outside the sigma columns")
            sigmas = [float(row[f"sigma_{i}"]) for i in range(1, length + 1)]
            requests.append(
                SfcRequest(
                    k=int(row["k"]),
                    sigmas_bits=sigmas,
                    delta_bits=float(row["delta_bits"]),
                    origin=int(row["origin"]),
                    dest=int(row["dest"]),
                    deadline_slots=int(row["deadline_slots"]),
                )
            )
    return requests
