"""Request generation, processing-slot math, and CSV round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from sagin_sfc.config import WorkloadConfig
from sagin_sfc.workload import (
    SfcRequest,
    generate_workload,
    load_requests_csv,
    vnf_process_slots,
    write_requests_csv,
)


def test_process_slots_ceiling():
    # one slot handles rate * tau bits; anything above spills into the next
    assert vnf_process_slots(5e8, 1e8, 5.0) == 1
    assert vnf_process_slots(5e8 + 1, 1e8, 5.0) == 2
    assert vnf_process_slots(2e9, 2e8, 5.0) == 2
    assert vnf_process_slots(1.0, 1e8, 5.0) == 1  # never rounds down to zero
    with pytest.raises(ValueError):
        vnf_process_slots(0.0, 1e8, 5.0)
    with pytest.raises(ValueError):
        vnf_process_slots(1e8, 0.0, 5.0)


def _cfg(count=40) -> WorkloadConfig:
    return WorkloadConfig(
        count=count, vnf_min=2, vnf_max=3,
        data_min_bits=5e8, data_max_bits=4e9,
        sigma_min_bits=1e8, sigma_max_bits=8e8,
        deadline_min_slots=8, deadline_max_slots=20,
    )


def test_generate_workload_ranges():
    reqs = generate_workload(_cfg(), [0, 1], np.random.default_rng(0))
    assert [r.k for r in reqs] == list(range(1, 41))
    for r in reqs:
        assert 2 <= r.length <= 3
        assert len(r.sigmas_bits) == r.length
        assert all(1e8 <= s <= 8e8 for s in r.sigmas_bits)
        assert 5e8 <= r.delta_bits <= 4e9
        assert r.origin in (0, 1) and r.dest in (0, 1)
        assert 8 <= r.deadline_slots <= 20


def test_generate_workload_deterministic_and_seed_sensitive():
    a = generate_workload(_cfg(), [0, 1], np.random.default_rng(5))
    b = generate_workload(_cfg(), [0, 1], np.random.default_rng(5))
    c = generate_workload(_cfg(), [0, 1], np.random.default_rng(6))
    assert a == b
    assert a != c


def test_generate_workload_needs_ground_nodes():
    with pytest.raises(ValueError):
        generate_workload(_cfg(), [], np.random.default_rng(0))


def test_csv_round_trip_exact(tmp_path):
    reqs = generate_workload(_cfg(count=10), [0, 1], np.random.default_rng(3))
    path = tmp_path / "requests.csv"
    write_requests_csv(str(path), reqs)
    header = path.read_text().splitlines()[0]
    assert header == "k,l_k,delta_bits,deadline_slots,origin,dest,sigma_1,sigma_2,sigma_3"
    back = load_requests_csv(str(path))
    assert back == reqs  # repr() serialisation keeps every float bit-exact
    # chains longer than three VNFs widen the header
    cfg = _cfg(count=10)
    cfg.vnf_max = 4
    long_reqs = generate_workload(cfg, [0, 1], np.random.default_rng(3))
    assert max(r.length for r in long_reqs) == 4
    write_requests_csv(str(path), long_reqs)
    header = path.read_text().splitlines()[0]
    assert header == ("k,l_k,delta_bits,deadline_slots,origin,dest,"
                      "sigma_1,sigma_2,sigma_3,sigma_4")
    assert load_requests_csv(str(path)) == long_reqs


def test_csv_short_chain_leaves_trailing_columns_empty(tmp_path):
    req = SfcRequest(k=1, sigmas_bits=[2e8], delta_bits=1e9,
                     origin=0, dest=1, deadline_slots=9)
    path = tmp_path / "one.csv"
    write_requests_csv(str(path), [req])
    line = path.read_text().splitlines()[1]
    assert line.endswith(",,")
    assert load_requests_csv(str(path)) == [req]


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,delta_bits\n1,1e9\n")
    with pytest.raises(ValueError, match="header"):
        load_requests_csv(str(path))
