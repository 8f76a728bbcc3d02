"""Nine end-to-end acceptance gates.

Each test prints one `criterion N: PASS/FAIL` line (visible regardless of
capture) and then asserts.  Criteria 6, 7 and 9 share one set of desk-scale
training cells built once per module: four agent kinds and three workload
sizes across five seeds on the shipped desk configuration.
"""

from __future__ import annotations

import copy
import math
import sys
import time

import numpy as np
import pytest

from sagin_sfc import cli
from sagin_sfc.channel import (
    BOLTZMANN,
    SPEED_OF_LIGHT,
    db_to_linear,
    dbm_to_watts,
    g2u_snr,
    s2g_snr,
    sat_link_rate,
    shannon_rate_bps,
    u2u_path_loss_db,
)
from sagin_sfc.config import load_config
from sagin_sfc.energy import (
    transfer_energy_j,
    uav_hover_power_w,
    uav_move_power_w,
    uav_slot_energy_j,
)
from sagin_sfc.env import SaginEnv
from sagin_sfc.learn import evaluate_greedy, make_agent, train
from sagin_sfc.net import DenseNet
from sagin_sfc.oracle import solve_exact
from sagin_sfc.scenario import build_instance
from sagin_sfc.topology import orbit_period_s
from sagin_sfc.validator import check_schedule, objective_value

from helpers import mse_loss_and_grads, run_random_episode, tiny_run_config
from mutations import mutation_cases

SEEDS = (1, 2, 3, 4, 5)
WINDOW = 50
AGENTS = ("ddqn", "dqn", "qlearning", "sarsa")


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _progress(text):
    sys.__stderr__.write(f"  [acceptance] {text}\n")
    sys.__stderr__.flush()


# ---------------------------------------------------------------------------
# Shared desk-scale training cells (criteria 6, 7, 9)
# ---------------------------------------------------------------------------

def _train_records(cfg, instance, seed, kind):
    env = SaginEnv(instance, step_cap=cfg.run.step_cap)
    rng = cli._train_rng(seed, kind)
    agent = make_agent(kind, instance.rteg.node_count, cfg.agent, rng)
    return train(env, agent, cfg.run.episodes, cfg.agent, rng)


@pytest.fixture(scope="module")
def desk_cfg():
    return load_config("configs/desk.yaml")


@pytest.fixture(scope="module")
def desk_cells(desk_cfg):
    """records per (agent kind, seed) on the 20-chain desk scenario."""
    cells = {}
    for seed in SEEDS:
        instance = build_instance(desk_cfg, seed)
        for kind in AGENTS:
            t0 = time.perf_counter()
            cells[kind, seed] = _train_records(desk_cfg, instance, seed, kind)
            _progress(f"desk {kind} seed {seed}: {time.perf_counter() - t0:.1f}s")
    return cells


@pytest.fixture(scope="module")
def util_cells(desk_cfg):
    """ddqn records per (workload count, seed) for the scaling check."""
    cells = {}
    for count in (5, 10):
        cfg = copy.deepcopy(desk_cfg)
        cfg.workload.count = count
        for seed in SEEDS:
            instance = build_instance(cfg, seed)
            t0 = time.perf_counter()
            cells[count, seed] = _train_records(cfg, instance, seed, "ddqn")
            _progress(f"count {count} ddqn seed {seed}: {time.perf_counter() - t0:.1f}s")
    return cells


def _tail_mean(records, field, n=WINDOW):
    return float(np.mean([getattr(r, field) for r in records[-n:]]))


def _pooled_windows(per_seed_records, field, width=WINDOW):
    """Across-seed mean and standard error of disjoint window means."""
    episodes = len(per_seed_records[0])
    windows = episodes // width
    means, errors = [], []
    for w in range(windows):
        lo, hi = w * width, (w + 1) * width
        seed_means = [
            np.mean([getattr(r, field) for r in recs[lo:hi]])
            for recs in per_seed_records
        ]
        means.append(float(np.mean(seed_means)))
        errors.append(float(np.std(seed_means, ddof=1) / math.sqrt(len(seed_means))))
    return means, errors


# ---------------------------------------------------------------------------
# Criterion 1: link-budget and energy formulas against independent evaluation
# ---------------------------------------------------------------------------

def test_criterion_1_formula_fidelity(capsys):
    t0 = time.perf_counter()
    checks = []

    snr_db = 10 * math.log10(0.5) + 80.0 - 20 * math.log10(100.0)
    checks.append((g2u_snr(0.5, db_to_linear(80.0), 100.0), 10 ** (snr_db / 10)))

    checks.append((
        u2u_path_loss_db(100.0, 2.4e9),
        20 * math.log10(100.0) + 20 * math.log10(2.4e9) - 147.55,
    ))

    m, r, n, g, rho = 0.5, 0.2, 4, 9.8, 1.225
    thrust = m * g / n
    checks.append((
        uav_hover_power_w(m, r, n),
        n * thrust**1.5 / math.sqrt(2 * rho * math.pi * r**2),
    ))

    lfs_db = 20 * math.log10(SPEED_OF_LIGHT / (4 * math.pi * 1.2e6 * 3.4e9))
    num_db = 10.0 + 42.0 + lfs_db - 2.0
    den_db = 10.0 + 10 * math.log10(BOLTZMANN * 1000.0) + 3.0
    checks.append((
        sat_link_rate(10.0, db_to_linear(42.0), 1.2e6, 3.4e9,
                      db_to_linear(-2.0), db_to_linear(10.0), 1000.0,
                      db_to_linear(3.0)),
        10 ** ((num_db - den_db) / 10),
    ))

    lfs_db = 20 * math.log10(SPEED_OF_LIGHT / (4 * math.pi * 1e6 * 20e9))
    snr_db = (10 * math.log10(20.0) + 42.0 + lfs_db
              - (-114.0 - 30.0 + 10 * math.log10(80e6)))
    snr = s2g_snr(20.0, db_to_linear(42.0), 1e6, 20e9, 1.0,
                  dbm_to_watts(-114.0), 80e6)
    checks.append((snr, 10 ** (snr_db / 10)))
    checks.append((shannon_rate_bps(80e6, snr),
                   80e6 * math.log2(1 + 10 ** (snr_db / 10))))

    hover = uav_hover_power_w(0.5, 0.2, 4)
    move_w = uav_move_power_w(4.0, 12.0, 12.0, hover)
    checks.append((uav_slot_energy_j(4.0, 12.0, 12.0, hover, 20.0, 5.0),
                   move_w * 20.0 / 4.0 + hover * 5.0))

    a = 6.371e6 + 550e3
    checks.append((orbit_period_s(550e3),
                   2 * math.pi * (a**3 / 3.986004418e14) ** 0.5))

    checks.append((transfer_energy_j(10.0, 8e7, 2.5e7), 10.0 * 8e7 / 2.5e7))

    worst = max(abs(got - want) / abs(want) for got, want in checks)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    _report(capsys, 1, ok,
            f"{len(checks)} formulas, max rel err {worst:.2e}, {elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# Criterion 2: analytic gradients against central differences
# ---------------------------------------------------------------------------

def _hidden_activation_pattern(net, x):
    _, cache = net.forward_cached(x)
    return [layer > 0 for layer in cache[1:-1]]


def test_criterion_2_gradient_check(capsys):
    # Central differences are an invalid reference exactly at a ReLU kink:
    # when the +/-h pair straddles a unit's zero crossing the numeric slope
    # blends two linear pieces.  Such coordinates are excluded only after
    # the crossing is proven by an activation-sign flip; every other
    # coordinate must match to 1e-4.  The step balances truncation against
    # subtraction roundoff, which at 1e-6 already drowns the smallest
    # gradients in this net.
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    probed = kinks = 0
    for seed in range(20):
        net = DenseNet([8, 64, 32, 32, 4], np.random.default_rng(seed))
        data = np.random.default_rng(seed + 1000)
        x = data.normal(size=(4, 8))
        y = data.normal(size=(4, 4))
        _, grads = mse_loss_and_grads(net, x, y)
        for p, grad in zip(net.parameters(), grads):
            flat_p, flat_g = p.ravel(), grad.ravel()
            for idx in range(flat_p.size):
                probed += 1
                orig = flat_p[idx]
                flat_p[idx] = orig + h
                plus, _ = mse_loss_and_grads(net, x, y)
                flat_p[idx] = orig - h
                minus, _ = mse_loss_and_grads(net, x, y)
                flat_p[idx] = orig
                numeric = (plus - minus) / (2 * h)
                denom = max(abs(numeric), abs(flat_g[idx]), 1e-8)
                rel = abs(numeric - flat_g[idx]) / denom
                if rel >= 1e-4:
                    flat_p[idx] = orig + h
                    pat_plus = _hidden_activation_pattern(net, x)
                    flat_p[idx] = orig - h
                    pat_minus = _hidden_activation_pattern(net, x)
                    flat_p[idx] = orig
                    if any((a != b).any() for a, b in zip(pat_plus, pat_minus)):
                        kinks += 1
                        continue
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4
    _report(capsys, 2, ok,
            f"20 nets, {probed} parameters, max rel err {worst:.2e}, "
            f"{kinks} proven kink crossings excluded, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: exact-solver dominance on random tiny instances
# ---------------------------------------------------------------------------

def test_criterion_3_oracle_dominance(capsys):
    t0 = time.perf_counter()
    instances = 0
    episodes = 12
    for seed in range(50):
        cfg = tiny_run_config(np.random.default_rng(seed))
        instance = build_instance(cfg, seed)
        optimum, witness = solve_exact(instance)
        assert check_schedule(witness, instance) == [], f"dirty witness, seed {seed}"
        assert objective_value(witness, instance) == optimum
        for kind in AGENTS:
            env = SaginEnv(instance)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 5, AGENTS.index(kind)]))
            agent = make_agent(kind, instance.rteg.node_count, cfg.agent, rng)
            train(env, agent, episodes, cfg.agent, rng)
            _, completed, _ = evaluate_greedy(SaginEnv(instance), agent, rng)
            assert completed <= optimum, (
                f"{kind} beat the optimum on seed {seed}: {completed} > {optimum}"
            )
        for trial in range(2):
            achieved = run_random_episode(
                SaginEnv(instance), np.random.default_rng(seed * 31 + trial))
            assert achieved <= optimum
        instances += 1
    elapsed = time.perf_counter() - t0
    ok = instances >= 50 and elapsed < 120.0
    _report(capsys, 3, ok,
            f"{instances} instances, 4 agents each bounded by the optimum, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: deferral showcase
# ---------------------------------------------------------------------------

def test_criterion_4_deferral_showcase(capsys, showcase_instance,
                                       showcase_deferral_log, showcase_naive_log):
    deferral = objective_value(showcase_deferral_log, showcase_instance)
    naive = objective_value(showcase_naive_log, showcase_instance)
    ok = (deferral, naive) == (3, 2)
    _report(capsys, 4, ok, f"deferral completes {deferral}, naive completes {naive}")


# ---------------------------------------------------------------------------
# Criterion 5: validator mutation matrix
# ---------------------------------------------------------------------------

def test_criterion_5_mutation_matrix(capsys, showcase_instance, showcase_deferral_log):
    cases = list(mutation_cases())  # building scenarios is setup, not detection
    t0 = time.perf_counter()
    clean = check_schedule(showcase_deferral_log, showcase_instance)
    flagged = 0
    for family, log, instance in cases:
        families = {v.family for v in check_schedule(log, instance)}
        if families == {family}:
            flagged += 1
    elapsed = time.perf_counter() - t0
    ok = flagged == 10 and len(cases) == 10 and clean == [] and elapsed < 1.0
    _report(capsys, 5, ok,
            f"{flagged}/10 families flagged exactly, feasible log clean, "
            f"{elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# Criterion 6: learning improves on the desk scenario
# ---------------------------------------------------------------------------

def test_criterion_6_learning_improves(capsys, desk_cells):
    improved = 0
    for seed in SEEDS:
        records = desk_cells["ddqn", seed]
        first = np.mean([r.mean_reward for r in records[:WINDOW]])
        last = np.mean([r.mean_reward for r in records[-WINDOW:]])
        improved += bool(last > first)

    per_seed = [desk_cells["ddqn", seed] for seed in SEEDS]
    means, errors = _pooled_windows(per_seed, "completed_sfcs")
    worst_dip = 0.0
    monotone = True
    for w in range(1, len(means)):
        dip = means[w - 1] - means[w]
        worst_dip = max(worst_dip, dip)
        if dip > errors[w]:
            monotone = False

    ok = improved >= 4 and monotone
    _report(capsys, 6, ok,
            f"reward improved {improved}/5 seeds; completion windows "
            f"{means[0]:.2f}->{means[-1]:.2f}, worst dip {worst_dip:.2f} "
            f"within one SE")


# ---------------------------------------------------------------------------
# Criterion 7: agent ordering on final training performance
# ---------------------------------------------------------------------------

def test_criterion_7_agent_ordering(capsys, desk_cells):
    stats = {}
    for kind in AGENTS:
        tails = [_tail_mean(desk_cells[kind, seed], "completed_sfcs")
                 for seed in SEEDS]
        stats[kind] = (float(np.mean(tails)), float(np.std(tails, ddof=1)))

    def at_least(a, b):
        (ma, sa), (mb, sb) = stats[a], stats[b]
        return ma >= mb - math.sqrt((sa**2 + sb**2) / 2)

    ok = (at_least("ddqn", "dqn") and at_least("dqn", "sarsa")
          and at_least("dqn", "qlearning")
          and stats["ddqn"][0] > stats["sarsa"][0]
          and stats["ddqn"][0] > stats["qlearning"][0])
    detail = ", ".join(f"{k} {stats[k][0]:.2f}±{stats[k][1]:.2f}" for k in AGENTS)
    _report(capsys, 7, ok, detail)


# ---------------------------------------------------------------------------
# Criterion 8: bit-level reproducibility of the experiment runner
# ---------------------------------------------------------------------------

def test_criterion_8_reproducibility(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("SAGIN_SEED", raising=False)
    argv = ("run", "--config", "configs/tiny.yaml", "--agent", "ddqn",
            "--episodes", "40", "--seed", "9", "--out-dir", str(tmp_path))
    assert cli.main(list(argv)) == 0
    names = ["metrics_ddqn_seed9.csv", "summary_ddqn_seed9.json"]
    first = {n: (tmp_path / n).read_bytes() for n in names}
    assert cli.main(list(argv)) == 0
    same = all((tmp_path / n).read_bytes() == first[n] for n in names)
    _report(capsys, 8, same,
            "repeat run produced byte-identical metrics CSV and summary JSON")


# ---------------------------------------------------------------------------
# Criterion 9: utilization grows with offered load
# ---------------------------------------------------------------------------

def test_criterion_9_utilization_scales(capsys, desk_cells, util_cells):
    utils = []
    for count in (5, 10, 20):
        if count == 20:
            recs = [desk_cells["ddqn", seed] for seed in SEEDS]
        else:
            recs = [util_cells[count, seed] for seed in SEEDS]
        utils.append(float(np.mean([_tail_mean(r, "node_utilization")
                                    for r in recs])))
    ok = utils[0] <= utils[1] <= utils[2]
    _report(capsys, 9, ok,
            "final utilization " + " <= ".join(f"{u:.4f}" for u in utils)
            + " over 5, 10, 20 chains")
