"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; expected values marked as derived were computed with the independent
oracles in _oracles.py.
"""
import json
import math
import time

import numpy as np
import pytest

from threshq.cli import main as cli_main
from threshq.delay import arrival_delay, solve_delay_table
from threshq.equilibrium import (
    enumerate_pure_equilibria,
    find_mixed_equilibria,
    marginal_delay,
    threshold_policy_below_T,
)
from threshq.model import EconomicParams, JoinStrategy, ServiceRatePolicy, strategy_from_x
from threshq.sim import SimConfig, run_coupling, simulate_sojourn

from _oracles import brute_force_below_threshold, dense_delay_solve, naor_set
from conftest import random_general_strategy, random_params, random_policy, random_threshold_strategy

CASE_POLICY = ServiceRatePolicy.two_rate(23, 2.0, 5.0)


def case_params(R):
    return EconomicParams(3.0, R, 1.0)


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_criterion_1_published_equilibrium_table(tmp_path, capsys):
    instance = tmp_path / "case.json"
    instance.write_text(json.dumps({
        "lambda": 3.0, "reward": 8.5, "wait_cost": 1.0,
        "policy": {"T": 23, "mu_low": 2.0, "mu_high": 5.0},
    }))
    t0 = time.perf_counter()
    code = cli_main(["equilibria", "--instance", str(instance),
                     "--table1", "8,8.15,8.5,9.5,13"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    got = {r[0]: (r[1], r[2], float(r[3]), float(r[4])) for r in rows}
    expected = {
        "8":    ("15;16", "",                    24.0, 40.0),
        "8.15": ("16",    "26;27;28;29;30;31;32", 24.0, 40.75),
        "8.5":  ("16;17", "25;36;37",            24.0, 42.5),
        "9.5":  ("18;19", "45",                  24.0, 47.5),
        "13":   ("",      "64",                  25.6, 65.0),
    }
    assert got == expected
    assert elapsed < 5.0
    report("1 (published equilibrium table)")


def test_criterion_2_closed_form_vs_brute_force():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for i in range(1100):
        T = int(rng.integers(1, 25))
        mu_l = float(rng.uniform(0.4, 3.0))
        mu_h = mu_l * float(rng.uniform(1.05, 4.0))
        pol = ServiceRatePolicy.two_rate(T, mu_l, mu_h)
        if i % 5 == 0:
            # force r_tilde * mu_l to an exact integer to hit the two-equilibria case
            k = int(rng.integers(0, T + 2))
            p = EconomicParams(float(rng.uniform(0.5, 3.0)), k / mu_l, 1.0)
        else:
            p = EconomicParams(float(rng.uniform(0.5, 3.0)),
                               float(rng.uniform(0.0, (T + 3) / mu_l)), 1.0)
        if threshold_policy_below_T(p, pol) != brute_force_below_threshold(p, pol):
            mismatches += 1
    assert mismatches == 0
    report("2 (closed form vs brute force, 1100 draws)")


def test_criterion_3_constant_rate_reduction():
    rng = np.random.default_rng(3)
    mismatches = 0
    for i in range(520):
        mu = float(rng.uniform(0.4, 4.0))
        lam = float(rng.uniform(0.3, 3.0))
        if i % 4 == 0:
            k = int(rng.integers(0, 12))
            p = EconomicParams(lam, k / mu, 1.0)
        else:
            p = EconomicParams(lam, float(rng.uniform(0.0, 12.0)), 1.0)
        policy = ServiceRatePolicy.constant(mu)
        if enumerate_pure_equilibria(p, policy).pure_equilibria != naor_set(p.r_tilde, mu):
            mismatches += 1
        n0 = int(rng.integers(1, 9))
        table = solve_delay_table(policy, strategy_from_x(n0), p)
        for n in range(n0 + 1):
            w = arrival_delay(table, policy, n)
            assert abs(w - (n + 1) / mu) <= 1e-12
    assert mismatches == 0
    report("3 (constant-rate equilibrium set, 520 draws)")


def test_criterion_4_recursion_vs_dense_solve():
    rng = np.random.default_rng(4)
    for i in range(200):
        policy = random_policy(rng)
        strategy = (random_general_strategy(rng, n0_max=8) if i % 2 == 0
                    else random_threshold_strategy(rng, n0_max=8))
        params = random_params(rng)
        table = solve_delay_table(policy, strategy, params)
        ref = dense_delay_solve(policy, strategy, params)
        for (n, m), v in ref.items():
            assert abs(table.w(n, m) - v) <= 1e-10 * abs(v)
    report("4 (backward recursion vs dense solve, 200 instances)")


def test_criterion_5_delay_bounds():
    rng = np.random.default_rng(5)
    violations = 0
    for _ in range(1000):
        policy = random_policy(rng)
        strategy = random_threshold_strategy(rng, n0_max=12)
        table = solve_delay_table(policy, strategy, random_params(rng))
        for n in range(table.n0):
            w = table.w(n, n + 1)
            if not ((n + 1) / policy.max_rate - 1e-12 <= w <= (n + 1) / policy.rate_at(1) + 1e-12):
                violations += 1
    assert violations == 0
    report("5 (delay bounds, 1000 instances)")


def test_criterion_6a_monotone_delay():
    rng = np.random.default_rng(6)
    violations = 0
    for _ in range(1000):
        table = solve_delay_table(random_policy(rng), random_threshold_strategy(rng, n0_max=12),
                                  random_params(rng))
        diag = [table.w(n, n + 1) for n in range(table.n0)]
        violations += sum(1 for a, b in zip(diag, diag[1:]) if b < a - 1e-12)
    assert violations == 0
    report("6a (monotone delay in queue position, 1000 instances)")


def test_criterion_6b_pathwise_ordering():
    rng = np.random.default_rng(66)
    t0 = time.perf_counter()
    total_violations = 0
    for i in range(20):
        n0 = int(rng.integers(2, 6))
        n = int(rng.integers(1, n0))
        lam = float(rng.uniform(0.5, 3.0))
        if i % 3 == 0:
            policy = ServiceRatePolicy.constant(float(rng.uniform(0.5, 3.0)))
        else:
            T = int(rng.integers(1, n0 + 1))
            mu_l = float(rng.uniform(0.5, 2.0))
            policy = ServiceRatePolicy.two_rate(T, mu_l, mu_l * float(rng.uniform(1.2, 3.0)))
        x = float(n0) if i % 2 == 0 else n0 - 1 + float(rng.uniform(0.2, 0.8))
        strategy = strategy_from_x(x)
        if strategy.balk_state != n0:
            strategy = strategy_from_x(float(n0))
        cfg = SimConfig(1000 + i, 10_000, EconomicParams(lam, 5.0, 1.0), policy, strategy)
        total_violations += run_coupling(cfg, n).violation_count
    elapsed = time.perf_counter() - t0
    assert total_violations == 0
    assert elapsed < 120.0
    report(f"6b (pathwise ordering, 20 x 10^4 replications, {elapsed:.1f}s)")


def test_criterion_7_mixed_equilibria():
    p = case_params(8.5)
    pts, intervals = find_mixed_equilibria(p, CASE_POLICY, 24.0, 40.0)
    in_25_26 = [x for x in pts if 25.0 < x < 26.0]
    assert len(in_25_26) == 1
    assert abs(marginal_delay(in_25_26[0], p, CASE_POLICY) - 8.5) <= 1e-9
    # between consecutive pure equilibria above T with strict boundary conditions
    above = [k for k in enumerate_pure_equilibria(p, CASE_POLICY).pure_equilibria if k > 23]
    for a, b in zip(above, above[1:]):
        if b - a != 1:
            continue
        w_low = marginal_delay(float(a), p, CASE_POLICY)
        w_high = marginal_delay(float(b), p, CASE_POLICY)
        if w_low > p.r_tilde - 0.2 and w_high < p.r_tilde:  # 1/mu_h = 0.2
            assert any(a < x < b for x in pts)
    # continuum: r_tilde * mu_l = 17 is an integer at most T
    assert (16.0, 17.0) in find_mixed_equilibria(p, CASE_POLICY, 15.5, 18.0)[1]
    for x in np.linspace(16.05, 16.95, 7):
        assert abs(marginal_delay(float(x), p, CASE_POLICY) - 8.5) <= 1e-12
    report("7 (mixed threshold equilibria)")


def test_criterion_8_sweep_shapes(tmp_path, capsys):
    instance = tmp_path / "case.json"
    instance.write_text(json.dumps({
        "lambda": 3.0, "reward": 8.5, "wait_cost": 1.0,
        "policy": {"T": 23, "mu_low": 2.0, "mu_high": 5.0},
    }))
    out_dir = tmp_path / "sweeps"
    assert cli_main(["sweep", "--instance", str(instance), "--kind", "pure_n0",
                     "--range", "1:40", "--out", str(out_dir)]) == 0
    assert cli_main(["sweep", "--instance", str(instance), "--kind", "mixed_x",
                     "--range", "24.05:39:0.05", "--out", str(out_dir)]) == 0
    capsys.readouterr()

    pure = {}
    for line in (out_dir / "sweep_pure_n0.csv").read_text().strip().split("\n")[1:]:
        n0, w, _ = line.split(",")
        pure[int(n0)] = float(w)
    assert all(pure[k + 1] >= pure[k] - 1e-12 for k in range(1, 23))
    first_drop = min(k for k in range(2, 40) if pure[k + 1] < pure[k] - 1e-9)
    assert 23 <= first_drop <= 25  # drop sets in just past the threshold T=23
    assert all(pure[k + 1] > pure[k] for k in range(36, 40))

    mixed = []
    for line in (out_dir / "sweep_mixed_x.csv").read_text().strip().split("\n")[1:]:
        x, w, _ = line.split(",")
        mixed.append((float(x), float(w)))
    for (x1, w1), (x2, w2) in zip(mixed, mixed[1:]):
        if math.ceil(x1) == math.ceil(x2):
            assert w2 < w1 + 1e-12  # decreasing inside each unit interval
        else:
            assert w2 > w1  # upward jump when crossing an integer
    report("8 (sweep shape checks)")


def test_criterion_9_monte_carlo_agreement():
    rng = np.random.default_rng(9)
    failures = 0
    for i in range(50):
        policy = random_policy(rng, max_prefix=4)
        strategy = random_threshold_strategy(rng, n0_max=6)
        params = random_params(rng)
        n = int(rng.integers(0, strategy.balk_state + 1))
        cfg = SimConfig(9000 + i, 10_000, params, policy, strategy)
        est = simulate_sojourn(cfg, n)
        table = solve_delay_table(policy, strategy, params)
        analytic = arrival_delay(table, policy, n)
        se = est.half_width_95 / 1.959963984540054
        if abs(est.mean - analytic) > 3 * se:
            failures += 1
    assert failures <= 2
    report(f"9 (Monte Carlo agreement, {failures} flagged of 50)")
