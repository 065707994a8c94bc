import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from threshq.delay import solve_delay_table
from threshq.model import EconomicParams, JoinStrategy, ServiceRatePolicy, strategy_from_x
from threshq import sim
from threshq.sim import SimConfig, run_coupling, simulate_sojourn

from _oracles import (exact_sojourn_moments, loop_flow_simulate_sojourn, masked_simulate_sojourn,
                      ring_couple_block)
from conftest import random_policy


def config(seed=1, reps=4000, lam=1.0, R=5.0, policy=None, x=3.0):
    policy = policy or ServiceRatePolicy.constant(2.0)
    return SimConfig(seed, reps, EconomicParams(lam, R, 1.0), policy, strategy_from_x(x))


class TestSimulateSojourn:
    def test_erlang_mean_constant_rate(self):
        # at constant rate 2 a joiner behind 4 customers waits Erlang(5, 2): mean 2.5
        cfg = config(seed=11, reps=20000, x=5.0)
        est = simulate_sojourn(cfg, 4)
        assert abs(est.mean - 2.5) <= 3 * est.half_width_95 / 1.96

    def test_matches_analytic_small_case(self):
        policy = ServiceRatePolicy((1.0,), 2.0)
        cfg = SimConfig(23, 20000, EconomicParams(1.0, 2.0, 1.0), policy, strategy_from_x(2))
        est = simulate_sojourn(cfg, 1)
        assert abs(est.mean - 1.25) <= 3 * est.half_width_95 / 1.96

    def test_balk_state_arrival(self):
        # joining at the balk state: all later arrivals balk until a departure
        policy = ServiceRatePolicy((1.0,), 2.0)
        params = EconomicParams(1.0, 2.0, 1.0)
        cfg = SimConfig(5, 20000, params, policy, strategy_from_x(2))
        est = simulate_sojourn(cfg, 2)
        table = solve_delay_table(policy, strategy_from_x(2), params)
        assert abs(est.mean - table.arrival_delays[2]) <= 3 * est.half_width_95 / 1.96

    def test_low_rate_regime_of_two_rate_policy(self):
        policy = ServiceRatePolicy.two_rate(10, 2.0, 5.0)
        cfg = SimConfig(9, 20000, EconomicParams(3.0, 8.5, 1.0), policy, strategy_from_x(6.0))
        est = simulate_sojourn(cfg, 3)
        assert abs(est.mean - 4 / 2.0) <= 3 * est.half_width_95 / 1.96

    def test_deterministic_given_seed(self):
        a = simulate_sojourn(config(seed=77), 2)
        b = simulate_sojourn(config(seed=77), 2)
        assert a == b

    def test_seed_changes_output(self):
        a = simulate_sojourn(config(seed=1), 2)
        b = simulate_sojourn(config(seed=2), 2)
        assert a.mean != b.mean

    def test_state_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            simulate_sojourn(config(x=3.0), 4)

    @staticmethod
    def oracle_grid(rng, replications=(1, 2, 3000)):
        """(config, n) for each combination of general or two-rate policy;
        pure, mixed, 0 < x < 1 or general strategy; n = 0, n = n0 or between;
        and the given numbers of replications, with seeds below 2**63."""
        cases = itertools.product((False, True), ("pure", "mixed", "below_1", "general"),
                                  ("empty", "balk", "between"), replications)
        for two_rate, kind, where, reps in cases:
            n0 = 1 if kind == "below_1" else int(rng.integers(1, 31))
            if kind == "general":
                strategy = JoinStrategy(tuple(rng.uniform(0.05, 1.0, n0)) + (0.0,))
            else:
                frac = 0.0 if kind == "pure" else float(rng.uniform(0.01, 0.99))
                strategy = strategy_from_x(n0 - frac)
            if two_rate:
                low = float(rng.uniform(0.3, 3.0))
                policy = ServiceRatePolicy.two_rate(int(rng.integers(1, n0 + 2)), low,
                                                    low + float(rng.uniform(0.1, 3.0)))
            else:
                policy = random_policy(rng, max_prefix=n0 + 1)
            n = {"empty": 0, "balk": n0, "between": int(rng.integers(0, n0 + 1))}[where]
            params = EconomicParams(float(rng.uniform(0.2, 5.0)), 5.0, 1.0)
            yield SimConfig(int(rng.integers(2**63)), reps, params, policy, strategy), n

    @staticmethod
    def agree_in_law(a, b):
        # two estimates of one mean within their combined half-widths, and a
        # rounding floor where a path has no random branch (both widths 0)
        return abs(a.mean - b.mean) <= a.half_width_95 + b.half_width_95 + 1e-12 * abs(b.mean)

    def test_matches_loop_flow_oracle(self):
        # every combination of the grid, with unequal batches (65, 3000), one
        # replication per batch (1, 2, 63) and equal batches of 1 (64)
        rng = np.random.default_rng(2026)
        for cfg, n in self.oracle_grid(rng, (1, 2, 63, 64, 65, 3000)):
            assert simulate_sojourn(cfg, n) == loop_flow_simulate_sojourn(cfg, n)

    def test_matches_masked_oracle(self):
        # the per-replication estimator in law, every combination of the grid
        rng = np.random.default_rng(2027)
        for cfg, n in self.oracle_grid(rng, (3000,)):
            assert self.agree_in_law(simulate_sojourn(cfg, n), masked_simulate_sojourn(cfg, n))

    @pytest.mark.parametrize("n0", [1, 2, 3, 4, 7, 8, 15, 16, 63, 64, 200])
    def test_matches_masked_oracle_where_code_width_steps(self, n0):
        # balk states on both sides of powers of two, at the first arrival
        # state, the last joining one and the balk state, 65 replications (one
        # batch of 2): the loop flow bit for bit, the per-replication estimator
        # in law
        rng = np.random.default_rng(n0)
        for two_rate, mixed, n in itertools.product((False, True), (False, True),
                                                    sorted({0, n0 - 1, n0})):
            frac = float(rng.uniform(0.01, 0.99)) if mixed else 0.0
            if two_rate:
                low = float(rng.uniform(0.3, 3.0))
                policy = ServiceRatePolicy.two_rate(int(rng.integers(1, n0 + 2)), low,
                                                    low + float(rng.uniform(0.1, 3.0)))
            else:
                policy = random_policy(rng, max_prefix=n0 + 1)
            params = EconomicParams(float(rng.uniform(0.2, 5.0)), 5.0, 1.0)
            cfg = SimConfig(int(rng.integers(2**63)), 65, params, policy,
                            strategy_from_x(n0 - frac))
            est = simulate_sojourn(cfg, n)
            assert est == loop_flow_simulate_sojourn(cfg, n)
            assert self.agree_in_law(est, masked_simulate_sojourn(cfg, n))

    @pytest.mark.parametrize("reps", [40, 1000])
    def test_half_width_covers_the_exact_mean(self, reps):
        # 200 seeds against the exact mean and sd of the summed holding means:
        # one replication per batch at 40, unequal batches at 1000
        cfg = SimConfig(0, reps, EconomicParams(3.0, 8.5, 1.0),
                        ServiceRatePolicy.two_rate(8, 2.0, 5.0), strategy_from_x(10.3))
        first, second = exact_sojourn_moments(cfg, 5)
        sd = math.sqrt(second - first * first)
        ests = [simulate_sojourn(dataclasses.replace(cfg, seed=s), 5) for s in range(200)]
        covered = sum(abs(e.mean - first) <= e.half_width_95 for e in ests) / len(ests)
        assert 0.90 <= covered <= 0.99
        width = sum(e.half_width_95 for e in ests) / len(ests)
        assert abs(width / (1.959963984540054 * sd / math.sqrt(reps)) - 1.0) <= 0.15

    def test_exact_moments_give_the_delay(self):
        cfg = SimConfig(0, 1, EconomicParams(3.0, 8.5, 1.0),
                        ServiceRatePolicy.two_rate(8, 2.0, 5.0), strategy_from_x(10.3))
        table = solve_delay_table(cfg.policy, cfg.strategy, cfg.params)
        first, second = exact_sojourn_moments(cfg, 5)
        assert first == pytest.approx(table.arrival_delays[5], rel=1e-13)
        assert second > first * first

    @pytest.mark.parametrize("k", [-1000, -500, 0, 500, 1000])
    def test_rates_scaled_by_a_power_of_two_scale_the_estimate(self, k):
        # every rate times 2^k: the same jump chain, each holding mean times 2^-k,
        # so mean and half-width scale exactly (at 2^1000 the squared deviations
        # would underflow to 0, at 2^-1000 overflow, if squared unscaled)
        def estimate(k):
            cfg = SimConfig(7, 2000, EconomicParams(math.ldexp(3.0, k), 8.5, 1.0),
                            ServiceRatePolicy.two_rate(23, math.ldexp(2.0, k), math.ldexp(5.0, k)),
                            strategy_from_x(25.5))
            return simulate_sojourn(cfg, 12)

        base, est = estimate(0), estimate(k)
        assert base.half_width_95 > 0.0
        assert (est.mean, est.half_width_95) == (math.ldexp(base.mean, -k),
                                                 math.ldexp(base.half_width_95, -k))

    def test_seeds_past_2_63_differ(self):
        a = simulate_sojourn(config(seed=2**63), 2)
        b = simulate_sojourn(config(seed=2**63 + 1), 2)
        assert a.mean != b.mean

    def test_seed_taken_mod_2_64(self):
        assert simulate_sojourn(config(seed=-1), 2) == simulate_sojourn(config(seed=2**64 - 1), 2)

    @pytest.mark.parametrize("seed", [-5, 2**63, 2**64 + 3])
    def test_any_seed_draws_without_warning(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_sojourn(config(seed=seed, reps=10), 2)
            run_coupling(config(seed=seed, reps=10), 1)


class FixedDraws:
    """A generator stand-in with hand-picked draws: a coupling block's
    requirements and first arrivals as given, then every exponential draw 1
    and every join coin 0.5."""

    def __init__(self, req, first):
        self.draws = [np.array(req, dtype=float), np.array(first, dtype=float)]

    def exponential(self, scale, size):
        return scale * (self.draws.pop(0) if self.draws else np.ones(size))

    def random(self, size):
        return np.full(size, 0.5)


class TestRunCoupling:
    def test_zero_violations_constant_rate(self):
        out = run_coupling(config(seed=3, reps=2000, x=2.0), 1)
        assert out.violation_count == 0
        assert out.max_violation == 0.0

    def test_zero_violations_two_rate(self):
        policy = ServiceRatePolicy.two_rate(3, 1.0, 3.0)
        cfg = SimConfig(13, 2000, EconomicParams(2.0, 5.0, 1.0), policy, strategy_from_x(6.0))
        out = run_coupling(cfg, 3)
        assert out.violation_count == 0

    def test_zero_violations_mixed_strategy(self):
        policy = ServiceRatePolicy.two_rate(3, 1.0, 3.0)
        cfg = SimConfig(17, 2000, EconomicParams(2.0, 5.0, 1.0), policy, strategy_from_x(4.6))
        out = run_coupling(cfg, 2)
        assert out.violation_count == 0

    def test_mean_gap_matches_analytic(self):
        policy = ServiceRatePolicy.two_rate(3, 1.0, 3.0)
        params = EconomicParams(2.0, 5.0, 1.0)
        cfg = SimConfig(29, 8000, params, policy, strategy_from_x(5.0))
        n = 3
        out = run_coupling(cfg, n)
        gaps = out.t_b[:, -1] - out.t_a[:, -1]
        assert np.all(gaps >= 0.0)
        table = solve_delay_table(policy, strategy_from_x(5.0), params)
        expected = table.entries[n, n + 1] - table.entries[n - 1, n]
        se = gaps.std(ddof=1) / np.sqrt(len(gaps))
        assert abs(gaps.mean() - expected) <= 3 * se

    @pytest.mark.parametrize("x, n", [(6.0, 3), (4.6, 2)])
    def test_each_system_has_its_marginal_law(self, x, n):
        # label n leaves A after W(n-1, n) on average, and B after W(n, n+1)
        policy = ServiceRatePolicy.two_rate(3, 1.0, 3.0)
        params = EconomicParams(2.0, 5.0, 1.0)
        strategy = strategy_from_x(x)
        out = run_coupling(SimConfig(31, 8000, params, policy, strategy), n)
        table = solve_delay_table(policy, strategy, params)
        for times, w in ((out.t_a[:, -1], table.entries[n - 1, n]),
                         (out.t_b[:, -1], table.entries[n, n + 1])):
            se = times.std(ddof=1) / np.sqrt(len(times))
            assert abs(times.mean() - w) <= 3 * se

    def test_blocks_deterministic_without_violations(self, monkeypatch):
        # 97 replications per block: 1000 replications run in 11 blocks
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 97 * 6)
        cfg = config(seed=12, reps=1000, x=4.5)
        a = run_coupling(cfg, 2)
        b = run_coupling(cfg, 2)
        assert np.array_equal(a.t_a, b.t_a) and np.array_equal(a.t_b, b.t_b)
        assert a.violation_count == 0

    @staticmethod
    def random_coupling(rng):
        """A general policy, a pure or mixed threshold with balk state 2..30,
        an initial state n and 1..39 replications, so that most draws carry a
        retired row through a step and compact a block with live rows left."""
        n0 = int(rng.integers(2, 31))
        x = float(n0) if rng.random() < 0.5 else n0 - float(rng.uniform(0.01, 0.99))
        params = EconomicParams(float(rng.uniform(0.2, 5.0)), 5.0, 1.0)
        cfg = SimConfig(int(rng.integers(2**63)), int(rng.integers(1, 40)), params,
                        random_policy(rng, max_prefix=n0 + 1), strategy_from_x(x))
        return cfg, int(rng.integers(1, n0))

    @staticmethod
    def assert_matches_ring_buffer(monkeypatch, cfg, n):
        out = run_coupling(cfg, n)
        with monkeypatch.context() as m:
            m.setattr(sim, "_couple_block", ring_couple_block)
            ref = run_coupling(cfg, n)
        assert np.array_equal(out.t_a, ref.t_a) and np.array_equal(out.t_b, ref.t_b)

    def test_matches_ring_buffer_oracle(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            self.assert_matches_ring_buffer(monkeypatch, *self.random_coupling(rng))

    @pytest.mark.parametrize("x, n", [(30.0, 2), (17.4, 9), (5.0, 4)])
    def test_matches_ring_buffer_oracle_in_blocks(self, monkeypatch, x, n):
        # 13 replications per block: 150 replications run in 12 blocks
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 13 * (strategy_from_x(x).balk_state + 1))
        policy = ServiceRatePolicy((0.5, 0.5, 1.0, 2.5), 3.0)
        cfg = SimConfig(5, 150, EconomicParams(2.5, 5.0, 1.0), policy, strategy_from_x(x))
        self.assert_matches_ring_buffer(monkeypatch, cfg, n)

    def test_ties_fire_in_the_oracle_order(self):
        # n = 2 under the pure threshold 3 with rates 1, 1, 2: A starts with 2
        # present (rate 1) and B with 3 (rate 2), and an arrival joins unless 3
        # are present. The draws are dyadic, so these ties are exact. Row 0: A,
        # B and the first arrival at t = 1; row 1: A and B at t = 1; row 2: B,
        # full, and an arrival at t = 1; row 3: A, full since the arrival at
        # 0.25, and the next arrival at t = 1.25. In rows 2 and 3 the order of
        # departure and arrival decides whether the arrival joins. (A before B
        # changes no departure time: the systems share only the arrivals.)
        req = [[2, 1, 1], [2, 1, 1], [2, 3, 1], [8, 2.25, 1]]
        first = [1, 2, 1, 0.25]
        probs, mu = np.array([1.0, 1.0, 1.0, 0.0]), np.array([1.0, 1.0, 2.0])
        deps = []
        for block in (sim._couple_block, ring_couple_block):
            deps.append((np.full((4, 2), np.nan), np.full((4, 3), np.nan)))
            block(FixedDraws(req, first), 1.0, probs, mu, 2, deps[-1])
        (a, b), (ref_a, ref_b) = deps
        assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)
        assert a[:, 0].tolist() == [1.0, 1.0, 2.0, 1.25]
        assert b[:, 0].tolist() == [1.0, 1.0, 1.0, 4.0]

    def test_deterministic_departure_times(self):
        cfg = config(seed=8, reps=1, x=3.0)
        a = run_coupling(cfg, 2)
        b = run_coupling(cfg, 2)
        assert np.array_equal(a.t_a, b.t_a) and np.array_equal(a.t_b, b.t_b)
        # FCFS: labels leave each system in order
        assert np.all(np.diff(a.t_a, axis=1) > 0.0) and np.all(np.diff(a.t_b, axis=1) > 0.0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_coupling(config(x=3.0), 0)
        with pytest.raises(ValueError):
            run_coupling(config(x=3.0), 3)

    def test_replications_validated(self):
        with pytest.raises(ValueError):
            config(reps=0)
