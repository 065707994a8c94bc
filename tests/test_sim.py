import itertools
import warnings

import numpy as np
import pytest

from threshq.delay import arrival_delay, solve_delay_table
from threshq.model import EconomicParams, JoinStrategy, ServiceRatePolicy, strategy_from_x
from threshq import sim
from threshq.sim import SimConfig, run_coupling, simulate_sojourn

from _oracles import masked_simulate_sojourn, ring_couple_block
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
        assert abs(est.mean - arrival_delay(table, policy, 2)) <= 3 * est.half_width_95 / 1.96

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

    def test_matches_masked_oracle(self):
        # every combination twice: general or two-rate policy; pure, mixed,
        # 0 < x < 1 or general strategy; n = 0, n = n0 or between; 1, 2 or
        # 3000 replications
        rng = np.random.default_rng(2026)
        cases = itertools.product((False, True), ("pure", "mixed", "below_1", "general"),
                                  ("empty", "balk", "between"), (1, 2, 3000))
        for two_rate, kind, where, reps in list(cases) * 2:
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
            cfg = SimConfig(int(rng.integers(2**63)), reps, params, policy, strategy)
            assert simulate_sojourn(cfg, n) == masked_simulate_sojourn(cfg, n)

    @pytest.mark.parametrize("n0", [1, 2, 3, 4, 7, 8, 15, 16, 63, 64, 200])
    def test_matches_masked_oracle_where_code_width_steps(self, n0):
        # the packed code's shift is n0.bit_length(): check both sides of each
        # step, at the first arrival state, the last joining one and the balk state
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
            cfg = SimConfig(int(rng.integers(2**63)), 40, params, policy,
                            strategy_from_x(n0 - frac))
            assert simulate_sojourn(cfg, n) == masked_simulate_sojourn(cfg, n)

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
        expected = table.w(n, n + 1) - table.w(n - 1, n)
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
        for times, w in ((out.t_a[:, -1], table.w(n - 1, n)), (out.t_b[:, -1], table.w(n, n + 1))):
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
        an initial state n and a handful of replications."""
        n0 = int(rng.integers(2, 31))
        x = float(n0) if rng.random() < 0.5 else n0 - float(rng.uniform(0.01, 0.99))
        params = EconomicParams(float(rng.uniform(0.2, 5.0)), 5.0, 1.0)
        cfg = SimConfig(int(rng.integers(2**63)), int(rng.integers(1, 12)), params,
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
