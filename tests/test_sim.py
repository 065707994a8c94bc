import numpy as np
import pytest

from threshq.delay import arrival_delay, solve_delay_table
from threshq.model import EconomicParams, ServiceRatePolicy, strategy_from_x
from threshq import sim
from threshq.sim import SimConfig, run_coupling, simulate_sojourn


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
