import math

import numpy as np
import pytest

from threshq import delay, model
from threshq.delay import marginal_delays, solve_delay_table
from threshq.model import EconomicParams, JoinStrategy, ServiceRatePolicy, strategy_from_x

from _oracles import UnsnappedThreshold, closed_form_below_T, dense_delay_solve, loop_delay_solve
from conftest import (random_general_strategy, random_params, random_policy,
                      random_threshold_strategy, written_csv)


@pytest.fixture
def small_case():
    # lambda=1, mu_1=1, mu_2=2 (tail), pure threshold 2; hand-unrolled:
    # W(0,2) = 1/2; W(0,1) = 1/2 + (1/2)(1/2) = 3/4; W(1,2) = 1/2 + 3/4 = 5/4
    policy = ServiceRatePolicy((1.0,), 2.0)
    params = EconomicParams(1.0, 2.0, 1.0)
    return policy, strategy_from_x(2), params


class TestSolveDelayTable:
    def test_hand_unrolled_values(self, small_case):
        policy, strategy, params = small_case
        t = solve_delay_table(policy, strategy, params)
        assert t.entries[0, 2] == pytest.approx(0.5, abs=1e-15)
        assert t.entries[0, 1] == pytest.approx(0.75, abs=1e-15)
        assert t.entries[1, 2] == pytest.approx(1.25, abs=1e-15)

    def test_threshold_one_is_single_service(self):
        policy = ServiceRatePolicy((1.5, 2.0), 4.0)
        params = EconomicParams(2.0, 1.0, 1.0)
        t = solve_delay_table(policy, strategy_from_x(1), params)
        assert t.entries[0, 1] == pytest.approx(1.0 / 1.5, abs=1e-15)

    def test_empty_table_for_always_balk(self):
        t = solve_delay_table(ServiceRatePolicy.constant(1.0), strategy_from_x(0),
                              EconomicParams(1.0, 1.0, 1.0))
        assert t.n0 == 0
        assert t.entries.shape == (1, 1) and np.isnan(t.entries[0, 0])  # no W(n, m) at all
        assert t.arrival_delays.tolist() == [1.0]  # a joiner at 0 is served alone

    def test_constant_rate_reduction(self):
        # with a constant rate the delay is (n+1)/mu regardless of the strategy
        params = EconomicParams(2.5, 5.0, 1.0)
        policy = ServiceRatePolicy.constant(2.0)
        for x in (4, 6.3, 2.5):
            strat = strategy_from_x(x)
            t = solve_delay_table(policy, strat, params)
            for n in range(t.n0):
                assert t.entries[n, n + 1] == pytest.approx((n + 1) / 2.0, abs=1e-12)

    def test_matches_dense_solve(self, small_case):
        policy, strategy, params = small_case
        t = solve_delay_table(policy, strategy, params)
        ref = dense_delay_solve(policy, strategy, params)
        for (n, m), v in ref.items():
            assert t.entries[n, m] == pytest.approx(v, rel=1e-12)

    def test_matches_dense_solve_randomized(self):
        rng = np.random.default_rng(20240817)
        for _ in range(40):
            policy = random_policy(rng)
            strategy = random_general_strategy(rng)
            params = random_params(rng)
            t = solve_delay_table(policy, strategy, params)
            ref = dense_delay_solve(policy, strategy, params)
            for (n, m), v in ref.items():
                assert abs(t.entries[n, m] - v) <= 1e-10 * abs(v)

    def test_entries_finite_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            t = solve_delay_table(random_policy(rng), random_threshold_strategy(rng),
                                  random_params(rng))
            for n in range(t.n0):
                for m in range(n + 1, t.n0 + 1):
                    assert math.isfinite(t.entries[n, m]) and t.entries[n, m] > 0.0

    def test_extreme_rate_bounds_on_arrival_delays(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            policy = random_policy(rng)
            strategy = random_threshold_strategy(rng)
            params = random_params(rng)
            t = solve_delay_table(policy, strategy, params)
            for n in range(t.n0):
                w = t.entries[n, n + 1]
                assert (n + 1) / policy.max_rate - 1e-12 <= w <= (n + 1) / policy.rates(1)[0] + 1e-12

    def test_monotone_in_n(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            t = solve_delay_table(random_policy(rng), random_threshold_strategy(rng),
                                  random_params(rng))
            diag = [t.entries[n, n + 1] for n in range(t.n0)]
            assert all(b >= a - 1e-12 for a, b in zip(diag, diag[1:]))

    def test_balk_boundary_simplification(self, small_case):
        # at m = n0: W(0, n0) = 1/mu_{n0} and W(n, n0) = 1/mu_{n0} + W(n-1, n0-1)
        rng = np.random.default_rng(5)
        for _ in range(20):
            policy = random_policy(rng)
            strategy = random_threshold_strategy(rng)
            params = random_params(rng)
            t = solve_delay_table(policy, strategy, params)
            n0 = t.n0
            mu = policy.rates(n0)[n0 - 1]
            assert t.entries[0, n0] == pytest.approx(1.0 / mu, abs=1e-12)
            for n in range(1, n0):
                assert t.entries[n, n0] == pytest.approx(1.0 / mu + t.entries[n - 1, n0 - 1],
                                                         abs=1e-12)

    def test_two_rate_specialization_residuals(self):
        # above the service threshold the equations use mu_h, below mu_l;
        # substitute the solved table back and check residuals
        policy = ServiceRatePolicy.two_rate(4, 1.0, 3.0)
        params = EconomicParams(2.0, 6.0, 1.0)
        strategy = strategy_from_x(7.6)
        n0 = strategy.balk_state
        lam = params.arrival_rate
        t = solve_delay_table(policy, strategy, params)
        T = 4
        for n in range(n0):
            for m in range(n + 1, n0 + 1):
                mu = 1.0 if m <= T else 3.0
                pm = strategy.probs[m]
                rhs = 1.0 / (lam * pm + mu)
                if m < n0:
                    rhs += lam * pm / (lam * pm + mu) * t.entries[n, m + 1]
                if n >= 1:
                    rhs += mu / (lam * pm + mu) * t.entries[n - 1, m - 1]
                assert abs(t.entries[n, m] - rhs) <= 1e-12


class TestWavefrontKernel:
    """The wavefront kernel against the entry-by-entry loop, bit for bit."""

    @staticmethod
    def strategies(rng, n0):
        yield strategy_from_x(n0)
        if n0 >= 1:
            yield strategy_from_x(n0 - 1 + float(rng.uniform(0.05, 0.95)))
            yield JoinStrategy(tuple(rng.uniform(0.05, 1.0, n0)) + (0.0,))

    def test_entries_equal_loop_oracle(self):
        rng = np.random.default_rng(31)
        for n0 in range(61):
            policies = (random_policy(rng, max_prefix=70),
                        ServiceRatePolicy.two_rate(int(rng.integers(1, 40)),
                                                   float(rng.uniform(0.5, 2.0)),
                                                   float(rng.uniform(2.5, 6.0))))
            for policy in policies:
                params = random_params(rng)
                for strategy in self.strategies(rng, n0):
                    table = solve_delay_table(policy, strategy, params)
                    ref = loop_delay_solve(policy, strategy, params)
                    assert np.array_equal(table.entries, ref, equal_nan=True), (n0, strategy)

    def test_batched_marginals_equal_single_solves(self):
        rng = np.random.default_rng(32)
        policy, params = random_policy(rng), random_params(rng)
        xs = [0.0]
        for n0 in range(1, 81):
            xs += [float(n0), *(n0 - 1 + rng.uniform(0.05, 0.95, 3)),
                   np.nextafter(n0, 0.0), np.nextafter(n0, np.inf)]
        # k +- 1e-15 is a join probability within 1e-15 of 0 or 1, used as it is
        xs += [k + d for k in range(1, 9) for d in (-1e-15, 1e-15)]
        assert len(xs) - len(set(xs)) < 10 and all(x != round(x) for x in xs[-16:])
        xs = [float(xs[i]) for i in rng.permutation(len(xs))]
        # more cells than one chunk holds, so the batch is split
        assert len(xs) * (81 + 2) > delay._CHUNK_CELLS
        got = marginal_delays(policy, xs, params)
        for x, w in zip(xs, got):
            n0 = math.ceil(x)
            ref = loop_delay_solve(policy, UnsnappedThreshold(x), params)[n0 - 1, n0] if n0 else 0.0
            assert w == ref, x
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                marginal_delays(policy, [1.0, bad], params)

    def test_empty_batch(self):
        out = marginal_delays(ServiceRatePolicy.constant(1.0), [], EconomicParams(1.0, 1.0, 1.0))
        assert out.shape == (0,)

    def test_entries_read_only_and_nan_outside_triangle(self):
        rng = np.random.default_rng(33)
        for n0 in (0, 1, 2, 7, 30):
            strategy = next(iter(self.strategies(rng, n0)))
            policy = random_policy(rng)
            t = solve_delay_table(policy, strategy, random_params(rng))
            assert t.entries.shape == (max(n0, 1), n0 + 1)
            with pytest.raises(ValueError):
                t.entries[0, 0] = 1.0
            n, m = np.indices(t.entries.shape)
            inside = (n < m) & (m <= n0)
            assert np.all(np.isnan(t.entries[~inside]))
            assert np.all(np.isfinite(t.entries[inside]))
            with pytest.raises(ValueError):
                t.arrival_delays[0] = 1.0
            # W(n) = W(n, n + 1) below n0, and at n0 the balk-state term, bit for bit
            at_balk = (1.0 / float(policy.rates(n0 + 1)[n0])
                       + (t.entries[n0 - 1, n0] if n0 else 0.0))
            assert t.arrival_delays.tolist() == [*t.entries.diagonal(1).tolist(), at_balk]

    def test_table_over_cell_budget_rejected(self):
        n0 = math.isqrt(model.MAX_TABLE_CELLS) + 1
        with pytest.raises(ValueError, match="over the limit"):
            solve_delay_table(ServiceRatePolicy.constant(1.0), strategy_from_x(n0),
                              EconomicParams(1.0, 1.0, 1.0))
        # the benchmark's largest tables (n0 near 300) stay far inside the budget
        assert 300 * 301 * 100 < model.MAX_TABLE_CELLS


@pytest.mark.parametrize("cells, shown", [
    (model.MAX_TABLE_CELLS + 1, "10000001"), (float("nan"), "nan"), (float("inf"), "inf"),
    (10**400, "inf"), (3e12, "3000000000000"), (1e15, "1e+15")],
    ids=["just_over", "nan", "inf", "int_past_float", "3e12", "1e15"])
def test_check_cells_over_limit(cells, shown):
    with pytest.raises(ValueError) as exc:
        model.check_cells(cells, "grid")
    assert str(exc.value) == f"grid needs {shown} values, over the limit of 10000000"


def test_check_cells_at_limit_and_table_size():
    model.check_cells(model.MAX_TABLE_CELLS, "grid")
    model.check_table_size(3161, "x")  # 3161 x 3162 cells
    with pytest.raises(ValueError,
                       match=r"^delay table for balk state 3162 needs 10001406 values"):
        model.check_table_size(3161.5, "x")
    with pytest.raises(ValueError, match="^x must be finite, got nan$"):
        model.check_table_size(float("nan"), "x")


class TestArrivalDelay:
    def test_balk_state_branch(self, small_case):
        policy, strategy, params = small_case
        t = solve_delay_table(policy, strategy, params)
        assert t.arrival_delays[2] == pytest.approx(0.5 + 1.25, abs=1e-15)

    def test_interior_states(self, small_case):
        policy, strategy, params = small_case
        t = solve_delay_table(policy, strategy, params)
        assert t.arrival_delays[0] == pytest.approx(0.75)
        assert t.arrival_delays[1] == pytest.approx(1.25)

    def test_threshold_one(self):
        policy = ServiceRatePolicy.constant(4.0)
        t = solve_delay_table(policy, strategy_from_x(1), EconomicParams(1.0, 1.0, 1.0))
        assert t.arrival_delays[0] == pytest.approx(0.25)

    def test_always_balk_joiner(self):
        policy = ServiceRatePolicy((1.5,), 2.0)
        t = solve_delay_table(policy, strategy_from_x(0), EconomicParams(1.0, 1.0, 1.0))
        assert t.arrival_delays[0] == pytest.approx(1.0 / 1.5)

    def test_two_rate_at_service_threshold(self):
        # joining at n0 = T switches the residual service to the high rate:
        # W(T) = 1/mu_h + T/mu_l
        policy = ServiceRatePolicy.two_rate(5, 2.0, 5.0)
        params = EconomicParams(3.0, 8.5, 1.0)
        t = solve_delay_table(policy, strategy_from_x(5), params)
        assert t.arrival_delays[5] == pytest.approx(1.0 / 5.0 + 5 / 2.0, abs=1e-12)

    def test_arrival_delays_vector(self, small_case):
        policy, strategy, params = small_case
        t = solve_delay_table(policy, strategy, params)
        assert [t.arrival_delays[n] for n in range(t.n0 + 1)] == [
            pytest.approx(v) for v in (0.75, 1.25, 1.75)]


class TestClosedFormBelowT:
    """The test oracle's below-threshold closed form, against the solver."""

    def test_values(self):
        policy = ServiceRatePolicy.two_rate(23, 2.0, 5.0)
        assert closed_form_below_T(policy, 15) == 8.0
        assert closed_form_below_T(policy, 0) == 0.5
        assert closed_form_below_T(policy, 16) == 8.5

    def test_requires_two_rate_policy(self):
        with pytest.raises(ValueError):
            closed_form_below_T(ServiceRatePolicy.constant(2.0), 3)

    def test_agrees_with_solver_below_threshold(self):
        policy = ServiceRatePolicy.two_rate(10, 2.0, 5.0)
        params = EconomicParams(3.0, 8.5, 1.0)
        for x in (6, 9.4, 10):
            strat = strategy_from_x(x)
            t = solve_delay_table(policy, strat, params)
            for n in range(t.n0):
                assert t.entries[n, n + 1] == pytest.approx(closed_form_below_T(policy, n),
                                                            abs=1e-12)


class TestCsvExport:
    def test_header_and_precision(self, small_case):
        policy, strategy, params = small_case
        csv = written_csv(solve_delay_table(policy, strategy, params))
        lines = csv.strip().split("\n")
        assert lines[0] == "n,m,W"
        assert len(lines) == 4  # W(0,1), W(0,2), W(1,2)
        n, m, w = lines[1].split(",")
        assert (int(n), int(m)) == (0, 1) and float(w) == 0.75

    def test_empty_table_header_only(self):
        t = solve_delay_table(ServiceRatePolicy.constant(1.0), strategy_from_x(0),
                              EconomicParams(1.0, 1.0, 1.0))
        assert written_csv(t) == "n,m,W\n"
