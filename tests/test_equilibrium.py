import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threshq.equilibrium import (
    TOL_EQ,
    enumerate_pure_equilibria,
    find_mixed_equilibria,
    marginal_delay,
    pure_candidate_range,
    sweep_mixed,
    sweep_pure,
    threshold_policy_below_T,
)
from threshq import equilibrium as eq_mod
from threshq.delay import arrival_delay, marginal_delays, solve_delay_table
from threshq.model import EconomicParams, ServiceRatePolicy, strategy_from_x

from _oracles import (
    best_response_equilibria,
    brute_force_below_threshold,
    dense_delay_solve,
    grid_mixed_equilibria,
    naor_set,
    sweep_grid_loop,
)
from conftest import random_policy


def params_R(R, lam=3.0, C=1.0):
    return EconomicParams(lam, R, C)


def gap(n, x, p, pol):
    """r_tilde - W(n): the net benefit per unit waiting cost of joining at
    state n when everyone else follows threshold x."""
    return p.r_tilde - arrival_delay(solve_delay_table(pol, strategy_from_x(x), p), pol, n)


def diagnostic(n0, p, pol):
    """The two-sided test of candidate n0, as enumerate_pure_equilibria reports it."""
    return next(d for d in enumerate_pure_equilibria(p, pol).diagnostics if d.n0 == n0)


class TestNetBenefit:
    def test_balking_yields_zero(self):
        # the balk-state arrival joins with probability 0; below it, constant
        # mu = 1 gives W(n) = n + 1, so reward 2 leaves the state-1 joiner at zero
        pol = ServiceRatePolicy.constant(1.0)
        assert strategy_from_x(3).probs[3] == 0.0
        assert gap(1, 3, params_R(2.0, lam=1.0), pol) == pytest.approx(0.0, abs=1e-12)

    def test_indifference_yields_zero(self):
        # constant mu = 1, W(2) = 3; reward 3 makes the state-2 joiner indifferent
        pol = ServiceRatePolicy.constant(1.0)
        assert gap(2, 3, params_R(3.0, lam=1.0), pol) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        # W(1) = 1.25 under mu = (1, 2), threshold 2
        pol = ServiceRatePolicy((1.0,), 2.0)
        assert gap(1, 2, params_R(2.0, lam=1.0), pol) == pytest.approx(0.75, abs=1e-12)


class TestBestResponse:
    def test_join_balk_indifferent(self):
        pol = ServiceRatePolicy.constant(1.0)
        p = params_R(3.5, lam=1.0)
        assert gap(2, 3, p, pol) > TOL_EQ     # join: W = 3 < 3.5
        assert gap(3, 3, p, pol) < -TOL_EQ    # balk: W = 4 > 3.5
        assert abs(gap(2, 3, params_R(3.0, lam=1.0), pol)) <= TOL_EQ  # indifferent


class TestPureCandidateRange:
    def test_two_rate_bounds(self):
        pol = ServiceRatePolicy.two_rate(23, 2.0, 5.0)
        assert pure_candidate_range(params_R(8.0), pol) == (24.0, 40.0)
        L, U = pure_candidate_range(params_R(13.0), pol)
        assert L == pytest.approx(25.6) and U == 65.0

    def test_general_bounds(self):
        # the scan bounds r_tilde mu_1 - 1 <= n0 <= r_tilde M
        pol = ServiceRatePolicy((1.0,), 2.0)
        p = params_R(3.0, lam=1.0)
        low, high = pure_candidate_range(p, pol)
        assert low == math.ceil(3.0 * 1.0 - 1.0) and high == 6

    def test_zero_reward(self):
        pol = ServiceRatePolicy.constant(2.0)
        low, high = pure_candidate_range(params_R(0.0), pol)
        assert high == 0 and low == 0


class TestIsPureEquilibrium:
    """The two-sided test r_tilde - 1/mu_{n0+1} <= W(n0-1, n0) <= r_tilde,
    read from the enumeration's diagnostics; a candidate outside the scan
    fails one of the delay bounds the scan is built from."""

    def test_case_study_r815(self):
        pol = ServiceRatePolicy.two_rate(23, 2.0, 5.0)
        p = params_R(8.15)
        assert diagnostic(26, p, pol).is_equilibrium
        assert not diagnostic(25, p, pol).is_equilibrium

    def test_naor_condition_constant_rate(self):
        pol = ServiceRatePolicy.constant(2.0)
        p = params_R(3.3, lam=1.0)  # r mu = 6.6, not integer
        assert diagnostic(6, p, pol).is_equilibrium
        assert enumerate_pure_equilibria(p, pol).pure_equilibria == [6]
        # W(n0-1, n0) = n0/2: 2.5 is below r - 1/mu = 2.8, 3.5 above r = 3.3
        assert marginal_delay(5.0, p, pol) < p.r_tilde - 0.5 - TOL_EQ
        assert marginal_delay(7.0, p, pol) > p.r_tilde + TOL_EQ

    def test_always_balk_degenerate(self):
        pol = ServiceRatePolicy.constant(2.0)
        assert diagnostic(0, params_R(0.4, lam=1.0), pol).is_equilibrium
        assert 0 not in enumerate_pure_equilibria(params_R(0.6, lam=1.0), pol).pure_equilibria

    def test_diagnostic_fields(self):
        pol = ServiceRatePolicy.two_rate(23, 2.0, 5.0)
        d = diagnostic(26, params_R(8.15), pol)
        assert d.n0 == 26
        assert d.upper_bound == 8.15
        assert d.lower_bound == pytest.approx(8.15 - 0.2)
        assert d.lower_bound - TOL_EQ <= d.w_marginal <= d.upper_bound + TOL_EQ


class TestThresholdPolicyBelowT:
    POL = ServiceRatePolicy.two_rate(23, 2.0, 5.0)

    def test_integer_case_two_equilibria(self):
        assert threshold_policy_below_T(params_R(8.0), self.POL) == [15, 16]

    def test_fractional_case_unique(self):
        assert threshold_policy_below_T(params_R(8.15), self.POL) == [16]

    def test_above_cutoff_empty(self):
        assert threshold_policy_below_T(params_R(13.0), self.POL) == []

    def test_at_service_threshold(self):
        # r mu_l = 23.2 lands in (T, T + mu_l/mu_h] = (23, 23.4]
        assert threshold_policy_below_T(params_R(11.6), self.POL) == [23]

    def test_boundary_included(self):
        # exactly r mu_l = T + mu_l/mu_h = 23.4
        assert threshold_policy_below_T(params_R(11.7), self.POL) == [23]
        assert threshold_policy_below_T(params_R(11.75), self.POL) == []

    def test_zero_reward(self):
        assert threshold_policy_below_T(params_R(0.0), self.POL) == [0]

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(31337)
        for _ in range(300):
            T = int(rng.integers(1, 20))
            mu_l = float(rng.uniform(0.5, 3.0))
            mu_h = mu_l * float(rng.uniform(1.05, 4.0))
            pol = ServiceRatePolicy.two_rate(T, mu_l, mu_h)
            p = EconomicParams(1.0, float(rng.uniform(0.0, (T + 3) / mu_l)), 1.0)
            closed = threshold_policy_below_T(p, pol)
            assert closed == brute_force_below_threshold(p, pol)
            # the one scan agrees with the closed form below the service threshold
            pure = enumerate_pure_equilibria(p, pol).pure_equilibria
            assert [n0 for n0 in pure if n0 <= T] == closed


class TestEnumeratePure:
    def test_table_rows(self):
        pol = ServiceRatePolicy.two_rate(23, 2.0, 5.0)
        expect = {
            8.0: [15, 16],
            8.15: [16, 26, 27, 28, 29, 30, 31, 32],
            8.5: [16, 17, 25, 36, 37],
            9.5: [18, 19, 45],
            13.0: [64],
        }
        for R, eqs in expect.items():
            assert enumerate_pure_equilibria(params_R(R), pol).pure_equilibria == eqs

    def test_naor_reduction(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            mu = float(rng.uniform(0.5, 4.0))
            p = EconomicParams(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 10.0)), 1.0)
            rep = enumerate_pure_equilibria(p, ServiceRatePolicy.constant(mu))
            assert rep.pure_equilibria == naor_set(p.r_tilde, mu)

    def test_zero_reward_always_balk(self):
        rep = enumerate_pure_equilibria(params_R(0.0), ServiceRatePolicy.constant(2.0))
        assert rep.pure_equilibria == [0]

    def test_fixed_point_property(self):
        # reported equilibria are best responses to themselves on the recurrent class
        pol = ServiceRatePolicy.two_rate(6, 1.0, 2.5)
        p = params_R(4.0, lam=2.0)
        rep = enumerate_pure_equilibria(p, pol)
        assert rep.pure_equilibria
        for n0 in rep.pure_equilibria:
            if n0 == 0:
                continue
            for n in range(n0):
                assert gap(n, n0, p, pol) >= -TOL_EQ   # join or indifferent
            assert gap(n0, n0, p, pol) <= TOL_EQ       # balk or indifferent

    def test_matches_best_response_randomized(self):
        # general and two-rate policies in turn, against the definition
        rng = np.random.default_rng(8080)
        for i in range(400):
            if i % 2 == 0:
                pol = random_policy(rng)
            else:
                mu_l = float(rng.uniform(0.5, 2.5))
                pol = ServiceRatePolicy.two_rate(int(rng.integers(1, 8)), mu_l,
                                                 mu_l * float(rng.uniform(1.1, 4.0)))
            # r_tilde M <= 15 keeps the dense solves small
            p = EconomicParams(float(rng.uniform(0.3, 4.0)),
                               float(rng.uniform(0.0, 15.0 / pol.max_rate)), 1.0)
            assert enumerate_pure_equilibria(p, pol).pure_equilibria == \
                best_response_equilibria(p, pol), (pol, p)

    def test_range_soundness(self):
        rng = np.random.default_rng(555)
        for _ in range(40):
            from conftest import random_params, random_policy

            pol = random_policy(rng)
            p = random_params(rng)
            rep = enumerate_pure_equilibria(p, pol)
            low, high = rep.candidate_range
            for n0 in rep.pure_equilibria:
                if n0 == 0:
                    continue
                assert low - TOL_EQ <= n0 <= high + TOL_EQ

    def test_report_serialization(self):
        pol = ServiceRatePolicy.two_rate(23, 2.0, 5.0)
        rep = enumerate_pure_equilibria(params_R(8.5), pol)
        doc = json.loads(json.dumps(rep.to_json_dict()))
        assert doc["pure"] == [16, 17, 25, 36, 37]
        assert doc["scope"] == "recurrent-class"
        assert [list(d) for d in doc["diagnostics"]] == [list(eq_mod.DIAGNOSTIC_KEYS)] * len(
            rep.diagnostics)


class TestMarginalDelay:
    POL = ServiceRatePolicy.two_rate(23, 2.0, 5.0)

    def test_integer_matches_pure(self):
        p = params_R(8.5)
        for n0 in (10, 24, 30):
            table = solve_delay_table(self.POL, strategy_from_x(n0), p)
            assert marginal_delay(float(n0), p, self.POL) == pytest.approx(
                table.w(n0 - 1, n0), abs=1e-14)

    def test_continuum_value_below_threshold(self):
        # r mu_l = 17 integer: w is exactly r_tilde on (16, 17)
        p = params_R(8.5)
        for x in (16.1, 16.5, 16.9):
            assert marginal_delay(x, p, self.POL) == pytest.approx(8.5, abs=1e-12)

    def test_mixed_value_against_dense_solve(self):
        pol = ServiceRatePolicy((1.0, 2.0), 2.0)
        p = params_R(2.0, lam=1.0)
        x = 1.5
        strat = strategy_from_x(x)
        ref = dense_delay_solve(pol, strat, p)
        assert marginal_delay(x, p, pol) == pytest.approx(ref[(1, 2)], rel=1e-12)

    def test_left_continuity_at_integers(self):
        p = params_R(8.5)
        for k in (25, 30, 36):
            w_at = marginal_delay(float(k), p, self.POL)
            w_left = marginal_delay(k - 1e-9, p, self.POL)
            assert abs(w_at - w_left) <= 1e-8


@st.composite
def mixed_instances(draw):
    """(params, policy, x_min, x_max): a general or two-rate policy and a
    search range up to x = 14 whose ends are drawn as floats, so mostly not
    integers. The reward is w(x) at a drawn x, so a root lies near it, or
    r_tilde mu_low an integer at most T (a continuum interval), or free."""
    lam = draw(st.floats(0.3, 6.0))
    if draw(st.booleans()):
        mu_l = draw(st.floats(0.3, 4.0))
        policy = ServiceRatePolicy.two_rate(draw(st.integers(1, 10)), mu_l,
                                            mu_l + draw(st.floats(0.1, 4.0)))
    else:
        rates = sorted(draw(st.lists(st.floats(0.3, 5.0), min_size=1, max_size=7)))
        policy = ServiceRatePolicy(tuple(rates[:-1]), rates[-1])
    x_min = draw(st.floats(0.05, 8.0))
    x_max = x_min + draw(st.floats(0.05, 6.0))
    kind = draw(st.sampled_from(["root", "continuum", "free"]))
    if kind == "continuum" and policy.threshold_form is not None:
        T, mu_l, _ = policy.threshold_form
        r = draw(st.integers(1, T)) / mu_l
    elif kind == "free":
        r = draw(st.floats(0.05, 15.0))
    else:
        x = draw(st.floats(x_min, x_max))
        r = float(marginal_delays(policy, [x], params_R(1.0, lam=lam))[0])
    return params_R(r, lam=lam), policy, x_min, x_max


class TestFindMixedEquilibria:
    POL = ServiceRatePolicy.two_rate(23, 2.0, 5.0)

    def test_case_study_root_between_25_and_26(self):
        pts, _ = find_mixed_equilibria(params_R(8.5), self.POL, 25.0 + 1e-12, 26.0)
        assert len(pts) == 1
        assert 25.0 < pts[0] < 26.0
        assert abs(marginal_delay(pts[0], params_R(8.5), self.POL) - 8.5) <= 1e-9

    def test_continuum_interval_reported(self):
        pts, ivals = find_mixed_equilibria(params_R(8.5), self.POL, 15.0 + 1e-9, 18.0)
        assert (16.0, 17.0) in ivals

    def test_root_between_consecutive_pure_equilibria(self):
        # 36 and 37 are both pure equilibria for R = 8.5 (strict interior case)
        pts, _ = find_mixed_equilibria(params_R(8.5), self.POL, 36.0 + 1e-12, 37.0)
        assert len(pts) >= 1

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            find_mixed_equilibria(params_R(8.5), self.POL, 5.0, 2.0)

    def test_roots_are_noninteger(self):
        pts, _ = find_mixed_equilibria(params_R(8.5), self.POL, 24.0, 40.0)
        for x in pts:
            assert abs(x - round(x)) > 1e-9

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(mixed_instances())
    def test_matches_grid_search(self, instance):
        params, policy, x_min, x_max = instance
        pts, ivals = find_mixed_equilibria(params, policy, x_min, x_max)
        ref_pts, ref_ivals = grid_mixed_equilibria(params, policy, x_min, x_max)
        assert ivals == ref_ivals
        assert len(pts) == len(ref_pts) and np.allclose(pts, ref_pts, rtol=0.0, atol=1e-8)
        residuals = marginal_delays(policy, pts, params) - params.r_tilde
        assert np.all(np.abs(residuals) <= eq_mod.TOL_ROOT)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mixed_instances())
    def test_w_nonincreasing_on_unit_intervals(self, instance):
        # joiners at state k queue behind the marginal customer and can only
        # speed its service, so w falls as x - k grows; rounding only may rise
        params, policy, x_min, x_max = instance
        for k in range(math.floor(x_min), math.ceil(x_max)):
            xs = k + np.concatenate(([1e-9], np.arange(1, 65) / 64))
            w = marginal_delays(policy, xs, params)
            assert np.all(np.diff(w) <= 1e-12 * np.abs(w[:-1])), k


class TestSweeps:
    POL = ServiceRatePolicy.two_rate(23, 2.0, 5.0)

    def test_pure_sweep_shape(self):
        rows = sweep_pure(params_R(8.5), self.POL, 1, 40)
        w = {n0: v for n0, v, _ in rows}
        assert all(w[n0 + 1] >= w[n0] - 1e-12 for n0 in range(1, 23))
        assert any(w[k + 1] < w[k] - 1e-9 for k in range(24, 28))
        assert all(w[n0 + 1] > w[n0] for n0 in range(36, 40))

    def test_pure_sweep_below_threshold_closed_form(self):
        rows = sweep_pure(params_R(8.5), self.POL, 1, 23)
        for n0, v, _ in rows:
            assert v == pytest.approx(n0 / 2.0, abs=1e-12)

    def test_mixed_sweep_piecewise_decreasing(self):
        rows = sweep_mixed(params_R(8.5), self.POL, 24.05, 39.0, 0.05)
        # w is left-continuous, so x belongs to the unit interval (ceil(x)-1, ceil(x)]
        for (x1, w1, _), (x2, w2, _) in zip(rows, rows[1:]):
            if math.ceil(x1) == math.ceil(x2):
                assert w2 < w1 + 1e-12

    def test_step_larger_than_range(self):
        rows = sweep_mixed(params_R(8.5), self.POL, 30.5, 30.6, 5.0)
        assert len(rows) == 1

    def test_mixed_grid_equals_loop_oracle(self):
        # random ranges, ranges ending near an integer, empty and negative
        # ones, and a step finer than the float spacing at x = 64
        rng = np.random.default_rng(77)
        pol, p = ServiceRatePolicy.constant(2.0), params_R(3.0)
        ranges = [(64.0, 64.0, 1e-15), (1.05, 12.0, 0.05), (5.0, 1.0, 0.1),
                  (-3.0, 2.0, 0.3), (0.0, 1.0, 0.1), (0.3, 0.9, 0.1)]
        for _ in range(200):
            a = float(rng.uniform(-2.0, 30.0))
            b = a + float(rng.choice([rng.uniform(-1.0, 8.0), 0.0, 1e-12, 2e-12]))
            ranges.append((a, b, float(10.0 ** rng.uniform(-2.0, 0.5))))
        for a, b, step in ranges:
            xs = [x for x, _, _ in sweep_mixed(p, pol, a, b, step)]
            assert xs == sweep_grid_loop(a, b, step), (a, b, step)

    def test_mixed_grid_over_cell_budget_rejected(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a solve started")
        monkeypatch.setattr(eq_mod, "marginal_delays", refuse)
        # 3 * 10^12 points: the grid is refused before it is built
        with pytest.raises(ValueError, match="over the limit"):
            sweep_mixed(params_R(8.5), self.POL, 1.0, 3000.0, 1e-9)
        with pytest.raises(ValueError, match="over the limit"):
            sweep_mixed(params_R(8.5), self.POL, 0.0, 1.0, 1e-320)
