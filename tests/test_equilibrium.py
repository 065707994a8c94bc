import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threshq.equilibrium import (
    TOL_EQ,
    TOL_ROOT_X,
    CandidateDiagnostic,
    find_equilibria,
    pure_candidates,
    pure_equilibria,
    sweep_mixed,
)
from threshq import cli
from threshq import equilibrium as eq_mod
from threshq.delay import marginal_delays, solve_delay_table
from threshq.model import EconomicParams, ServiceRatePolicy, strategy_from_x

from _oracles import (
    best_response_equilibria,
    brute_force_below_threshold,
    contiguous_equilibria,
    contiguous_scan,
    dense_delay_solve,
    exact_marginal_delay,
    grid_mixed_equilibria,
    naor_set,
    sweep_grid_loop,
    threshold_policy_below_T,
)
from conftest import random_policy


def params_R(R, lam=3.0, C=1.0):
    return EconomicParams(lam, R, C)


def gap(n, x, p, pol):
    """r_tilde - W(n): the net benefit per unit waiting cost of joining at
    state n when everyone else follows threshold x."""
    return p.r_tilde - solve_delay_table(pol, strategy_from_x(x), p).arrival_delays[n]


def diagnostic(n0, p, pol):
    """The two-sided test of candidate n0, as find_equilibria reports it."""
    return next(d for d in find_equilibria(p, pol).diagnostics if d.n0 == n0)


def mixed_equilibria(p, pol, x_min, x_max):
    """The mixed points and continuum intervals find_equilibria reports on (x_min, x_max]."""
    rep = find_equilibria(p, pol, (x_min, x_max))
    return rep.mixed_points, rep.mixed_intervals


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
    """The candidates of the level-wise bounds n0/mu_{n0} <= w(n0) <= H(n0),
    H(k) = 1/mu_1 + ... + 1/mu_k: n0 <= r_tilde mu_{n0} and H(n0+1) >= r_tilde,
    and the reported candidate_range, their first and last."""

    def test_two_rate_bounds(self):
        # the scan's ends, as for any policy; the paper's L and U are --table1's
        pol = ServiceRatePolicy.two_rate(23, 2.0, 5.0)
        # r_tilde = 8: H(n0+1) = (n0+1)/2 >= 8 from n0 = 15; n0 <= 8 * 2 = 16 up
        # to T = 23 and n0 <= 8 * 5 = 40 above it, so 17..23 are skipped
        assert find_equilibria(params_R(8.0), pol).candidate_range == (15.0, 40.0)
        assert pure_candidates(params_R(8.0), pol).tolist() == [15, 16, *range(24, 41)]
        # r_tilde = 13: H(n0+1) = 23/2 + (n0+1-23)/5 >= 13 from n0 = 30; n0 <= 13 * 5 = 65
        assert find_equilibria(params_R(13.0), pol).candidate_range == (30.0, 65.0)
        assert pure_candidates(params_R(13.0), pol).tolist() == list(range(30, 66))

    def test_general_bounds(self):
        # rates 1, 2, 2, ...: H(n0+1) = 1 + n0/2 >= 3 from n0 = 4, and
        # n0 <= 3 mu_{n0} = 6; the loose bounds scanned 2..6
        pol = ServiceRatePolicy((1.0,), 2.0)
        p = params_R(3.0, lam=1.0)
        assert find_equilibria(p, pol).candidate_range == (4.0, 6.0)
        assert list(contiguous_scan(p, pol)) == [2, 3, 4, 5, 6]

    def test_zero_reward(self):
        pol = ServiceRatePolicy.constant(2.0)
        low, high = find_equilibria(params_R(0.0), pol).candidate_range
        assert high == 0 and low == 0

    def test_scan_over_the_limit_refused_before_solving(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a solve started")
        monkeypatch.setattr(eq_mod, "marginal_delays", refuse)
        # r_tilde * M = 10^12: the scan's last full table is refused, not allocated
        with pytest.raises(ValueError, match="over the limit"):
            find_equilibria(EconomicParams(1.0, 1e12, 1.0), ServiceRatePolicy.constant(1.0))

    def test_reward_3161_three_candidates(self):
        # rates 0.5, 1, 1, ...: H(n0+1) = n0 + 2 >= 3161 from n0 = 3159, and
        # n0 <= 3161 mu_{n0}; the loose bounds scanned 1580..3161, 1,582 candidates
        rep = find_equilibria(EconomicParams(1.0, 3161.0, 1.0), ServiceRatePolicy((0.5,), 1.0))
        assert rep.pure_equilibria == [3160, 3161]
        assert [d.n0 for d in rep.diagnostics] == [3159, 3160, 3161]

    def test_pure_equilibria_of_many_rewards_one_solve(self, monkeypatch):
        calls = []

        def record(policy, xs, params):
            calls.append(len(xs))
            return marginal_delays(policy, xs, params)
        rng = np.random.default_rng(2323)
        policies = [ServiceRatePolicy.two_rate(23, 2.0, 5.0),
                    *(random_policy(rng) for _ in range(20))]
        for pol in policies:
            rewards = (8.0, 8.15, 8.5, 9.5, 13.0, *rng.uniform(0.0, 20.0, 3))
            instances = [params_R(R) for R in rewards]
            expect = [find_equilibria(p, pol).pure_equilibria for p in instances]
            calls.clear()
            monkeypatch.setattr(eq_mod, "marginal_delays", record)
            assert pure_equilibria(pol, instances) == expect
            monkeypatch.undo()
            assert len(calls) == 1

    def test_pure_equilibria_refuses_mixed_arrival_rates(self):
        # w depends on lambda: at R = 8.5, lambda = 0.5 has [16, 17], lambda = 3 five equilibria
        pol = ServiceRatePolicy.two_rate(23, 2.0, 5.0)
        with pytest.raises(ValueError, match="one arrival rate"):
            pure_equilibria(pol, [params_R(8.5), params_R(8.5, lam=0.5)])
        assert pure_equilibria(pol, [params_R(8.5, lam=0.5)]) == [[16, 17]]

    def test_low_edge_below_the_contiguous_scan(self):
        # r_tilde mu = 11.000000003: the contiguous scan, its 1e-9 on the count,
        # starts at 11, but H(11) = 2.2 is within 1e-9 of r_tilde in time, so
        # 10 is a candidate, w(10) = 2 >= r_tilde - 1/5 - 1e-9 an equilibrium,
        # and w(10+) = w(11) = 2.2 makes (10, 11] a continuum
        p, pol = EconomicParams(1.0, 2.2000000006, 1.0), ServiceRatePolicy.constant(5.0)
        assert contiguous_scan(p, pol).start == 11
        rep = find_equilibria(p, pol)
        assert rep.pure_equilibria == [10, 11] == best_response_equilibria(p, pol)
        assert rep.candidate_range == (10.0, 11.0)
        assert find_equilibria(p, pol, (0.5, 20.0)).mixed_intervals == [(10.0, 11.0)]


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
        assert find_equilibria(p, pol).pure_equilibria == [6]
        # W(n0-1, n0) = n0/2: 2.5 is below r - 1/mu = 2.8, 3.5 above r = 3.3
        assert marginal_delays(pol, [5.0], p)[0] < p.r_tilde - 0.5 - TOL_EQ
        assert marginal_delays(pol, [7.0], p)[0] > p.r_tilde + TOL_EQ

    def test_always_balk_degenerate(self):
        pol = ServiceRatePolicy.constant(2.0)
        assert diagnostic(0, params_R(0.4, lam=1.0), pol).is_equilibrium
        assert 0 not in find_equilibria(params_R(0.6, lam=1.0), pol).pure_equilibria

    def test_diagnostic_fields(self):
        pol = ServiceRatePolicy.two_rate(23, 2.0, 5.0)
        d = diagnostic(26, params_R(8.15), pol)
        assert d.n0 == 26
        assert d.upper_bound == 8.15
        assert d.lower_bound == pytest.approx(8.15 - 0.2)
        assert d.lower_bound - TOL_EQ <= d.W_marginal <= d.upper_bound + TOL_EQ


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
            pure = find_equilibria(p, pol).pure_equilibria
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
            assert find_equilibria(params_R(R), pol).pure_equilibria == eqs

    def test_naor_reduction(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            mu = float(rng.uniform(0.5, 4.0))
            p = EconomicParams(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 10.0)), 1.0)
            rep = find_equilibria(p, ServiceRatePolicy.constant(mu))
            assert rep.pure_equilibria == naor_set(p.r_tilde, mu)

    def test_zero_reward_always_balk(self):
        rep = find_equilibria(params_R(0.0), ServiceRatePolicy.constant(2.0))
        assert rep.pure_equilibria == [0]

    def test_fixed_point_property(self):
        # reported equilibria are best responses to themselves on the recurrent class
        pol = ServiceRatePolicy.two_rate(6, 1.0, 2.5)
        p = params_R(4.0, lam=2.0)
        rep = find_equilibria(p, pol)
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
            assert find_equilibria(p, pol).pure_equilibria == \
                best_response_equilibria(p, pol), (pol, p)

    def test_range_soundness(self):
        rng = np.random.default_rng(555)
        for _ in range(40):
            from conftest import random_params, random_policy

            pol = random_policy(rng)
            p = random_params(rng)
            rep = find_equilibria(p, pol)
            low, high = rep.candidate_range
            for n0 in rep.pure_equilibria:
                if n0 == 0:
                    continue
                assert low - TOL_EQ <= n0 <= high + TOL_EQ

    def test_report_serialization(self):
        pol = ServiceRatePolicy.two_rate(23, 2.0, 5.0)
        rep = find_equilibria(params_R(8.5), pol)
        doc = json.loads(cli._json_report(rep))
        assert doc["pure"] == [16, 17, 25, 36, 37]
        assert doc["scope"] == "recurrent-class"
        assert [list(d) for d in doc["diagnostics"]] == [list(CandidateDiagnostic._fields)] * len(
            rep.diagnostics)


class TestMarginalDelay:
    POL = ServiceRatePolicy.two_rate(23, 2.0, 5.0)

    def test_integer_matches_pure(self):
        p = params_R(8.5)
        for n0 in (10, 24, 30):
            table = solve_delay_table(self.POL, strategy_from_x(n0), p)
            assert marginal_delays(self.POL, [float(n0)], p)[0] == pytest.approx(
                table.entries[n0 - 1, n0], abs=1e-14)

    def test_continuum_value_below_threshold(self):
        # r mu_l = 17 integer: w is exactly r_tilde on (16, 17)
        p = params_R(8.5)
        for x in (16.1, 16.5, 16.9):
            assert marginal_delays(self.POL, [x], p)[0] == pytest.approx(8.5, abs=1e-12)

    def test_mixed_value_against_dense_solve(self):
        pol = ServiceRatePolicy((1.0, 2.0), 2.0)
        p = params_R(2.0, lam=1.0)
        x = 1.5
        strat = strategy_from_x(x)
        ref = dense_delay_solve(pol, strat, p)
        assert marginal_delays(pol, [x], p)[0] == pytest.approx(ref[(1, 2)], rel=1e-12)

    def test_left_continuity_at_integers(self):
        p = params_R(8.5)
        for k in (25, 30, 36):
            w_at = marginal_delays(self.POL, [float(k)], p)[0]
            w_left = marginal_delays(self.POL, [k - 1e-9], p)[0]
            assert abs(w_at - w_left) <= 1e-8


@st.composite
def mixed_instances(draw):
    """(params, policy, x_min, x_max): a general or two-rate policy and a
    search range up to x = 14 whose ends are drawn as floats, so mostly not
    integers. The reward is w(x) at a drawn x, so a root lies near it, or
    r_tilde mu_low an integer at most T (a continuum interval), or free. The
    "whole" kind draws the reward as "root" does and searches all of
    (1e-6, r_tilde M + 2], past every pure candidate."""
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
    kind = draw(st.sampled_from(["root", "continuum", "free", "whole"]))
    if kind == "continuum" and policy.threshold_form is not None:
        T, mu_l, _ = policy.threshold_form
        r = draw(st.integers(1, T)) / mu_l
    elif kind == "free":
        r = draw(st.floats(0.05, 15.0))
    else:
        x = draw(st.floats(x_min, x_max))
        r = float(marginal_delays(policy, [x], params_R(1.0, lam=lam))[0])
    if kind == "whole":
        x_min, x_max = 1e-6, r * policy.max_rate + 2.0
    return params_R(r, lam=lam), policy, x_min, x_max


class TestFindMixedEquilibria:
    POL = ServiceRatePolicy.two_rate(23, 2.0, 5.0)

    def test_case_study_root_between_25_and_26(self):
        pts, _ = mixed_equilibria(params_R(8.5), self.POL, 25.0 + 1e-12, 26.0)
        assert len(pts) == 1
        assert 25.0 < pts[0] < 26.0
        assert abs(marginal_delays(self.POL, [pts[0]], params_R(8.5))[0] - 8.5) <= 1e-9

    def test_continuum_interval_reported(self):
        pts, ivals = mixed_equilibria(params_R(8.5), self.POL, 15.0 + 1e-9, 18.0)
        assert (16.0, 17.0) in ivals

    def test_root_between_consecutive_pure_equilibria(self):
        # 36 and 37 are both pure equilibria for R = 8.5 (strict interior case)
        pts, _ = mixed_equilibria(params_R(8.5), self.POL, 36.0 + 1e-12, 37.0)
        assert len(pts) >= 1

    def test_integer_range_ends_same_as_floats(self):
        # int ends would make int brackets, which the refinement cannot move
        assert mixed_equilibria(params_R(8.5), self.POL, 15, 50) == mixed_equilibria(
            params_R(8.5), self.POL, 15.0, 50.0)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            mixed_equilibria(params_R(8.5), self.POL, 5.0, 2.0)

    def test_root_left_of_a_skipped_level(self):
        # R = 9.5: 23 > r_tilde mu_23 = 19, so 23 is no pure candidate, yet
        # (23, 24] is searched, since H(24) = 11.7 >= 9.5 and 24 <= 9.5 * 5, and
        # it holds the root 23.746...; a search of the intervals with both ends
        # among the candidates would miss it
        p = params_R(9.5)
        assert 23 not in pure_candidates(p, self.POL) and 24 in pure_candidates(p, self.POL)
        assert mixed_equilibria(p, self.POL, 1e-6, 52.5) == ([23.746044517643664], [(18.0, 19.0)])
        assert abs(marginal_delays(self.POL, [23.746044517643664], p)[0] - 9.5) <= 1e-13

    def test_case_study_r815_seven_roots(self):
        pts, ivals = mixed_equilibria(params_R(8.15), self.POL, 1e-6, 45.75)
        assert pts == [25.995224324202738, 26.680000394332804, 27.50014723570776,
                       28.4651927263091, 29.53920891737999, 30.69168041791053,
                       31.915513658056675]
        assert ivals == []
        assert np.all(np.abs(marginal_delays(self.POL, pts, params_R(8.15)) - 8.15) <= 1e-13)

    def test_no_probe_on_an_integer(self):
        # the roots lie just right of 2 and in (3, 4]; a refinement probe
        # clipped onto x = 2 would solve w(2), not w(2+), and fake a sign change
        pol = ServiceRatePolicy((1.0822742817549418, 1.253534553594246, 1.6602950320409042,
                                 3.1281157905954955), 4.5)
        p = params_R(2.273884073518953, lam=0.6999065376461091)
        pts, _ = mixed_equilibria(p, pol, 0.5, 10.5)
        assert len(pts) == 2
        assert np.allclose(pts, [2.0029140608530724, 3.708330296241911], rtol=0.0, atol=1e-10)
        assert np.all(np.abs(marginal_delays(pol, pts, p) - p.r_tilde) <= TOL_EQ)

    def test_stopping_bracket_is_tight(self):
        # w falls steeply just right of 1 (slope about -4.06 at the root 1.15620464942), and the
        # 8-point estimate from the even grid misses it by about 4e-11: a bracket that wide
        # would stop with a residual near 1e-10. Probes within 2 TOL_ROOT_X of the estimate sit
        # 64-fold closer, so a bracket that stops is under TOL_ROOT_X / 32 wide
        pol = ServiceRatePolicy((0.3, 2.00001, 2.2144655549857117, 2.554974269832146,
                                 3.0740917701264125), 4.0)
        p = params_R(1.959963984540054, lam=3.7479425668990136)
        pts, _ = mixed_equilibria(p, pol, 0.8048510429478173, 4.229801154452088)
        assert len(pts) == 2 and abs(pts[0] - 1.15620464942) < 1e-11
        assert np.all(np.abs(marginal_delays(pol, pts, p) - p.r_tilde) <= 4.1 * TOL_ROOT_X / 32)

    @staticmethod
    @functools.cache
    def exact_w(x: float) -> Fraction:
        return exact_marginal_delay(3.0, TestFindMixedEquilibria.POL, x)

    @pytest.mark.parametrize("R", [8.15, 8.5])
    def test_case_study_against_exact_delays(self, R):
        # every verdict and every unit interval of (0.5, 5R] against w in exact
        # arithmetic: candidate n0 is an equilibrium iff w(n0) <= r_tilde <=
        # w(n0) + 1/mu_{n0+1}, and (k, k+1] holds one root iff w(k+) > r_tilde > w(k+1)
        assert self.exact_w(16) == 8 and self.exact_w(17) == Fraction(17, 2)
        p, r = params_R(R), Fraction(R)
        report = find_equilibria(p, self.POL, (0.5, 5 * R))
        mu = [Fraction(v) for v in self.POL.rates(math.ceil(5 * R) + 1).tolist()]
        for d in report.diagnostics:
            w = self.exact_w(d.n0)
            assert d.is_equilibrium == (w <= r <= w + 1 / mu[d.n0])
        flat, roots = [], 0
        for k in range(math.ceil(5 * R)):
            lo, hi = max(float(k), 0.5), min(k + 1.0, 5 * R)
            f0 = self.exact_w(lo) + (1 / mu[k] if lo == k else 0) - r  # w(k+) at lo = k
            f1 = self.exact_w(hi) - r
            inside = [x for x in report.mixed_points if lo < x < hi]
            assert len(inside) == (1 if f0 > 0 > f1 else 0), (lo, hi)
            roots += len(inside)
            if f0 == f1 == 0:
                flat.append((lo, hi))
        assert roots == len(report.mixed_points) > 0
        assert report.mixed_intervals == flat

    def test_roots_are_noninteger(self):
        pts, _ = mixed_equilibria(params_R(8.5), self.POL, 24.0, 40.0)
        for x in pts:
            assert abs(x - round(x)) > 1e-9

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(mixed_instances())
    def test_matches_grid_search(self, instance):
        params, policy, x_min, x_max = instance
        pts, ivals = mixed_equilibria(params, policy, x_min, x_max)
        ref_pts, ref_ivals = grid_mixed_equilibria(params, policy, x_min, x_max)
        assert ivals == ref_ivals
        assert len(pts) == len(ref_pts) and np.allclose(pts, ref_pts, rtol=0.0, atol=1e-8)
        residuals = marginal_delays(policy, pts, params) - params.r_tilde
        assert np.all(np.abs(residuals) <= TOL_EQ)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mixed_instances())
    def test_w_nonincreasing_on_unit_intervals(self, instance):
        # joiners at state k queue behind the marginal customer and can only
        # speed its service, so w falls as x - k grows; rounding only may rise.
        # Its right limit at k adds one service at mu_{k+1} to w(k).
        params, policy, x_min, x_max = instance
        mu = policy.rates(math.ceil(x_max))
        for k in range(math.floor(x_min), math.ceil(x_max)):
            xs = k + np.concatenate(([0.0, 1e-12, 1e-9], np.arange(1, 65) / 64))
            w = marginal_delays(policy, xs, params)
            assert w[1] == pytest.approx(w[0] + 1.0 / mu[k], rel=1e-10, abs=0.0), k
            assert np.all(np.diff(w[1:]) <= 1e-12 * np.abs(w[1:-1])), k


@st.composite
def scan_instances(draw):
    """(params, policy, mixed_range): a general or two-rate policy whose rates
    span up to a factor of 100, so that the level-wise tests cut deep, and
    r_tilde M at most 200. The reward sits on an edge of the tests (r_tilde
    = H(k) or k/mu_k), at w(x) of a drawn x, or anywhere. Or it sits at the
    low edge, r_tilde = (k + delta)/mu_1 with delta in (1e-9, 1e-9 mu_1) and
    mu_1 > 1, k within the levels of rate mu_1: there the contiguous scan's
    1e-9 on the count r_tilde mu_1 - 1 leaves out level k - 1, which TOL_EQ
    on time, r_tilde - H(k), lets pass. The mixed range is absent, drawn
    (around x when there is one), or all of (1e-6, r_tilde M + 5]."""
    lam = draw(st.floats(0.05, 8.0))
    kind = draw(st.sampled_from(["H", "lower", "low_edge", "root", "free"]))
    slowest = 1.01 if kind == "low_edge" else 0.05
    if draw(st.booleans()):
        mu_l = draw(st.floats(slowest, 4.0))
        policy = ServiceRatePolicy.two_rate(draw(st.integers(1, 40)), mu_l,
                                            mu_l * draw(st.floats(1.01, 100.0)))
    else:
        rates = sorted(draw(st.lists(st.floats(slowest, 5.0), min_size=1, max_size=30)))
        policy = ServiceRatePolicy(tuple(rates[:-1]), rates[-1])
    cap = 200.0 / policy.max_rate
    mu = policy.rates(200)
    edges = {"H": np.cumsum(1.0 / mu), "lower": np.arange(1, 201) / mu}
    if kind in edges:
        values = edges[kind][edges[kind] <= cap]  # never empty: 1/mu_1 <= 100/M
        r = float(values[draw(st.integers(0, len(values) - 1))])
    elif kind == "low_edge":
        # k/mu_1 <= cap / 2 for k = 1, as M <= 100 mu_1; k <= 40 keeps the
        # dense best-response solve of an added level k - 1 small
        flat = int(np.argmax(np.append(mu, np.inf) != mu[0]))  # levels of rate mu_1
        k = draw(st.integers(1, min(flat, 40, math.floor(cap * mu[0] / (1.0 + 1e-6)))))
        delta = draw(st.floats(1e-9, 1e-9 * mu[0], exclude_min=True, exclude_max=True))
        r = (k + delta) / float(mu[0])
    elif kind == "root":
        top = int(np.count_nonzero(edges["H"] <= cap))  # w(x) <= H(ceil(x)) <= cap
        x = draw(st.integers(0, top - 1)) + draw(st.floats(0.05, 0.95))
        r = float(marginal_delays(policy, [x], params_R(1.0, lam=lam))[0])
    else:
        r = draw(st.floats(0.0, cap))
    span = draw(st.sampled_from(["none", "drawn", "whole"]))
    if span == "none":
        mixed_range = None
    elif span == "drawn":
        # around the root's x, or anywhere up to past the scan
        x_min = max(x - draw(st.floats(0.0, 3.0)), 0.01) if kind == "root" else \
            draw(st.floats(0.05, r * policy.max_rate + 2.0))
        mixed_range = (x_min, x_min + draw(st.floats(0.05, 40.0)))
    else:
        mixed_range = (1e-6, r * policy.max_rate + 5.0)
    return params_R(r, lam=lam), policy, mixed_range


@st.composite
def level_bound_cases(draw):
    """(params, policy, xs): a general policy with rates from 0.01 to 100 or a
    two-rate one with T up to 200, and thresholds x in (n0 - 1, n0],
    n0 up to 200, a third of them pure."""
    lam = draw(st.floats(0.01, 20.0))
    if draw(st.booleans()):
        mu_l = draw(st.floats(0.01, 10.0))
        policy = ServiceRatePolicy.two_rate(draw(st.integers(1, 200)), mu_l,
                                            mu_l * draw(st.floats(1.01, 10.0)))
    else:
        rates = sorted(draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=40)))
        policy = ServiceRatePolicy(tuple(rates[:-1]), rates[-1])
    n0s = draw(st.lists(st.integers(1, 200), min_size=1, max_size=12))
    below = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True),
                          min_size=len(n0s), max_size=len(n0s)))
    return params_R(1.0, lam=lam), policy, np.array(n0s) - np.array(below)


class TestLevelBounds:
    """n0/mu_{n0} <= w(x) <= H(n0) for x in (n0 - 1, n0], and the scan they cut."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(level_bound_cases())
    def test_level_bounds_hold(self, case):
        # n0 departures, each while at least j (j - 1 still ahead) and at most
        # n0 are present; rounding stays within 4 n0 u relative
        params, policy, xs = case
        w = marginal_delays(policy, xs, params)
        n0 = np.ceil(xs).astype(int)
        mu = policy.rates(200)
        rel = 4.0 * n0 * 2.0**-53
        assert np.all(n0 / mu[n0 - 1] <= w * (1.0 + rel)), (policy, xs)
        assert np.all(w <= np.cumsum(1.0 / mu)[n0 - 1] * (1.0 + rel)), (policy, xs)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scan_instances())
    def test_same_report_as_contiguous_scan(self, instance):
        # the level-wise tests keep every equilibrium, root and interval of the
        # contiguous scan, row for row; they add candidates only below its
        # start, where it applies 1e-9 to a count and they apply it to time,
        # and each equilibrium they add there is one by definition
        params, policy, mixed_range = instance
        rep = find_equilibria(params, policy, mixed_range)
        ref = contiguous_equilibria(params, policy, mixed_range)
        start = contiguous_scan(params, policy).start
        assert [d.n0 for d in ref.diagnostics] == list(contiguous_scan(params, policy))
        rows = {d.n0: d for d in ref.diagnostics}
        assert all(d == rows[d.n0] for d in rep.diagnostics if d.n0 >= start)
        assert all(rows[n0] in rep.diagnostics for n0 in ref.pure_equilibria)
        kept = [d.n0 for d in rep.diagnostics]
        assert kept == pure_candidates(params, policy).tolist()
        assert rep.candidate_range == (kept[0], kept[-1])
        added = [n0 for n0 in kept if n0 < start]
        pure_added = [n0 for n0 in rep.pure_equilibria if n0 < start]
        assert rep.pure_equilibria == pure_added + ref.pure_equilibria
        assert pure_added == best_response_equilibria(params, policy, levels=pure_added)
        assert [x for x in rep.mixed_points if x > start] == ref.mixed_points
        assert all(x in ref.mixed_points or x < start for x in rep.mixed_points)
        assert [iv for iv in rep.mixed_intervals if iv[0] >= start] == ref.mixed_intervals
        assert all(iv[1] <= start for iv in rep.mixed_intervals if iv not in ref.mixed_intervals)
        if not added:
            assert rep.pure_equilibria == ref.pure_equilibria
            assert rep.mixed_points == ref.mixed_points
            assert rep.mixed_intervals == ref.mixed_intervals


class TestSweeps:
    POL = ServiceRatePolicy.two_rate(23, 2.0, 5.0)

    def test_pure_sweep_shape(self):
        # the pure sweep is the one sweep at step 1 from an integer
        rows = sweep_mixed(params_R(8.5), self.POL, 1.0, 40.0, 1.0)
        assert [x for x, _, _ in rows] == list(range(1, 41))
        w = {n0: v for n0, v, _ in rows}
        assert all(w[n0 + 1] >= w[n0] - 1e-12 for n0 in range(1, 23))
        assert any(w[k + 1] < w[k] - 1e-9 for k in range(24, 28))
        assert all(w[n0 + 1] > w[n0] for n0 in range(36, 40))

    def test_pure_sweep_below_threshold_closed_form(self):
        rows = sweep_mixed(params_R(8.5), self.POL, 1.0, 23.0, 1.0)
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
