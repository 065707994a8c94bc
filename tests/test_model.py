import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from threshq.model import (
    MAX_TABLE_CELLS,
    MIN_RATE,
    EconomicParams,
    InstanceError,
    JoinStrategy,
    ServiceRatePolicy,
    parse_instance,
    strategy_from_x,
)

from _oracles import UnsnappedThreshold


def prob(strategy, n):
    """Join probability at state n, zero beyond the balk state."""
    return strategy.probs[n] if n < len(strategy.probs) else 0.0


class TestServiceRatePolicy:
    def test_two_rate_lookup(self):
        pol = ServiceRatePolicy.two_rate(23, 2.0, 5.0)
        assert pol.rates(24)[[0, 22, 23]].tolist() == [2.0, 2.0, 5.0]
        assert pol.max_rate == 5.0
        assert pol.prefix.shape == (23,) and not pol.prefix.flags.writeable

    def test_constant_lookup(self):
        pol = ServiceRatePolicy.constant(2.0)
        assert pol.rates(100).tolist() == [2.0] * 100

    def test_rate_nondecreasing_and_reaches_tail(self):
        pol = ServiceRatePolicy((0.5, 1.0, 1.5), 3.0)
        rates = pol.rates(9).tolist()
        assert rates == sorted(rates)
        assert all(r == 3.0 for r in rates[3:])

    @pytest.mark.parametrize("pol, mu", [
        (ServiceRatePolicy((0.5, 1.0, 1.5), 3.0), [0.5, 1.0, 1.5] + [3.0] * 6),
        (ServiceRatePolicy.two_rate(4, 2.0, 5.0), [2.0] * 4 + [5.0] * 5),
        (ServiceRatePolicy.constant(2.0), [2.0] * 9),
        (ServiceRatePolicy(np.array([1.0, 1.0, 2.0]), 2.0), [1.0, 1.0] + [2.0] * 7),
        (ServiceRatePolicy.two_rate(MAX_TABLE_CELLS, 2.0, 5.0), [2.0] * 9),
    ], ids=["prefix", "two_rate", "constant", "array_prefix", "two_rate_T_at_limit"])
    def test_rates_are_prefix_then_tail(self, pol, mu):
        """rates(n) lists mu_1..mu_n, for n below, at and above the prefix length."""
        for n in (0, 1, 2, 3, 4, 5, 9):
            rates = pol.rates(n)
            assert rates.dtype == float and rates.shape == (n,)
            assert rates.tolist() == mu[:n]
        with pytest.raises(ValueError):
            pol.rates(-1)

    def test_prefix_is_a_private_read_only_copy(self):
        given = np.array([1.0, 2.0])
        pol = ServiceRatePolicy(given, 3.0)
        given[0] = 9.0
        assert pol.rates(3).tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            pol.prefix[0] = 0.5

    def test_two_rate_policy_is_not_expanded(self):
        tracemalloc.start()
        try:
            pol = ServiceRatePolicy.two_rate(MAX_TABLE_CELLS, 2.0, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pol.threshold_form == (MAX_TABLE_CELLS, 2.0, 5.0)
        assert peak < 16 * 2**20

    def test_decreasing_prefix_rejected(self):
        with pytest.raises(InstanceError):
            ServiceRatePolicy((2.0, 1.0), 3.0)

    def test_prefix_above_tail_rejected(self):
        with pytest.raises(InstanceError):
            ServiceRatePolicy((4.0,), 3.0)

    def test_nonpositive_rate_rejected(self):
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(InstanceError):
                ServiceRatePolicy((bad,), 1.0)
            with pytest.raises(InstanceError):
                ServiceRatePolicy((), bad)
            with pytest.raises(InstanceError):
                ServiceRatePolicy((0.5, bad), 1.0)

    def test_rate_with_overflowing_reciprocal_rejected(self):
        # every policy holds its rates to the floor model.MIN_RATE = 2^-1000, which
        # lies above the rates whose reciprocals (or their multiples) overflow
        assert ServiceRatePolicy((MIN_RATE,), 1.0).prefix[0] == MIN_RATE
        assert ServiceRatePolicy.constant(MIN_RATE).max_rate == MIN_RATE
        for bad in (math.nextafter(MIN_RATE, 0.0), 2.0**-1020, sys.float_info.min,
                    1.0 / sys.float_info.max, 1e-310, 5e-324):  # 1/(1/max) rounds up to inf
            with pytest.raises(InstanceError, match=f"service rate {bad!r} is too small: "
                                                    "below the floor 2\\^-1000$"):
                ServiceRatePolicy((bad,), 1.0)
            with pytest.raises(InstanceError, match="too small"):
                ServiceRatePolicy((), bad)
            with pytest.raises(InstanceError, match="too small"):
                ServiceRatePolicy.two_rate(2, bad, 1.0)

    def test_threshold_form_must_match_rates(self):
        with pytest.raises(InstanceError):
            ServiceRatePolicy.two_rate(3, 5.0, 2.0)

    @pytest.mark.parametrize("pol, form", [
        (ServiceRatePolicy((0.5,), 1.0), (1, 0.5, 1.0)),
        (ServiceRatePolicy([2.0] * 23, 5.0), (23, 2.0, 5.0)),
        (ServiceRatePolicy((), 2.0), None),
        (ServiceRatePolicy((2.0, 2.0), 2.0), None),
        (ServiceRatePolicy((1.0, 2.0), 3.0), None),
        (ServiceRatePolicy.two_rate(10**7, 2.0, 5.0), (10**7, 2.0, 5.0)),
        (ServiceRatePolicy.two_rate(np.int64(3), 2.0, 5.0), (3, 2.0, 5.0)),
    ], ids=["one_state", "case_study_prefix", "constant", "constant_prefix", "three_rates",
            "two_rate_T_at_limit", "two_rate_numpy_T"])
    def test_threshold_form_is_read_from_the_rates(self, pol, form):
        assert pol.threshold_form == form

    def test_policy_has_only_its_rates(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(ServiceRatePolicy)] == ["prefix", "max_rate"]

    @pytest.mark.parametrize("T", [2.7, 3.0, np.float64(3.0), 0])
    def test_two_rate_non_integer_T_rejected(self, T):
        with pytest.raises(InstanceError, match="service threshold T must be a positive integer"):
            ServiceRatePolicy.two_rate(T, 2.0, 5.0)


class TestEconomicParams:
    def test_r_tilde(self):
        p = EconomicParams(3.0, 8.5, 2.0)
        assert p.r_tilde == 4.25

    def test_validation(self):
        with pytest.raises(InstanceError):
            EconomicParams(0.0, 1.0, 1.0)
        with pytest.raises(InstanceError):
            EconomicParams(1.0, -1.0, 1.0)
        with pytest.raises(InstanceError):
            EconomicParams(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(3))
    def test_non_finite_rejected(self, field, bad):
        args = [1.0, 1.0, 1.0]
        args[field] = bad
        with pytest.raises(InstanceError, match="finite"):
            EconomicParams(*args)


class TestJoinStrategy:
    def test_balk_state_is_first_zero(self):
        s = JoinStrategy((1.0, 0.5, 0.0))
        assert s.balk_state == 2
        assert s.probs == (1.0, 0.5, 0.0)
        assert prob(s, 1) == 0.5 and prob(s, 5) == 0.0

    def test_trailing_redundancy_trimmed(self):
        s = JoinStrategy((1.0, 0.0, 0.7, 0.0))
        assert s.balk_state == 1
        assert s.probs == (1.0, 0.0)

    def test_never_balking_rejected(self):
        with pytest.raises(InstanceError):
            JoinStrategy((1.0, 1.0))

    def test_out_of_range_rejected_not_clamped(self):
        with pytest.raises(InstanceError):
            JoinStrategy((1.1, 0.0))
        with pytest.raises(InstanceError):
            JoinStrategy((-0.1, 0.0))

    @pytest.mark.parametrize("probs", [(1.0 + 1e-13, 0.0), (1.0, -1e-13),
                                       (float("nan"), 0.0), (float("inf"), 0.0)])
    def test_near_endpoints_and_non_finite_rejected_not_snapped(self, probs):
        with pytest.raises(InstanceError, match="outside"):
            JoinStrategy(probs)

    def test_near_endpoints_kept_as_given(self):
        s = JoinStrategy((1.0 - 1e-15, 1e-15, 0.0))
        assert s.probs == (1.0 - 1e-15, 1e-15, 0.0) and s.balk_state == 2


class TestStrategyFromX:
    def test_integer_is_pure(self):
        s = strategy_from_x(3)
        assert s.probs == (1.0, 1.0, 1.0, 0.0)
        assert s.balk_state == 3

    def test_fractional_randomizes_at_floor(self):
        s = strategy_from_x(3.4)
        assert s.balk_state == 4
        assert s.probs[:3] == (1.0, 1.0, 1.0)
        assert s.probs[3] == pytest.approx(0.4)
        assert s.probs[4] == 0.0

    def test_zero_always_balks(self):
        s = strategy_from_x(0.0)
        assert s.probs == (0.0,)
        assert s.balk_state == 0

    def test_negative_rejected(self):
        with pytest.raises(InstanceError):
            strategy_from_x(-0.5)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_non_finite_rejected(self, x):
        with pytest.raises(InstanceError,
                           match=f"^threshold x must be finite and nonnegative, got {x!r}$"):
            strategy_from_x(x)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    def test_monotone_in_x(self, a, b):
        x, y = sorted((a, b))
        px, py = strategy_from_x(x), strategy_from_x(y)
        for n in range(py.balk_state + 1):
            assert prob(px, n) <= prob(py, n) + 1e-12

    @given(st.floats(0.0, 1000.0))
    def test_always_finite_balk_state(self, x):
        assert strategy_from_x(x).balk_state <= x + 1

    def test_probs_equal_unsnapped_oracle(self):
        # at each integer k, one ulp either side and k +- 1e-15, the
        # probabilities are clip(x - m, 0, 1) as computed, so the balk state
        # is ceil(x) and none within 1e-12 of 0 or 1 is rounded
        for k in (1, 2, 10, 25, 37):
            for x in (float(k), np.nextafter(k, 0.0), np.nextafter(k, np.inf),
                      k - 1e-15, k + 1e-15):
                s = strategy_from_x(x)
                assert s.probs == UnsnappedThreshold(x).probs, x
                assert s.balk_state == math.ceil(x), x
        assert strategy_from_x(10 + 2e-15).probs[10] == pytest.approx(2e-15, rel=0.2)


class TestParseInstance:
    def good(self):
        return {"lambda": 3.0, "reward": 8.5, "wait_cost": 1.0,
                "policy": {"T": 23, "mu_low": 2.0, "mu_high": 5.0}}

    def test_two_rate_instance(self):
        params, policy = parse_instance(self.good())
        assert params.r_tilde == 8.5
        assert policy.threshold_form == (23, 2.0, 5.0)

    def test_prefix_instance(self):
        doc = self.good()
        doc["policy"] = {"prefix": [1.0, 2.0], "tail": 2.0}
        _, policy = parse_instance(doc)
        assert policy.rates(3).tolist() == [1.0, 2.0, 2.0]

    def test_unknown_top_key_rejected(self):
        doc = self.good()
        doc["extra"] = 1
        with pytest.raises(InstanceError):
            parse_instance(doc)

    def test_unknown_policy_key_rejected(self):
        doc = self.good()
        doc["policy"]["bonus"] = 1
        with pytest.raises(InstanceError):
            parse_instance(doc)

    def test_missing_key_rejected(self):
        doc = self.good()
        del doc["reward"]
        with pytest.raises(InstanceError):
            parse_instance(doc)

    def test_round_trips_through_json(self):
        params, policy = parse_instance(json.loads(json.dumps(self.good())))
        assert policy.rates(24)[23] == 5.0

    def test_bool_lambda_rejected(self):
        doc = self.good()
        doc["lambda"] = True
        with pytest.raises(InstanceError, match="lambda must be a number, got bool"):
            parse_instance(doc)

    def test_string_reward_rejected(self):
        doc = self.good()
        doc["reward"] = "8.5"
        with pytest.raises(InstanceError, match="reward must be a number, got str"):
            parse_instance(doc)

    def test_string_prefix_rate_rejected(self):
        doc = self.good()
        doc["policy"] = {"prefix": ["1.5"], "tail": 2.0}
        with pytest.raises(InstanceError, match="prefix rate must be a number, got str"):
            parse_instance(doc)

    def test_null_tail_rejected(self):
        doc = self.good()
        doc["policy"] = {"prefix": [], "tail": None}
        with pytest.raises(InstanceError, match="tail must be a number, got NoneType"):
            parse_instance(doc)

    def test_bool_T_rejected(self):
        doc = self.good()
        doc["policy"]["T"] = True
        with pytest.raises(InstanceError, match="T must be an integer"):
            parse_instance(doc)

    @pytest.mark.parametrize("sign, shown", [(1, "inf"), (-1, "-inf")])
    def test_integer_past_any_float_rejected(self, sign, shown):
        doc = self.good()
        doc["lambda"] = sign * 10**400
        with pytest.raises(InstanceError, match=f"lambda must be a finite number, got {shown}"):
            parse_instance(doc)

    def test_prefix_rate_past_any_float_rejected(self):
        doc = self.good()
        doc["policy"] = {"prefix": [10**400], "tail": 2.0}
        with pytest.raises(InstanceError, match="prefix rate must be a finite number, got inf"):
            parse_instance(doc)

    @pytest.mark.parametrize("T, shown", [(10**400, "inf"), (MAX_TABLE_CELLS + 1, "10000001")])
    def test_T_over_the_limit_rejected(self, T, shown):
        # the prefix is an array of T rates, held to the limit of every other array
        doc = self.good()
        doc["policy"]["T"] = T
        with pytest.raises(ValueError, match=f"policy T needs {shown} values, over the limit"):
            parse_instance(doc)

    def test_integers_accepted_as_numbers(self):
        doc = {"lambda": 3, "reward": 17, "wait_cost": 2,
               "policy": {"T": 23, "mu_low": 2, "mu_high": 5}}
        params, policy = parse_instance(doc)
        assert params.r_tilde == 8.5 and policy.threshold_form == (23, 2.0, 5.0)


class TestPackage:
    def test_star_import_and_all(self):
        import ast
        import inspect

        import threshq

        namespace = {}
        exec("from threshq import *", namespace)
        assert set(threshq.__all__) <= set(namespace)
        tree = ast.parse(inspect.getsource(threshq))
        imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                    for alias in node.names]
        assert sorted(threshq.__all__) == sorted(imported)
        for gone in ("net_benefit", "best_response", "is_pure_equilibrium",
                     "pure_marginal_delay", "arrival_delays", "balk_upper_bound",
                     "marginal_delay", "pure_candidate_range", "enumerate_pure_equilibria",
                     "find_mixed_equilibria", "threshold_policy_below_T", "arrival_delay"):
            assert not hasattr(threshq, gone)
