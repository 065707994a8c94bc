import json

import numpy as np
import pytest

from threshq.model import EconomicParams, JoinStrategy, ServiceRatePolicy


@pytest.fixture
def case_study_policy():
    """The two-rate policy of the running case study: T=23, rates 2 and 5."""
    return ServiceRatePolicy.two_rate(23, 2.0, 5.0)


@pytest.fixture
def case_study_params():
    return EconomicParams(3.0, 8.5, 1.0)


CASE_STUDY_DOC = {"lambda": 3.0, "reward": 8.5, "wait_cost": 1.0,
                  "policy": {"T": 23, "mu_low": 2.0, "mu_high": 5.0}}


@pytest.fixture
def case_study_instance(tmp_path):
    path = tmp_path / "case_study.json"
    path.write_text(json.dumps(CASE_STUDY_DOC))
    return path


def random_policy(rng: np.random.Generator, max_prefix: int = 6) -> ServiceRatePolicy:
    k = int(rng.integers(0, max_prefix + 1))
    rates = np.sort(rng.uniform(0.3, 5.0, k + 1))
    return ServiceRatePolicy(tuple(rates[:-1]), float(rates[-1]))


def random_threshold_strategy(rng: np.random.Generator, n0_max: int = 10) -> JoinStrategy:
    from threshq.model import strategy_from_x

    n0 = int(rng.integers(1, n0_max + 1))
    if rng.random() < 0.5:
        return strategy_from_x(float(n0))
    return strategy_from_x(n0 - 1 + float(rng.uniform(0.05, 0.95)))


def random_general_strategy(rng: np.random.Generator, n0_max: int = 8) -> JoinStrategy:
    n0 = int(rng.integers(1, n0_max + 1))
    probs = list(rng.uniform(0.05, 1.0, n0)) + [0.0]
    return JoinStrategy(tuple(probs))


def random_params(rng: np.random.Generator) -> EconomicParams:
    return EconomicParams(float(rng.uniform(0.3, 4.0)),
                          float(rng.uniform(0.0, 20.0)),
                          float(rng.uniform(0.5, 3.0)))
