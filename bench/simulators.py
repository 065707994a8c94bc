"""Layer timings of the two Monte Carlo simulators, printed as one JSON object.

    PYTHONPATH=src python3 bench/simulators.py

Each value is the median over 5 repeats of the mean seconds per call (see
delay_kernel.seconds).
- run_coupling.n0_5: constant rate 2, lambda = 1.5, pure threshold 5, n = 2,
  10^4 replications.
- run_coupling.n0_200_n_2: as n0_5 under the pure threshold 200, so n is
  far below n0.
- run_coupling.case_study_n0_24: the case study (T = 23, rates 2 and 5,
  lambda = 3) under the pure threshold 24, n = 12, 10^4 replications.
- simulate_sojourn.case_study_n0_26: the case study under x = 25.5 (balk
  state 26), n = 12, 10^5 replications.
- simulate_sojourn.general_n0_101: a general policy whose rates rise
  linearly from 1 to 4 over the first 90 states, then stay at 4, with
  lambda = 3, under x = 100.5 (balk state 101, so the packed state code
  is 7 bits wide), n = 50, 2 * 10^4 replications.
"""
from __future__ import annotations

import json
import platform

import numpy as np

from delay_kernel import CASE, seconds
from threshq.model import EconomicParams, ServiceRatePolicy, strategy_from_x
from threshq.sim import SimConfig, run_coupling, simulate_sojourn


def main() -> dict:
    case = EconomicParams(3.0, 8.5, 1.0)
    small = SimConfig(1, 10_000, EconomicParams(1.5, 5.0, 1.0),
                      ServiceRatePolicy.constant(2.0), strategy_from_x(5.0))
    wide = SimConfig(1, 10_000, EconomicParams(1.5, 5.0, 1.0),
                     ServiceRatePolicy.constant(2.0), strategy_from_x(200.0))
    coupled = SimConfig(1, 10_000, case, CASE, strategy_from_x(24.0))
    sojourn = SimConfig(1, 100_000, case, CASE, strategy_from_x(25.5))
    general = SimConfig(1, 20_000, case, ServiceRatePolicy(tuple(np.linspace(1.0, 4.0, 90)), 4.0),
                        strategy_from_x(100.5))
    rows = {
        "run_coupling.n0_5.s": seconds(lambda: run_coupling(small, 2)),
        "run_coupling.n0_200_n_2.s": seconds(lambda: run_coupling(wide, 2)),
        "run_coupling.case_study_n0_24.s": seconds(lambda: run_coupling(coupled, 12)),
        "simulate_sojourn.case_study_n0_26.s": seconds(lambda: simulate_sojourn(sojourn, 12)),
        "simulate_sojourn.general_n0_101.s": seconds(lambda: simulate_sojourn(general, 50)),
    }
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "seconds": rows}


if __name__ == "__main__":
    print(json.dumps(main(), indent=2))
