"""Layer timings of the two Monte Carlo simulators, printed as one JSON object.

    PYTHONPATH=src python3 bench/simulators.py
    PYTHONPATH=src python3 bench/simulators.py BASE/src src    # two trees, interleaved

Each value is the median over 5 repeats of the mean seconds per call (see
delay_kernel.seconds).
- run_coupling.n0_5: constant rate 2, lambda = 1.5, pure threshold 5, n = 2,
  10^4 replications.
- run_coupling.n0_200_n_2: as n0_5 under the pure threshold 200, so n is
  far below n0.
- run_coupling.case_study_n0_24: the case study (T = 23, rates 2 and 5,
  lambda = 3) under the pure threshold 24, n = 12, 10^4 replications.
- run_coupling.case_study_n0_15_n7: the case study under the pure threshold
  15, n = 7, 3,000 replications: the shape of the monte-carlo workload's
  coupling queries among whose latencies its median falls.
- run_coupling.general_x_10_5_n5: rates 2.9, 3.1, 3.3 then 3.5, lambda =
  2.1, under the mixed threshold 10.5 (balk state 11), n = 5, 8,000
  replications: the shape of the workload's queries at its p75 tail.
- simulate_sojourn.case_study_n0_26: the case study under x = 25.5 (balk
  state 26), n = 12, 10^5 replications.
- simulate_sojourn.case_study_x24_5_n12_1e6: the case study under x = 24.5
  (balk state 25), n = 12, 10^6 replications: the shape and size of the
  case-study simulate query that dominates the monte-carlo benchmark
  workload (one call per repeat).
- simulate_sojourn.general_n0_101: a general policy whose rates rise
  linearly from 1 to 4 over the first 90 states, then stay at 4, with
  lambda = 3, under x = 100.5 (balk state 101), n = 50, 2 * 10^4
  replications.

Given src/ directories, the script imports each tree's threshq in turn into
this one process and times them in interleaved rounds, as bench/writers.py
does, one object per tree.
"""
from __future__ import annotations

import json
import platform
import sys

import numpy as np

from delay_kernel import seconds
from writers import interleaved, load


def simulators(cli) -> dict:
    """name -> a call of one simulator of the tree whose cli is given."""
    model, sim = (sys.modules[f"{cli.__package__}.{name}"] for name in ("model", "sim"))
    case_policy = model.ServiceRatePolicy.two_rate(23, 2.0, 5.0)
    case = model.EconomicParams(3.0, 8.5, 1.0)
    constant = model.EconomicParams(1.5, 5.0, 1.0)

    def config(reps, params, policy, x):
        return sim.SimConfig(1, reps, params, policy, model.strategy_from_x(x))

    small = config(10_000, constant, model.ServiceRatePolicy.constant(2.0), 5.0)
    wide = config(10_000, constant, model.ServiceRatePolicy.constant(2.0), 200.0)
    coupled = config(10_000, case, case_policy, 24.0)
    median = config(3_000, case, case_policy, 15.0)
    tail = config(8_000, model.EconomicParams(2.1, 10.0, 1.0),
                  model.ServiceRatePolicy((2.9, 3.1, 3.3), 3.5), 10.5)
    sojourn = config(100_000, case, case_policy, 25.5)
    dominant = config(1_000_000, case, case_policy, 24.5)
    general = config(20_000, case, model.ServiceRatePolicy(tuple(np.linspace(1.0, 4.0, 90)), 4.0),
                     100.5)
    return {
        "run_coupling.n0_5.s": lambda: sim.run_coupling(small, 2),
        "run_coupling.n0_200_n_2.s": lambda: sim.run_coupling(wide, 2),
        "run_coupling.case_study_n0_24.s": lambda: sim.run_coupling(coupled, 12),
        "run_coupling.case_study_n0_15_n7.s": lambda: sim.run_coupling(median, 7),
        "run_coupling.general_x_10_5_n5.s": lambda: sim.run_coupling(tail, 5),
        "simulate_sojourn.case_study_n0_26.s": lambda: sim.simulate_sojourn(sojourn, 12),
        "simulate_sojourn.case_study_x24_5_n12_1e6.s": lambda: sim.simulate_sojourn(dominant, 12),
        "simulate_sojourn.general_n0_101.s": lambda: sim.simulate_sojourn(general, 50),
    }


def main(trees: list[str]) -> dict:
    head = {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}
    if not trees:
        return {**head, "seconds": {name: seconds(fn)
                                    for name, fn in simulators(load(None)).items()}}
    return {**head, **interleaved(trees, [simulators(load(src)) for src in trees])}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:]), indent=2))
