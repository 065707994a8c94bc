"""Layer timings of the delay kernel, printed as one JSON object.

    PYTHONPATH=src python3 bench/delay_kernel.py

Each value is the median over 5 repeats of the mean seconds per call. The
equilibrium rows call find_equilibria, so to time a checkout from before it
existed, run that checkout's own copy of this script.
- solve_delay_table: the case-study policy (T = 23, rates 2 and 5,
  lambda = 3) under the pure threshold n0.
- find_equilibria.pure: the pure scan alone, on the general policy with
  rates 1, 2, 3 and tail 4 (mu_1 / M = 0.25), r_tilde M = 60 and 200
  (the loose bounds scan from about r_tilde mu_1 to r_tilde M, 14..60 and
  49..200; the level-wise ones keep 55..60 and 195..200); on the case study
  at reward 8.5, and at reward 60 (r_tilde M = 300).
- find_equilibria.mixed_k: the case study at reward 20 with the mixed range
  one unit interval (k, k+1]: the one solve of the 36 candidates 65..100
  (the loose bounds scanned 62, 39..100), with no root to refine. k = 25
  lies below the scan, and (45, 46] inside it but under H(46) = 16.1 < 20,
  so both rows time the candidates' solve alone.
- find_equilibria.mixed_wide: the case study at reward 8.5 with the mixed
  range (0.5, 300), far past its candidates 16, 17 and 24..42: the search
  solves them and 23, the left end of (23, 24], and refines the roots.
- sweep_mixed, find_equilibria.mixed_24_46: the case study at reward 9.1
  over 24..46, the benchmark's slowest queries: a sweep at step 0.05 and
  the search with its mixed range. Under "counts",
  find_equilibria.mixed_24_46.solves is the number of batched
  marginal_delays calls that one such search makes.
- find_equilibria.pure.slow_first_rate_3161: rates 0.5 then 1, lambda = 1,
  reward 3161, at the cell budget's edge: the loose bounds n0/M <= w(n0) <=
  n0/mu_1 scan 1,582 candidates (1580..3161) up to balk state 3161, the
  level-wise ones 3 (3159..3161).
- cli.table1_case_study: ``equilibria --table1 8,8.15,8.5,9.5,13`` on the
  case study through cli.main, stdout discarded: the five published rewards.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import tempfile
import time

import numpy as np

from threshq import equilibrium
from threshq.cli import main as cli_main
from threshq.equilibrium import find_equilibria, sweep_mixed
from threshq.delay import solve_delay_table
from threshq.model import EconomicParams, ServiceRatePolicy, strategy_from_x

CASE = ServiceRatePolicy.two_rate(23, 2.0, 5.0)
GENERAL = ServiceRatePolicy((1.0, 2.0, 3.0), 4.0)
SLOW_FIRST = ServiceRatePolicy((0.5,), 1.0)


def seconds(fn, budget: float = 0.5) -> float:
    fn()
    start = time.perf_counter()
    fn()
    calls = max(1, int(budget / 5 / max(time.perf_counter() - start, 1e-6)))
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        runs.append((time.perf_counter() - start) / calls)
    return statistics.median(runs)


def solves(fn) -> int:
    """The marginal_delays calls that one fn() makes through threshq.equilibrium."""
    real, calls = equilibrium.marginal_delays, []

    def counted(*args):
        calls.append(args)
        return real(*args)
    equilibrium.marginal_delays = counted
    try:
        fn()
    finally:
        equilibrium.marginal_delays = real
    return len(calls)


def main() -> dict:
    case = EconomicParams(3.0, 8.5, 1.0)
    rows = {}
    for n0 in (25, 100, 300, 1000):
        strategy = strategy_from_x(n0)
        rows[f"solve_delay_table.n0_{n0}.s"] = seconds(
            lambda: solve_delay_table(CASE, strategy, case))
    far = EconomicParams(3.0, 20.0, 1.0)
    for k in (25, 45):
        rows[f"find_equilibria.mixed_k_{k}.s"] = seconds(
            lambda: find_equilibria(far, CASE, (float(k), k + 1.0)))
    rows["find_equilibria.mixed_wide.s"] = seconds(
        lambda: find_equilibria(case, CASE, (0.5, 300.0)))
    for rm in (60, 200):
        params = EconomicParams(1.5, rm / GENERAL.max_rate, 1.0)
        rows[f"find_equilibria.pure.rM_{rm}.s"] = seconds(
            lambda: find_equilibria(params, GENERAL))
    for label, reward in (("case_study", 8.5), ("two_rate_rM_300", 60.0)):
        params = EconomicParams(3.0, reward, 1.0)
        rows[f"find_equilibria.pure.{label}.s"] = seconds(
            lambda: find_equilibria(params, CASE))
    near = EconomicParams(3.0, 9.1, 1.0)
    rows["sweep_mixed.24_46.s"] = seconds(lambda: sweep_mixed(near, CASE, 24.0, 46.0, 0.05))
    rows["find_equilibria.mixed_24_46.s"] = seconds(
        lambda: find_equilibria(near, CASE, (24.0, 46.0)))
    counts = {"find_equilibria.mixed_24_46.solves": solves(
        lambda: find_equilibria(near, CASE, (24.0, 46.0)))}
    edge = EconomicParams(1.0, 3161.0, 1.0)
    rows["find_equilibria.pure.slow_first_rate_3161.s"] = seconds(
        lambda: find_equilibria(edge, SLOW_FIRST))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.json")
        with open(path, "w") as fh:
            json.dump({"lambda": 3.0, "reward": 8.5, "wait_cost": 1.0,
                       "policy": {"T": 23, "mu_low": 2.0, "mu_high": 5.0}}, fh)
        argv = ["equilibria", "--instance", path, "--table1", "8,8.15,8.5,9.5,13"]

        def table1():
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(argv)
        rows["cli.table1_case_study.s"] = seconds(table1)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "seconds": rows, "counts": counts}


if __name__ == "__main__":
    print(json.dumps(main(), indent=2))
