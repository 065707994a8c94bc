"""Layer timings of threshq, printed as one JSON object.

    PYTHONPATH=src python3 bench/layers.py
    PYTHONPATH=src python3 bench/layers.py BASE/src src    # two trees, interleaved

With no argument, the script times the threshq on sys.path, and given one
src/ directory that tree, in one round. Given two or more, it imports each
tree's threshq in turn into this one process (load) and runs 7 rounds. A
round times each row on every tree back to back, the first tree alternating
from round to round, so a drift in the host's speed reaches the trees of a
row alike. Per tree, "runs" holds a row's value in each round and "seconds"
their median; a round's value is the median over 5 repeats of the mean
seconds per call (seconds). Every tree after the first also has "ratios":
per row, the median over rounds of its value divided by the first tree's
value in the same round. Under "counts", find_equilibria.mixed_24_46.solves
is the number of batched marginal_delays calls that one
find_equilibria.mixed_24_46 search makes, counted through that tree's
equilibrium module.

The case study is the two-rate policy T = 23, rates 2 and 5, lambda = 3.

Delay kernel and equilibrium search:
- solve_delay_table.n0_{25,100,300,1000}: the case study under the pure
  threshold n0.
- find_equilibria.pure.rM_{60,200}: the pure scan alone, on the general
  policy with rates 1, 2, 3 and tail 4 (mu_1 / M = 0.25), r_tilde M = 60
  and 200 (the loose bounds scan from about r_tilde mu_1 to r_tilde M,
  14..60 and 49..200; the level-wise ones keep 55..60 and 195..200).
- find_equilibria.pure.case_study, .two_rate_rM_300: the pure scan on the
  case study at reward 8.5, and at reward 60 (r_tilde M = 300).
- marginal_delays.spread_k4_1_140: the batch of the 140 thresholds 1..140
  that the solver workload's `sweep --kind pure_n0 --range 1:140` solves,
  on its policy shape: 4 prefix rates (1.2, 2, 2.6, 3.1) below the tail
  3.5, lambda = 1.7, so the band is 4 wide and each row past it is
  (n + 1)/M.
- find_equilibria.mixed_k_{25,45}: the case study at reward 20 with the
  mixed range one unit interval (k, k+1]: the one solve of the 36
  candidates 65..100 (the loose bounds scanned 62, 39..100), with no root to
  refine. k = 25 lies below the scan, and (45, 46] inside it but under
  H(46) = 16.1 < 20, so both rows time the candidates' solve alone.
- find_equilibria.mixed_wide: the case study at reward 8.5 with the mixed
  range (0.5, 300), far past its candidates 16, 17 and 24..42: the search
  solves them and 23, the left end of (23, 24], and refines the roots.
- sweep_mixed.24_46, find_equilibria.mixed_24_46: the case study at reward
  9.1 over 24..46, the shape of the solver workload's `sweep --kind
  mixed_x` and `equilibria --mixed-range` queries: a sweep at step 0.05 and
  the search with its mixed range.
- find_equilibria.pure.slow_first_rate_3161: rates 0.5 then 1, lambda = 1,
  reward 3161, at the cell budget's edge: the loose bounds n0/M <= w(n0) <=
  n0/mu_1 scan 1,582 candidates (1580..3161) up to balk state 3161, the
  level-wise ones 3 (3159..3161).

CLI, each call through that tree's cli.main with stdout discarded:
- build_parser: building the parser of every command once, uncached.
- main.equilibria.case_study: a warm ``equilibria --instance FILE`` on the
  case study at reward 8.5: the parser, loading the instance, the pure scan
  and the JSON report.
- cli.table1_case_study: ``equilibria --table1 8,8.15,8.5,9.5,13`` on the
  same instance: the five published rewards.
- main.delay_out.spread_265: ``delay --x 264.4 --out DIR`` on the policy of
  delay_csv.spread_265 below: the solve, both CSVs and the file opens, the
  shape of the solver workload's `delay` queries.

Output writers; their inputs are solved once, before timing, so only the
writing is timed:
- delay_csv.n0_266: the case study under the pure threshold 266, its delay
  table (35,511 rows, about 0.9 MB) written to a file as `delay --x 266
  --out` writes it.
- delay_csv.spread_265: a table of the solver workload's `delay` shape,
  4 prefix rates (1.2, 2, 2.6, 3.1) then the tail 3.5, lambda = 1.7, under
  the threshold 264.4 (35,245 rows), written the same way. Past m = n + 4
  each row ends in a run of one value, (n + 1)/M: 34,244 of the 35,245
  entries.
- delay_csv.rising_300: 300 prefix rates rising from 1 to 4 (tail 4.01,
  lambda = 3) under the threshold 300 (45,150 rows), written the same way:
  each row's trailing run is its last entry alone, so every W is formatted
  on its own.
- arrival_csv.n0_266: the n0_266 table's arrival delays W(n), n = 0..266,
  written as `delay --x 266 --out` writes arrival_delay.csv.
- report.mixed_24_46: the JSON text of the case-study report at reward 9.1
  with the mixed range 24:46, the shape of the solver workload's
  `equilibria --mixed-range` queries.
- sweep_csv.pure_n0_1_140: the case study's `sweep --kind pure_n0
  --range 1:140` rows written to a file as its --out writes them.
- sweep_csv.mixed_24_50: the case study's `sweep --kind mixed_x --range
  24:50:0.05` at reward 9.1 (521 rows) written the same way, the shape of
  the solver workload's `sweep --kind mixed_x` queries.

Simulators:
- run_coupling.n0_5: constant rate 2, lambda = 1.5, pure threshold 5, n = 2,
  10^4 replications.
- run_coupling.n0_200_n_2: as n0_5 under the pure threshold 200, so n is
  far below n0.
- run_coupling.case_study_n0_24: the case study under the pure threshold
  24, n = 12, 10^4 replications.
- run_coupling.case_study_n0_15_n7: the case study under the pure threshold
  15, n = 7, 3,000 replications: the shape and size of the monte-carlo
  workload's 3,000-replication couplings (n0 14..16, n = n0 // 2).
- run_coupling.general_n0_19_n9: rates 2.9, 3.1, 3.3 then 3.5, lambda =
  2.1, under the pure threshold 19, n = 9, 2,050 replications: the shape
  and size of the workload's 2,050-replication coupling (n0 18..20, n = n0
  // 2, a general policy within 20% of its tail).
- run_coupling.general_x_10_5_n5: the same policy under the mixed threshold
  10.5 (balk state 11), n = 5, 8,000 replications: the shape and size of
  the workload's 8,000-replication couplings (n0 10..12).
- simulate_sojourn.case_study_n0_26: the case study under x = 25.5 (balk
  state 26), n = 12, 10^5 replications.
- simulate_sojourn.case_study_x24_5_n12_1e6: the case study under x = 24.5
  (balk state 25), n = 12, 10^6 replications: the shape and size of the
  workload's case-study simulate query (one call per repeat).
- simulate_sojourn.general_n0_101: a general policy whose rates rise
  linearly from 1 to 4 over the first 90 states, then stay at 4, with
  lambda = 3, under x = 100.5 (balk state 101), n = 50, 2 * 10^4
  replications.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np

ROUNDS = 7  # with two trees or more; one tree alone is timed in one round
BUDGET = 0.25  # seconds of calls per row and round
CASE_STUDY_DOC = {"lambda": 3.0, "reward": 8.5, "wait_cost": 1.0,
                  "policy": {"T": 23, "mu_low": 2.0, "mu_high": 5.0}}
SPREAD_DOC = {"lambda": 1.7, "reward": 9.1, "wait_cost": 1.0,
              "policy": {"prefix": [1.2, 2.0, 2.6, 3.1], "tail": 3.5}}


def load(src: str | None):
    """The threshq package imported with its cli from ``src`` (from sys.path
    when None), apart from any tree imported before it. Its cli, delay,
    equilibrium, model and sim modules are its attributes."""
    for name in [n for n in sys.modules if n.split(".")[0] == "threshq"]:
        del sys.modules[name]
    if src is not None:
        sys.path.insert(0, os.path.abspath(src))
    try:
        importlib.import_module("threshq.cli")
        return sys.modules["threshq"]
    finally:
        if src is not None:
            sys.path.pop(0)


def seconds(fn) -> float:
    """The median over 5 repeats of the mean seconds per call of fn, each
    repeat about BUDGET / 5 long (one call at least), after one warm-up call
    and one that sizes the repeats."""
    fn()
    start = time.perf_counter()
    fn()
    calls = max(1, int(BUDGET / 5 / max(time.perf_counter() - start, 1e-6)))
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        runs.append((time.perf_counter() - start) / calls)
    return statistics.median(runs)


def solves(tq, fn) -> int:
    """The marginal_delays calls that one fn() makes through tree tq's equilibrium."""
    eq, calls = tq.equilibrium, []
    real = eq.marginal_delays

    def counted(*args):
        calls.append(args)
        return real(*args)
    eq.marginal_delays = counted
    try:
        fn()
    finally:
        eq.marginal_delays = real
    return len(calls)


def kernel(tq) -> dict:
    """name -> a delay solve or equilibrium search of tree tq."""
    model, eq = tq.model, tq.equilibrium
    case = model.ServiceRatePolicy.two_rate(23, 2.0, 5.0)
    general = model.ServiceRatePolicy((1.0, 2.0, 3.0), 4.0)
    params, near = model.EconomicParams(3.0, 8.5, 1.0), model.EconomicParams(3.0, 9.1, 1.0)
    far = model.EconomicParams(3.0, 20.0, 1.0)
    find, part = eq.find_equilibria, functools.partial
    return {
        **{f"solve_delay_table.n0_{n0}.s": part(tq.delay.solve_delay_table, case,
                                                model.strategy_from_x(n0), params)
           for n0 in (25, 100, 300, 1000)},
        "marginal_delays.spread_k4_1_140.s": part(
            tq.delay.marginal_delays, model.ServiceRatePolicy((1.2, 2.0, 2.6, 3.1), 3.5),
            np.arange(1.0, 141.0), model.EconomicParams(1.7, 10.0, 1.0)),
        **{f"find_equilibria.mixed_k_{k}.s": part(find, far, case, (float(k), k + 1.0))
           for k in (25, 45)},
        "find_equilibria.mixed_wide.s": part(find, params, case, (0.5, 300.0)),
        **{f"find_equilibria.pure.rM_{rm}.s": part(
            find, model.EconomicParams(1.5, rm / general.max_rate, 1.0), general)
           for rm in (60, 200)},
        **{f"find_equilibria.pure.{label}.s": part(find, model.EconomicParams(3.0, reward, 1.0),
                                                   case)
           for label, reward in (("case_study", 8.5), ("two_rate_rM_300", 60.0))},
        "sweep_mixed.24_46.s": part(eq.sweep_mixed, near, case, 24.0, 46.0, 0.05),
        "find_equilibria.mixed_24_46.s": part(find, near, case, (24.0, 46.0)),
        "find_equilibria.pure.slow_first_rate_3161.s": part(
            find, model.EconomicParams(1.0, 3161.0, 1.0), model.ServiceRatePolicy((0.5,), 1.0)),
    }


def cli_calls(tq, tmp: str) -> dict:
    """name -> a parser build or cli.main call of tree tq."""
    paths = {}
    for name, doc in (("case_study", CASE_STUDY_DOC), ("spread", SPREAD_DOC)):
        paths[name] = os.path.join(tmp, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def cli_main(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert tq.cli.main(list(argv)) == 0
    equilibria = functools.partial(cli_main, "equilibria", "--instance", paths["case_study"])
    return {"build_parser.s": tq.cli.build_parser.__wrapped__,
            "main.equilibria.case_study.s": equilibria,
            "cli.table1_case_study.s": functools.partial(equilibria, "--table1",
                                                         "8,8.15,8.5,9.5,13"),
            "main.delay_out.spread_265.s": functools.partial(
                cli_main, "delay", "--instance", paths["spread"], "--x", "264.4",
                "--out", os.path.join(tmp, "delay_out"))}


def writers(tq, tmp: str) -> dict:
    """name -> a call that writes one output of tree tq into tmp."""
    model, cli, eq = tq.model, tq.cli, tq.equilibrium
    case = model.ServiceRatePolicy.two_rate(23, 2.0, 5.0)
    params = model.EconomicParams(3.0, 9.1, 1.0)
    tables = {name: tq.delay.solve_delay_table(
        policy, model.strategy_from_x(x), model.EconomicParams(lam, 9.1, 1.0))
        for name, policy, x, lam in [
            ("n0_266", case, 266, 3.0),
            ("spread_265", model.ServiceRatePolicy((1.2, 2.0, 2.6, 3.1), 3.5), 264.4, 1.7),
            ("rising_300", model.ServiceRatePolicy(np.linspace(1.0, 4.0, 300), 4.01), 300, 3.0)]}
    arrival = list(enumerate(tables["n0_266"].arrival_delays.tolist()))
    report = eq.find_equilibria(params, case, (24.0, 46.0))
    rows = eq.sweep_mixed(params, case, 1.0, 140.0, 1.0)
    mixed = eq.sweep_mixed(params, case, 24.0, 50.0, 0.05)

    def delay_csv(table):
        with open(os.path.join(tmp, "delay_table.csv"), "w", encoding="utf-8") as fh:
            table.to_csv(fh)
    return {**{f"delay_csv.{name}.s": functools.partial(delay_csv, t)
               for name, t in tables.items()},
            "arrival_csv.n0_266.s": lambda: cli._write(
                tmp, "arrival_delay.csv", cli._csv(("n", "W"), arrival)),
            "report.mixed_24_46.s": functools.partial(cli._json_report, report),
            "sweep_csv.pure_n0_1_140.s": lambda: cli._write(
                tmp, "sweep_pure_n0.csv", cli._csv(("n0", "W", "equilibrium_hit"), rows)),
            "sweep_csv.mixed_24_50.s": lambda: cli._write(
                tmp, "sweep_mixed_x.csv", cli._csv(("x", "W", "equilibrium_hit"), mixed))}


def simulators(tq) -> dict:
    """name -> a call of one simulator of tree tq."""
    model, sim = tq.model, tq.sim
    case_policy = model.ServiceRatePolicy.two_rate(23, 2.0, 5.0)
    case = model.EconomicParams(3.0, 8.5, 1.0)
    constant = (model.EconomicParams(1.5, 5.0, 1.0), model.ServiceRatePolicy.constant(2.0))
    near_tail = (model.EconomicParams(2.1, 10.0, 1.0),
                 model.ServiceRatePolicy((2.9, 3.1, 3.3), 3.5))

    def config(reps, params, policy, x):
        return sim.SimConfig(1, reps, params, policy, model.strategy_from_x(x))

    couple, sojourn, part = sim.run_coupling, sim.simulate_sojourn, functools.partial
    return {
        "run_coupling.n0_5.s": part(couple, config(10_000, *constant, 5.0), 2),
        "run_coupling.n0_200_n_2.s": part(couple, config(10_000, *constant, 200.0), 2),
        "run_coupling.case_study_n0_24.s": part(
            couple, config(10_000, case, case_policy, 24.0), 12),
        "run_coupling.case_study_n0_15_n7.s": part(
            couple, config(3_000, case, case_policy, 15.0), 7),
        "run_coupling.general_n0_19_n9.s": part(couple, config(2_050, *near_tail, 19.0), 9),
        "run_coupling.general_x_10_5_n5.s": part(couple, config(8_000, *near_tail, 10.5), 5),
        "simulate_sojourn.case_study_n0_26.s": part(
            sojourn, config(100_000, case, case_policy, 25.5), 12),
        "simulate_sojourn.case_study_x24_5_n12_1e6.s": part(
            sojourn, config(1_000_000, case, case_policy, 24.5), 12),
        "simulate_sojourn.general_n0_101.s": part(sojourn, config(
            20_000, case, model.ServiceRatePolicy(tuple(np.linspace(1.0, 4.0, 90)), 4.0), 100.5),
            50),
    }


def rows(tq, tmp: str) -> dict:
    """name -> call of every row of tree tq, writing its files into tmp."""
    return {**kernel(tq), **cli_calls(tq, tmp), **writers(tq, tmp), **simulators(tq)}


def main(trees: list[str]) -> dict:
    srcs = trees or [None]
    rounds = ROUNDS if len(srcs) > 1 else 1
    calls, counts = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for src in srcs:
            tq = load(src)
            calls.append(rows(tq, tmp))
            counts.append({"find_equilibria.mixed_24_46.solves": solves(
                tq, calls[-1]["find_equilibria.mixed_24_46.s"])})
        runs = [{name: [] for name in calls[0]} for _ in srcs]
        for r in range(rounds):
            order = list(range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs))))
            for name in calls[0]:
                for i in order:
                    runs[i][name].append(seconds(calls[i][name]))
    trees = {}
    for i, (src, run, count) in enumerate(zip(srcs, runs, counts)):
        tree = trees[src or "sys.path"] = {
            "seconds": {name: statistics.median(v) for name, v in run.items()},
            "counts": count, "runs": run}
        if i:
            tree["ratios"] = {name: statistics.median(b / a for a, b in zip(runs[0][name], v))
                              for name, v in run.items()}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "rounds": rounds, "trees": trees}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:]), indent=2))
