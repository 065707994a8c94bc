"""Layer timings of the CLI's output writers, printed as one JSON object.

    PYTHONPATH=src python3 bench/writers.py
    PYTHONPATH=src python3 bench/writers.py BASE/src src    # two trees, interleaved

Each value is the median over 5 repeats of the mean seconds per call (see
delay_kernel.seconds). Inputs are solved once, before timing; only the
writing is timed.
- delay_csv.n0_266: the case-study policy (T = 23, rates 2 and 5,
  lambda = 3) under the pure threshold 266, its delay table (35,511 rows,
  about 0.9 MB) written to a file as `delay --x 266 --out` writes it.
- delay_csv.spread_265: a table of the solver workload's `delay` shape,
  4 prefix rates (1.2, 2, 2.6, 3.1) then the tail 3.5, lambda = 1.7, under
  the threshold 264.4 (35,245 rows), written the same way. Past m = n + 4
  each row repeats one value, so 34,475 entries repeat their neighbour.
- delay_csv.rising_300: 300 prefix rates rising from 1 to 4 (tail 4.01,
  lambda = 3) under the threshold 300 (45,150 rows), written the same way:
  no entry repeats its neighbour, so every W is formatted on its own.
- arrival_csv.n0_266: the n0_266 table's arrival delays W(n), n = 0..266,
  written as `delay --x 266 --out` writes arrival_delay.csv.
- report.mixed_24_46: the JSON text of the case-study report at reward 9.1
  with the mixed range 24:46, the shape of the solver workload's
  `equilibria --mixed-range` queries.
- sweep_csv.pure_n0_1_140: the case study's `sweep --kind pure_n0
  --range 1:140` rows written to a file as its --out writes them.
- sweep_csv.mixed_24_50: the case study's `sweep --kind mixed_x --range
  24:50:0.05` at reward 9.1 (521 rows) written the same way: the shape of
  the solver workload's slowest queries, whose latency sets its
  query_tail_s.

Given src/ directories, the script imports each tree's threshq in turn into
this one process and runs 7 rounds, each timing every tree, the first tree
of a round alternating; each value is then the median of the rounds, one
object per tree. On a host whose speed drifts, this compares two trees
more fairly than two runs one after the other. A tree from before the
streaming writers (DelayTable.to_csv returning the text, no
cli._json_report) is timed through those older writers, and one whose
DelayTable has no arrival_delays reads them from delay.arrival_delay.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import platform
import statistics
import sys
import tempfile

import numpy as np

from delay_kernel import seconds

ROUNDS = 7


def load(src: str | None):
    """threshq.cli imported from ``src`` (from sys.path when None), apart from
    any tree imported before it."""
    for name in [n for n in sys.modules if n.split(".")[0] == "threshq"]:
        del sys.modules[name]
    if src is not None:
        sys.path.insert(0, os.path.abspath(src))
    try:
        return importlib.import_module("threshq.cli")
    finally:
        if src is not None:
            sys.path.pop(0)


def writers(cli, tmp: str) -> dict:
    """name -> a call that writes one output of the tree whose cli is given."""
    model, eq = sys.modules[cli.__package__ + ".model"], cli.eq_mod
    case = model.ServiceRatePolicy.two_rate(23, 2.0, 5.0)
    params = model.EconomicParams(3.0, 9.1, 1.0)
    tables = {name: cli.delay_mod.solve_delay_table(
        policy, model.strategy_from_x(x), model.EconomicParams(lam, 9.1, 1.0))
        for name, policy, x, lam in [
            ("n0_266", case, 266, 3.0),
            ("spread_265", model.ServiceRatePolicy((1.2, 2.0, 2.6, 3.1), 3.5), 264.4, 1.7),
            ("rising_300", model.ServiceRatePolicy(np.linspace(1.0, 4.0, 300), 4.01), 300, 3.0)]}
    table = tables["n0_266"]
    report = eq.find_equilibria(params, case, (24.0, 46.0))
    if hasattr(table, "arrival_delays"):
        arrival = list(enumerate(table.arrival_delays.tolist()))
    else:  # a tree from before the solve returned its arrival delays
        arrival = [(n, cli.delay_mod.arrival_delay(table, case, n)) for n in range(table.n0 + 1)]
    rows = eq.sweep_mixed(params, case, 1.0, 140.0, 1.0)
    mixed = eq.sweep_mixed(params, case, 24.0, 50.0, 0.05)
    os.makedirs(tmp, exist_ok=True)
    path = os.path.join(tmp, "delay_table.csv")

    def delay_csv(table):
        if len(inspect.signature(table.to_csv).parameters) == 1:
            with open(path, "w", encoding="utf-8") as fh:
                table.to_csv(fh)
        else:
            cli._write(tmp, "delay_table.csv", table.to_csv())

    def report_text():
        if hasattr(cli, "_json_report"):
            return cli._json_report(report)
        return json.dumps(report.to_json_dict(), indent=2) + "\n"

    return {**{f"delay_csv.{name}.s": functools.partial(delay_csv, t)
               for name, t in tables.items()},
            "arrival_csv.n0_266.s": lambda: cli._write(
                tmp, "arrival_delay.csv", cli._csv(("n", "W"), arrival)),
            "report.mixed_24_46.s": report_text,
            "sweep_csv.pure_n0_1_140.s": lambda: cli._write(
                tmp, "sweep_pure_n0.csv", cli._csv(("n0", "W", "equilibrium_hit"), rows)),
            "sweep_csv.mixed_24_50.s": lambda: cli._write(
                tmp, "sweep_mixed_x.csv", cli._csv(("x", "W", "equilibrium_hit"), mixed))}


def interleaved(trees: list[str], calls: list[dict]) -> dict:
    """ROUNDS rounds of every tree's calls (name -> call), the first tree of a
    round alternating; each value is the median of the rounds."""
    runs = [{name: [] for name in c} for c in calls]
    for r in range(ROUNDS):
        for i in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
            for name, fn in calls[i].items():
                runs[i][name].append(seconds(fn, budget=0.25))
    return {"rounds": ROUNDS, "trees": {
        src: {"seconds": {name: statistics.median(v) for name, v in run.items()}, "runs": run}
        for src, run in zip(trees, runs)}}


def main(trees: list[str]) -> dict:
    head = {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}
    with tempfile.TemporaryDirectory() as tmp:
        if not trees:
            return {**head, "seconds": {name: seconds(fn)
                                        for name, fn in writers(load(None), tmp).items()}}
        calls = [writers(load(src), os.path.join(tmp, str(i))) for i, src in enumerate(trees)]
        return {**head, **interleaved(trees, calls)}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:]), indent=2))
