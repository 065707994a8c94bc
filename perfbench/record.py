"""Runs the benchmark over several seeds and records its medians and spreads.

Run from the root of a checkout:

    python3 perfbench/record.py --seeds 1-10 --out perfbench/BASELINE.json

For each workload it runs ``run.py --trace 0`` once per seed, one run at a
time, for BENCHMARK.json's ``run_seconds``, and records every end-to-end
metric's median, quartiles and spread (the distance between the quartiles
over the median) and the attempted, failed and known-failed queries of each
run. It then makes one traced run per workload on the first seed and
records the per-layer metrics. Each spread of a metric that BENCHMARK.json bounds is printed
next to that bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """(last JSON line, all end-to-end values, query counts) of one benchmark run."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().split("\n")
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1]) for line in lines
              if line.startswith(("end_to_end ", "checks "))}
    return json.loads(lines[-1]), tagged["end_to_end"], tagged["checks"]


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def seed_list(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--out", default=None, help="JSON record to write")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    record = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__},
              "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in seeds]
        metrics = {}
        for name in runs[0][1]:
            values = [r[1][name] for r in runs]
            metrics[name] = None if None in values else summary(values)
            if name in bounds:
                print(f"{workload:<12} {name:<20} median {metrics[name]['median']:<12.6g} "
                      f"spread {metrics[name]['spread']:.4f}  bound {bounds[name]}", flush=True)
        traced, _, _ = bench(workload, seeds[0], seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": metrics,
            "correct_runs": sum(r[0]["correct"] for r in runs),
            "attempted_queries": [r[2]["attempted"] for r in runs],
            "failed_queries": [r[2]["failed"] for r in runs],
            "known_failed_queries": [r[2]["known_failed"] for r in runs],
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
