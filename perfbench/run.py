"""threshq benchmark: seeded CLI workloads, timed end to end and checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solver --seed 1 --seconds 55 --trace 0

Workloads: solver, monte-carlo (see NOTES.md). The run

1. times ``import threshq.cli`` plus loading the first instance in several
   fresh interpreters (``setup_s``);
2. writes the workload's instances, made from the seed alone;
3. starts worker.py, which runs the queries through ``threshq.cli.main``
   one at a time (closed loop, one client) in passes for ``--seconds``;
4. checks every answer against reference.py, outside the timed region;
5. prints each metric by name and unit, then one JSON line.

Every time is scaled to the reference speed of the calibration kernel
(calibrate.py), which runs next to each timed step; the times as measured
are printed too.

With ``--trace 1`` each untraced pass is followed by one with spans around
the public functions of model, delay, equilibrium, sim and cli, and the
JSON line holds the per-layer metrics and the tracing overhead instead.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = (5, 4)  # fresh interpreters timed before and after the worker
MIN_PASSES = 4  # timed passes, after the warm-up pass
PROBE = """\
import statistics, sys, time
t0 = time.perf_counter()
import threshq.cli
from threshq.model import load_instance
load_instance(sys.argv[1])
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import calibrate
print(elapsed, statistics.median(calibrate.seconds() for _ in range(3)))
"""
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "wrong_frac": "ratio",
    "peak_rss_mb": "MB",
    "mc_reps_per_s": "1/s",
    "coupling_reps_per_s": "1/s",
}
# the end-to-end metrics in the JSON line: those every workload has and
# that are never 0 (wrong_frac is 0 on a correct run; the throughputs exist
# only where the workload runs that simulator)
GATED = ("setup_s", "wall_s", "query_p50_s", "query_tail_s", "peak_rss_mb")
PER_LAYER = {
    "model.load_instance.calls": "count",
    "model.load_instance.s": "s",
    "delay.solve.calls": "count",
    "delay.solve.s": "s",
    "delay.solve.entries": "count",
    "delay.solve.ns_per_entry": "ns",
    "delay.solve.max_n0": "count",
    "delay.to_csv.s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "cli.exit_nonzero": "count",
    "equilibrium.enumerate.calls": "count",
    "equilibrium.enumerate.self_s": "s",
    "equilibrium.candidates": "count",
    "equilibrium.eq_per_candidate": "ratio",
    "equilibrium.mixed.calls": "count",
    "equilibrium.mixed.self_s": "s",
    "equilibrium.mixed.marginal_calls": "count",
    "equilibrium.mixed.marginal_per_interval": "count",
    "equilibrium.mixed.roots": "count",
    "equilibrium.sweep.s": "s",
    "sim.simulate.calls": "count",
    "sim.simulate.s": "s",
    "sim.simulate.reps_per_s": "1/s",
    "sim.coupling.calls": "count",
    "sim.coupling.s": "s",
    "sim.coupling.reps_per_s": "1/s",
    "sim.coupling.violations": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one thread, as the queries are one at a time: numpy's OpenBLAS starts a
    # thread per core at import, which on a loaded host added 0.07 s to the
    # 0.13 s import in some minutes and not in others
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def measure_setup(instance_path: str, probes: int) -> list[tuple[float, float]]:
    """(seconds, calibration kernel seconds) of each fresh interpreter."""
    times = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-c", PROBE, instance_path, HERE], env=_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        elapsed, cal = map(float, proc.stdout.split())
        times.append((elapsed, cal))
    return times


def run_worker(plan_path: str, result_path: str, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path,
                           result_path], env=_env(), capture_output=True, text=True,
                          timeout=seconds + 90)
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(queries_per_pass: int) -> float:
    """The highest ladder percentile with at least 10 of the MIN_PASSES *
    queries_per_pass runs beyond it, so a workload always reports the same
    one; 100 (the maximum) when the list is too short for any."""
    n = MIN_PASSES * queries_per_pass
    return next((q for q in TAIL_LADDER if n - math.ceil(q / 100.0 * n) >= 10), 100.0)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q / 100.0 * len(ordered)) - 1]


def check_answers(plan: dict, records: list[dict]) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, known, reasons), counted in queries, not runs, so
    the counts do not grow with the number of passes. A query fails when any
    of its runs crashed, exited non-zero or changed output, or its answer
    disagrees with the reference; ``known`` of the failures are wrong only
    by threshq's known defect (``reference.KnownMiss``)."""
    instances = {name: reference.Instance(doc) for name, doc in plan["instances"].items()}
    failed = known = 0
    reasons = []
    for query, rec in zip(plan["queries"], records):
        codes = rec["warmup_codes"] + rec["codes"] + rec["traced_codes"]
        why = reference.check_query(query, instances[query["instance"]], codes[0],
                                    rec["stdout"], reference.read_outputs(query))
        bad = sum(1 for c in codes if c != 0) + rec["mismatches"]
        if why is None and not bad:
            continue
        failed += 1
        if why is None:
            why = f"{bad} of {len(codes)} runs exited non-zero or changed output"
        elif isinstance(why, reference.KnownMiss) and not bad:
            known += 1
            why = "known defect: " + why
        stderr = rec["stderr"].strip().splitlines()[-1:]
        reasons.append(f"q{query['id']} {' '.join(query['argv'][:1] + query['argv'][3:])}: "
                       + "; ".join([why] + stderr))
    return len(records), failed, known, reasons


def end_to_end(plan, result, setup, attempted, failed, known) -> tuple[dict, dict]:
    """(values, notes) of the end-to-end metrics; None where a workload has no such query."""
    records = result["queries"]
    pooled = [t for rec in records for t in rec["latencies"]]
    q = tail_percentile(len(records))
    values = {
        "setup_s": statistics.median(t * calibrate.REF_S / cal for t, cal in setup),
        "wall_s": statistics.fmean(result["walls"]),
        "query_p50_s": statistics.median(pooled),
        "query_tail_s": nearest_rank(pooled, q),
        "wrong_frac": failed / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, "
                   f"{statistics.median(t for t, _ in setup):.6g} s as measured",
        "wall_s": f"mean of {len(result['walls'])} passes over {len(records)} queries, "
                  f"{statistics.fmean(result['raw_walls']):.6g} s as measured",
        "query_p50_s": f"median of {len(pooled)} query runs",
        "query_tail_s": f"p{q:g} of {len(pooled)} query runs",
        "wrong_frac": f"{failed} of {attempted} queries, {known} by the known defect",
        "peak_rss_mb": "peak resident memory of the worker"
                       + (", spans included" if result["traced_walls"] else ""),
    }
    for name, kind in (("mc_reps_per_s", "simulate"), ("coupling_reps_per_s", "coupling")):
        pairs = [(query["reps"] * len(rec["latencies"]), sum(rec["latencies"]))
                 for query, rec in zip(plan["queries"], records) if query["kind"] == kind]
        if pairs:
            values[name] = sum(p[0] for p in pairs) / sum(p[1] for p in pairs)
            notes[name] = f"{len(pairs)} {kind} queries per pass"
        else:
            values[name] = None
            notes[name] = f"n/a: the workload runs no {kind} query"
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "threshq", "cli.py")):
        print("error: run from the root of a threshq checkout (src/threshq/cli.py not found)",
              file=sys.stderr)
        return 2

    workdir = os.path.relpath(os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    trace_path = os.path.join(os.path.relpath(HERE), "_out", f"trace-{args.workload}.json")
    try:
        os.makedirs(workdir)
        plan = workloads.build(args.workload, args.seed, workdir).to_json()
        for name, doc in plan["instances"].items():
            with open(os.path.join(workdir, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        plan["seconds"] = args.seconds
        plan["min_passes"] = MIN_PASSES
        plan["trace_path"] = trace_path if args.trace else None
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        first = plan["queries"][0]
        first_instance = os.path.join(workdir, f"{first['instance']}.json")
        setup = measure_setup(first_instance, SETUP_PROBES[0])
        result = run_worker(plan_path, os.path.join(workdir, "result.json"), args.seconds)
        setup += measure_setup(first_instance, SETUP_PROBES[1])
        attempted, failed, known, reasons = check_answers(plan, result["queries"])
        values, notes = end_to_end(plan, result, setup, attempted, failed, known)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"threshq benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  calibration kernel: median {result['calibration_s']:.6g} s in the worker, "
          f"times scaled to {calibrate.REF_S:g} s")
    print("  passes: " + " ".join(f"{w:.4g}" for w in result["walls"]) + " s scaled, "
          + " ".join(f"{w:.4g}" for w in result["raw_walls"]) + " s as measured")
    for line in reasons:
        print(f"  wrong: {line}")
    print("checks " + json.dumps({"attempted": attempted, "failed": failed, "known_failed": known}))
    for name, unit in END_TO_END.items():
        shown = "n/a" if values[name] is None else f"{values[name]:.6g} {unit}"
        print(f"  {name:<22}{shown:<20}{notes[name]}")
    print("end_to_end " + json.dumps(values))
    if args.trace:
        with open(trace_path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        records = result["queries"]
        passes = len(result["traced_walls"])
        metrics = tracer.layer_metrics(
            spans, passes, sum(rec["bytes_out"] for rec in records),
            sum(1 for rec in records for c in rec["traced_codes"] if c != 0))
        untraced = values["wall_s"]
        metrics["trace.overhead_s"] = statistics.fmean(result["traced_walls"]) - untraced
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced
        print(f"  traced passes: {passes}, alternating with the untraced ones; "
              f"{len(spans)} spans in {trace_path}")
        if result["absent"]:
            print(f"  absent from the program (metrics read 0): {', '.join(result['absent'])}")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<42}{metrics[name]:.6g} {unit}")
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        out = {name: {"value": values[name], "unit": END_TO_END[name]} for name in GATED}
    print(json.dumps({"correct": failed == known, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
