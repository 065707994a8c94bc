"""Runs a workload's queries through ``threshq.cli.main`` in one process.

run.py starts it in a fresh interpreter with threshq on the path:

    python3 perfbench/worker.py PLAN.json RESULT.json

It runs the query list in passes, one query at a time with stdout and
stderr captured, until the plan's time budget is spent; it then writes the
latencies, exit codes and first-pass outputs to RESULT.json. The
calibration kernel runs before and after every query, and each latency is
scaled to the kernel's reference speed (calibrate.py). With a trace file in
the plan, traced passes with ``Tracer`` spans alternate with the untraced
ones and the spans are written to that file at the end.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402


def _out_files(path: str | None) -> tuple[int, str]:
    """Total size and digest of the files a query wrote under ``path``."""
    if path is None or not os.path.isdir(path):
        return 0, ""
    digest, size = hashlib.sha256(), 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        size += len(data)
        digest.update(name.encode() + b"\0" + data)
    return size, digest.hexdigest()


def run_query(main, argv: list[str]) -> tuple[object, str, str, float]:
    """(exit code, stdout, stderr, seconds); an exception's code is None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run_pass(main, queries, records, prefix="", tracer=None) -> tuple[float, float, list[float]]:
    """One pass over ``queries``: (sum of the scaled latencies, sum of the
    measured ones, calibration kernel times). Each run's scaled latency and
    exit code go to the record's keys that start with ``prefix``.

    A query's scaled latency is its latency times ``calibrate.REF_S`` over
    the mean of the kernel times just before and just after it. The first
    run of each query keeps its outputs; a later run whose outputs differ
    counts as a mismatch. With a tracer, each query run's spans carry the
    run's index among the traced runs.
    """
    scaled_wall = wall = 0.0
    cals = [calibrate.seconds()]
    for q in queries:
        rec = records[q["id"]]
        if tracer is not None:
            tracer.query = len(rec["traced_codes"]) * len(queries) + q["id"]
        code, stdout, stderr, elapsed = run_query(main, q["argv"])
        cals.append(calibrate.seconds())
        size, digest = _out_files(q.get("out"))
        scaled = elapsed * calibrate.REF_S / (0.5 * (cals[-2] + cals[-1]))
        wall += elapsed
        scaled_wall += scaled
        if "stdout" not in rec:
            rec.update(stdout=stdout, stderr=stderr, digest=digest,
                       bytes_out=len(stdout.encode()) + size)
        elif (stdout, digest) != (rec["stdout"], rec["digest"]):
            rec["mismatches"] += 1
        rec[prefix + "latencies"].append(scaled)
        rec[prefix + "codes"].append(code)
    return scaled_wall, wall, cals


def main(plan_path: str, result_path: str) -> int:
    """A warm-up pass, then untraced passes until the budget is spent, at
    least ``min_passes``; the warm-up's latencies are kept apart.

    With a trace path, each untraced pass is followed by a traced one, so
    both see the same machine load and their difference is the overhead.
    """
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import threshq
    import threshq.cli

    queries = plan["queries"]
    records = {q["id"]: {"warmup_latencies": [], "warmup_codes": [], "latencies": [],
                         "codes": [], "traced_latencies": [], "traced_codes": [],
                         "mismatches": 0} for q in queries}
    trace_path = plan.get("trace_path")
    tracer = Tracer() if trace_path else None
    walls: list[float] = []
    raw_walls: list[float] = []
    traced: list[float] = []
    cals: list[float] = []
    started = time.perf_counter()
    # the first pass fills caches and lets the interpreter specialise its
    # hot code; it ran up to a fifth slower than the passes after it
    run_pass(threshq.cli.main, queries, records, "warmup_")
    timed = time.perf_counter()
    while True:
        scaled, raw, pass_cals = run_pass(threshq.cli.main, queries, records)
        walls.append(scaled)
        raw_walls.append(raw)
        cals += pass_cals
        if tracer is not None:
            tracer.install(threshq)
            try:
                traced.append(run_pass(threshq.cli.main, queries, records, "traced_", tracer)[0])
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        per_round = (now - timed) / len(walls)
        if len(walls) >= plan["min_passes"] and now - started + per_round > plan["seconds"]:
            break
    result = {"walls": walls, "raw_walls": raw_walls, "traced_walls": traced,
              "calibration_s": statistics.median(cals),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "queries": [records[q["id"]] for q in queries]}
    if tracer is not None:
        result["absent"] = tracer.absent
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": plan["workload"], "seed": plan["seed"],
                       "fields": ["name", "start", "end", "parent", "query_run", "attributes"],
                       "spans": tracer.spans}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
