"""Calibration kernel: a fixed piece of work that does not touch threshq.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over minutes as other tenants load it, in CPU time as much as in wall
time. No statistic taken inside one run removes a drift that lasts longer
than the run. So the worker times this kernel before and after every query,
and scales the query's latency by ``REF_S`` over the mean of the two kernel
times: the latency the query would have had with the machine at the speed
where the kernel takes ``REF_S``.

The kernel does in small amounts the kinds of work a threshq query does:
an interpreter loop, a recursion over the cells of a numpy table, passes
over arrays of a quarter million entries, and the standard library work of
the CLI (argument parsing, JSON, formatting, sorting). Over nine minutes of
alternating solver and monte-carlo passes on the recording machine, this mix
tracked both workloads' pass times better than any part alone, or than
small-array numpy calls and per-event random draws. Its arrays are
allocated once, so it adds a constant 4 MB to the worker's resident memory
and no peak.
"""
from __future__ import annotations

import argparse
import json
import re
import time

import numpy as np

# median time of one kernel run on the recording machine (2 vCPUs, Python
# 3.11); only a scale: a change of program is compared at the same REF_S
REF_S = 0.018

_LARGE = np.linspace(0.0, 1.0, 250_000)
_WORK = np.empty_like(_LARGE)
_TABLE = np.zeros((40, 41))
_DOC = {"rows": [{"n0": i, "w": 1.0 / (i + 1), "ok": i % 3 == 0, "name": f"r{i}"}
                 for i in range(300)]}
_PARSER = argparse.ArgumentParser()
_PARSER.add_argument("--x", type=float)
_PARSER.add_argument("--n", type=int)
_PARSER.add_argument("--out")
_NAME = re.compile(r"r(\d+)")


def kernel() -> float:
    """One run of the fixed work; returns a checksum so nothing is skipped."""
    total = 0.0
    for i in range(50_000):
        total += (i * 7) % 13
    for _ in range(6):
        for n in range(40):
            for m in range(40, n, -1):
                d = 2.5 + 0.01 * m
                v = 1.0 / d
                if m < 40:
                    v += (1.5 / d) * _TABLE[n, m + 1]
                if n >= 1:
                    v += (1.0 / d) * _TABLE[n - 1, m - 1]
                _TABLE[n, m] = v
    total += float(_TABLE[39, 40])
    for _ in range(10):
        np.multiply(_LARGE, 1.5, out=_WORK)
        np.add(_WORK, 0.5, out=_WORK)
        np.sqrt(_WORK, out=_WORK)
        total += float(_WORK.sum())
    doc = json.loads(json.dumps(_DOC, indent=2))
    for _ in range(25):
        total += _PARSER.parse_args(["--x", "3.5", "--n", "4", "--out", "a/b"]).n
    rows = sorted(doc["rows"], key=lambda r: (r["w"], r["name"]))
    total += sum(int(_NAME.match(r["name"]).group(1)) for r in rows)
    total += len(",".join(f"{r['n0']},{r['w']!r}" for r in rows))
    return total


def seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
