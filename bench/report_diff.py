"""Equilibria reports of two source trees compared on seeded random instances.

    PYTHONPATH=src python3 bench/report_diff.py BASE/src src [--n 400] [--seed 1]

Imports each tree's threshq.cli into this one process (layers.load) and
runs ``equilibria`` through its ``cli.main`` on the same instances: N
instances drawn from the seed, a quarter each of two-rate, constant,
general and low-edge ones, each with no --mixed-range, a drawn one and
0.000001:(r_tilde M + 5). A low-edge instance is a general policy whose
first rates equal mu_1 > 1, with r_tilde = (k + delta)/mu_1 and delta in
(1e-9, 1e-9 mu_1): r_tilde mu_1 - 1 lies just past an integer, by more than
1e-9 in customers but by less than 1e-9 in time. Half of the others put
r_tilde mu_1 on an integer or within 1e-12 or 1e-10 of one.

Prints each query whose exit code, stdout or stderr differ between the
trees, as its instance and range, then per report key the two values
(the diagnostics as the n0 rows only one tree has and the rows that
differ), and last a line with the count of identical queries. A query whose
reports differ only in the values of as many mixed_points gets one line
instead: the largest |dx| between the two lists, and each tree's largest
residual |w - r_tilde| at its own points, w by that tree's marginal_delays.
It reports and gates nothing: the exit status is 0 whatever differs.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from layers import load

KINDS = ("two-rate", "constant", "general", "low-edge")


def instance(rng: np.random.Generator, kind: str) -> tuple[dict, list[float]]:
    """(instance document, rates mu_1, mu_2, ... up to the tail) of one draw."""
    lam = float(rng.uniform(0.1, 5.0))
    if kind == "two-rate":
        mu_l = float(rng.uniform(0.2, 4.0))
        policy = {"T": int(rng.integers(1, 40)), "mu_low": mu_l,
                  "mu_high": mu_l * float(rng.uniform(1.05, 20.0))}
        rates = [mu_l] * policy["T"] + [policy["mu_high"]]
    elif kind == "constant":
        rates = [float(rng.uniform(0.2, 6.0))]
    elif kind == "general":
        rates = np.sort(rng.uniform(0.2, 6.0, int(rng.integers(2, 20)))).tolist()
    else:
        mu_1 = float(rng.uniform(1.2, 6.0))
        rates = [mu_1] * int(rng.integers(1, 20)) + np.sort(
            rng.uniform(mu_1, 4.0 * mu_1, int(rng.integers(0, 10)))).tolist()
    if kind != "two-rate":
        policy = {"prefix": rates[:-1], "tail": rates[-1]}
    cap, mu_1 = 150.0 / rates[-1], rates[0]
    if kind == "low-edge":
        flat = rates.count(mu_1) if rates[-1] != mu_1 else math.inf
        k = int(rng.integers(1, min(flat, math.floor(cap * mu_1)) + 1))
        r = (k + 1e-9 * (1.0 + (mu_1 - 1.0) * float(rng.uniform(0.05, 0.95)))) / mu_1
    elif rng.random() < 0.5:
        k = int(rng.integers(0, max(math.floor(cap * mu_1), 1) + 1))
        r = (k + float(rng.choice([0.0, 1e-12, -1e-12, 1e-10, -1e-10]))) / mu_1
    else:
        r = float(rng.uniform(0.0, cap))
    return {"lambda": lam, "reward": max(r, 0.0), "wait_cost": 1.0, "policy": policy}, rates


def run(cli, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one cli.main call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def largest_residual(cli, path: str, points: list[float]) -> float:
    """max |w - r_tilde| over the points, w by the tree whose cli is given."""
    params, policy = cli.load_instance(path)
    w = cli.delay_mod.marginal_delays(policy, points, params)
    return float(np.max(np.abs(w - params.r_tilde)))


def differences(a: tuple[int, str, str], b: tuple[int, str, str], clis, path: str) -> list[str]:
    """One line per report key that differs between two runs' outputs; one line
    in all when only the values of as many mixed points differ."""
    if a[0] != 0 or b[0] != 0:
        return [f"exit {a[0]} {a[2].strip()!r} -> exit {b[0]} {b[2].strip()!r}"]
    da, db = json.loads(a[1]), json.loads(b[1])
    pa, pb = da["mixed_points"], db.get("mixed_points", [])
    rest_a, rest_b = ({key: v for key, v in d.items() if key != "mixed_points"} for d in (da, db))
    if rest_a == rest_b and 0 < len(pa) == len(pb):
        dx = max(abs(x - y) for x, y in zip(pa, pb))
        res = [largest_residual(cli, path, pts) for cli, pts in zip(clis, (pa, pb))]
        return [f"mixed_points only: largest |dx| {dx:.3g}, "
                f"largest |w - r_tilde| {res[0]:.3g} -> {res[1]:.3g}"]
    lines = [f"{key}: {da[key]} -> {db[key]}" for key in da
             if key != "diagnostics" and da[key] != db.get(key)]
    rows_a = {d["n0"]: d for d in da["diagnostics"]}
    rows_b = {d["n0"]: d for d in db["diagnostics"]}
    for label, rows in (("only in first", [rows_a[n] for n in rows_a if n not in rows_b]),
                        ("only in second", [rows_b[n] for n in rows_b if n not in rows_a]),
                        ("changed", [(rows_a[n], rows_b[n]) for n in rows_a
                                     if n in rows_b and rows_a[n] != rows_b[n]])):
        if rows:
            lines.append(f"diagnostics {label}: {rows}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trees", nargs=2, help="two src/ directories, the first the base")
    ap.add_argument("--n", type=int, default=400, help="instances (default 400)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    clis = [load(src).cli for src in args.trees]
    rng = np.random.default_rng(args.seed)
    same = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        for i in range(args.n):
            doc, rates = instance(rng, KINDS[i % len(KINDS)])
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            top = doc["reward"] * rates[-1]
            x_min = float(rng.uniform(0.01, top + 2.0))
            shown = False
            for spec in (None, f"{x_min!r}:{x_min + float(rng.uniform(0.05, 40.0))!r}",
                         f"0.000001:{top + 5.0!r}"):
                argv = ["equilibria", "--instance", path, *(["--mixed-range", spec] if spec else [])]
                a, b = (run(cli, argv) for cli in clis)
                total += 1
                if a == b:
                    same += 1
                    continue
                if not shown:
                    print(f"instance {i} ({KINDS[i % len(KINDS)]}): {json.dumps(doc)}")
                    shown = True
                print(f"  --mixed-range {spec}" if spec else "  no --mixed-range")
                for line in differences(a, b, clis, path):
                    print("    " + line)
    print(f"{same} of {total} queries identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
