"""Command-line front end: delay tables, equilibrium reports, sweeps, simulation.

Exit codes: 0 success, 2 malformed input, 3 property violation (coupling).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import delay as delay_mod
from . import equilibrium as eq_mod
from . import sim as sim_mod
from .model import EconomicParams, InstanceError, _finite, load_instance, strategy_from_x

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VIOLATION = 3


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _parse_range(spec: str) -> tuple[float, float, float | None]:
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise InstanceError(f"bad range {spec!r}; expected a:b or a:b:step")
    try:
        a, b = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise InstanceError(f"bad range {spec!r}") from None
    if not all(math.isfinite(v) for v in (a, b, step or 1.0)):
        raise InstanceError(f"bad range {spec!r}; bounds and step must be finite")
    if step is not None and step <= 0.0:
        raise InstanceError("range step must be positive")
    return a, b, step


def _check_work(top: float, what: str) -> None:
    """Reject a command before any solve when the largest balk state it
    solves for, ceil(top), has a full table over delay.MAX_TABLE_CELLS."""
    if not math.isfinite(top):
        raise InstanceError(f"{what} must be finite")
    delay_mod.check_table_size(math.ceil(top))


def _write(outdir: str | None, name: str, text: str) -> None:
    if outdir is None:
        sys.stdout.write(text)
    else:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_delay(args) -> int:
    params, policy = load_instance(args.instance)
    if args.x < 0:
        raise InstanceError("x must be nonnegative")
    # the balk state is ceil(x); check it before building a strategy that long
    _check_work(args.x, "x")
    strategy = strategy_from_x(args.x)
    table = delay_mod.solve_delay_table(policy, strategy, params)
    _write(args.out, "delay_table.csv", table.to_csv())
    lines = ["n,W"]
    for nn in range(table.n0 + 1):
        lines.append(f"{nn},{_fmt(delay_mod.arrival_delay(table, policy, nn))}")
    arrival_csv = "\n".join(lines) + "\n"
    if args.out is not None:
        _write(args.out, "arrival_delay.csv", arrival_csv)
    return EXIT_OK


def _set_str(values) -> str:
    return ";".join(str(v) for v in values)


def cmd_equilibria(args) -> int:
    params, policy = load_instance(args.instance)
    if args.table1:
        rewards = [_finite(r, "--table1 reward") for r in args.table1.split(",") if r.strip()]
        lines = ["R,below_T,above_T,L,U"]
        if policy.threshold_form is None:
            raise InstanceError("--table1 requires a two-rate threshold policy")
        # the scan of reward R ends at floor(R / C * M + TOL_EQ)
        top = max(rewards, default=0.0) / params.wait_cost * policy.max_rate
        _check_work(top + eq_mod.TOL_EQ, "r_tilde * M")
        T = policy.threshold_form[0]
        for R in rewards:
            p = EconomicParams(params.arrival_rate, R, params.wait_cost)
            rep = eq_mod.enumerate_pure_equilibria(p, policy)
            below = [k for k in rep.pure_equilibria if k <= T]
            above = [k for k in rep.pure_equilibria if k > T]
            L, U = rep.candidate_range
            lines.append(f"{R:g},{_set_str(below)},{_set_str(above)},{L:g},{U:g}")
        _write(args.out, "table1.csv", "\n".join(lines) + "\n")
        return EXIT_OK
    mixed = _parse_range(args.mixed_range) if args.mixed_range else None
    if mixed and mixed[2] is not None:
        raise InstanceError(f"bad --mixed-range {args.mixed_range!r}; expected a:b, with no step")
    top = params.r_tilde * policy.max_rate + eq_mod.TOL_EQ
    _check_work(max(top, mixed[1]) if mixed else top, "r_tilde * M")
    report = eq_mod.enumerate_pure_equilibria(params, policy)
    if mixed:
        report.mixed_points, report.mixed_intervals = eq_mod.find_mixed_equilibria(
            params, policy, *mixed[:2])
    sys.stdout.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
    if args.out is not None:
        _write(args.out, "diagnostics.csv", report.diagnostics_csv())
    return EXIT_OK


def cmd_sweep(args) -> int:
    params, policy = load_instance(args.instance)
    a, b, step = _parse_range(args.range)
    _check_work(b, "range end")
    if args.kind == "pure_n0":
        if step is not None or not (a.is_integer() and b.is_integer()):
            raise InstanceError(f"bad --range {args.range!r}; pure_n0 expects integers a:b, "
                                "with no step")
        rows = eq_mod.sweep_pure(params, policy, int(a), int(b))
        lines = ["n0,W,equilibrium_hit"]
        for n0, w, hit in rows:
            lines.append(f"{n0},{_fmt(w)},{int(hit)}")
    else:
        if step is None:
            raise InstanceError("mixed_x sweep needs a:b:step")
        rows = eq_mod.sweep_mixed(params, policy, a, b, step)
        lines = ["x,W,equilibrium_hit"]
        for x, w, hit in rows:
            lines.append(f"{_fmt(x)},{_fmt(w)},{int(hit)}")
    _write(args.out, f"sweep_{args.kind}.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    params, policy = load_instance(args.instance)
    _check_work(args.x, "x")
    strategy = strategy_from_x(args.x)
    config = sim_mod.SimConfig(args.seed, args.reps, params, policy, strategy)
    est = sim_mod.simulate_sojourn(config, args.n)
    table = delay_mod.solve_delay_table(policy, strategy, params)
    analytic = delay_mod.arrival_delay(table, policy, args.n)
    degenerate = args.reps == 1
    print(f"mean={_fmt(est.mean)} half_width_95={_fmt(est.half_width_95)} "
          f"samples={est.samples} analytic={_fmt(analytic)}"
          + (" degenerate_ci=1" if degenerate else ""))
    if args.out:
        _write(args.out, "simulate.csv",
               "n,mean,half_width_95,samples,analytic\n"
               f"{args.n},{_fmt(est.mean)},{_fmt(est.half_width_95)},"
               f"{est.samples},{_fmt(analytic)}\n")
    return EXIT_OK


def cmd_verify_coupling(args) -> int:
    params, policy = load_instance(args.instance)
    x = args.x if args.x is not None else float(args.n0)
    # ceil(x) is the balk state, and so the width of the coupling's queues
    _check_work(x, "x")
    strategy = strategy_from_x(x)
    if strategy.balk_state != args.n0:
        raise InstanceError("x inconsistent with n0")
    config = sim_mod.SimConfig(args.seed, args.reps, params, policy, strategy)
    outcome = sim_mod.run_coupling(config, args.n, args.n0)
    gaps = outcome.t_b[:, -1] - outcome.t_a[:, -1]
    print(f"replications={args.reps} violations={outcome.violation_count} "
          f"max_violation={_fmt(outcome.max_violation)} "
          f"mean_last_gap={_fmt(float(gaps.mean()))}")
    if args.out:
        _write(args.out, "coupling.csv",
               "replications,violations,max_violation,mean_last_gap\n"
               f"{args.reps},{outcome.violation_count},"
               f"{_fmt(outcome.max_violation)},{_fmt(float(gaps.mean()))}\n")
    return EXIT_VIOLATION if outcome.violation_count > 0 else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="threshq",
                                 description="Threshold equilibria in observable queues "
                                             "with state-dependent service rates")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("delay", help="solve and emit the delay table")
    d.add_argument("--instance", required=True)
    d.add_argument("--x", type=float, required=True, help="joining threshold")
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_delay)

    e = sub.add_parser("equilibria", help="enumerate threshold equilibria")
    e.add_argument("--instance", required=True)
    e.add_argument("--table1", default=None, help="comma-separated reward list")
    e.add_argument("--mixed-range", default=None, help="a:b search range for mixed equilibria")
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_equilibria)

    s = sub.add_parser("sweep", help="marginal-delay sweep as CSV")
    s.add_argument("--instance", required=True)
    s.add_argument("--kind", choices=["pure_n0", "mixed_x"], required=True)
    s.add_argument("--range", required=True, help="a:b[:step]")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sweep)

    m = sub.add_parser("simulate", help="Monte Carlo sojourn estimate vs analytic")
    m.add_argument("--instance", required=True)
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--x", type=float, required=True, help="joining threshold")
    m.add_argument("--reps", type=int, default=10_000)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_simulate)

    c = sub.add_parser("verify-coupling", help="check the pathwise sojourn ordering")
    c.add_argument("--instance", required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--n0", type=int, required=True)
    c.add_argument("--x", type=float, default=None, help="mixed threshold (default: pure n0)")
    c.add_argument("--reps", type=int, default=10_000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_verify_coupling)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
