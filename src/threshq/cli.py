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


def _cell(v) -> str:
    """One output value: text as given, a flag as 0/1, an int in full, a real
    to 17 significant digits."""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return str(int(v))
    return str(v) if isinstance(v, int) else f"{v:.17g}"


def _csv(header, rows) -> str:
    """CSV text: one header line of names, then one line per row."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in (header, *rows))


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
    if a > b:
        raise InstanceError(f"bad range {spec!r}; expected a <= b")
    if step is not None and step <= 0.0:
        raise InstanceError("range step must be positive")
    return a, b, step


def _check_work(top: float, what: str) -> None:
    """Reject a command before any solve when the largest balk state it
    solves for, ceil(top), has a full table over delay.MAX_TABLE_CELLS."""
    if not math.isfinite(top):
        raise InstanceError(f"{what} must be finite")
    delay_mod.check_table_size(math.ceil(top))


def _check_cells(cells: int, what: str) -> None:
    """Reject a simulation whose arrays would hold over delay.MAX_TABLE_CELLS values."""
    if cells > delay_mod.MAX_TABLE_CELLS:
        raise InstanceError(f"{what} is {cells}, over the limit of {delay_mod.MAX_TABLE_CELLS}")


def _write(outdir: str | None, name: str, text: str) -> None:
    if outdir is None:
        sys.stdout.write(text)
    else:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(outdir: str | None, name: str, row: dict, line: dict) -> None:
    """Print ``line`` as k=v pairs; with --out, also write ``row`` as a one-row CSV."""
    print(" ".join(f"{k}={_cell(v)}" for k, v in line.items()))
    if outdir:
        _write(outdir, name, _csv(row.keys(), [row.values()]))


def cmd_delay(args, params, policy) -> int:
    if args.x < 0:
        raise InstanceError("x must be nonnegative")
    # the balk state is ceil(x); check it before building a strategy that long
    _check_work(args.x, "x")
    strategy = strategy_from_x(args.x)
    table = delay_mod.solve_delay_table(policy, strategy, params)
    _write(args.out, "delay_table.csv", table.to_csv())
    if args.out is not None:
        _write(args.out, "arrival_delay.csv", _csv(("n", "W"), (
            (n, delay_mod.arrival_delay(table, policy, n)) for n in range(table.n0 + 1))))
    return EXIT_OK


def cmd_equilibria(args, params, policy) -> int:
    if args.table1:
        rewards = [_finite(r, "--table1 reward") for r in args.table1.split(",") if r.strip()]
        if policy.threshold_form is None:
            raise InstanceError("--table1 requires a two-rate threshold policy")
        # the scan of reward R ends at floor(R / C * M + TOL_EQ)
        top = max(rewards, default=0.0) / params.wait_cost * policy.max_rate
        _check_work(top + eq_mod.TOL_EQ, "r_tilde * M")
        T = policy.threshold_form[0]
        rows = []
        for R in rewards:
            p = EconomicParams(params.arrival_rate, R, params.wait_cost)
            rep = eq_mod.enumerate_pure_equilibria(p, policy)
            pure, (L, U) = rep.pure_equilibria, rep.candidate_range
            rows.append((f"{R:g}", ";".join(str(k) for k in pure if k <= T),
                         ";".join(str(k) for k in pure if k > T), f"{L:g}", f"{U:g}"))
        _write(args.out, "table1.csv", _csv(("R", "below_T", "above_T", "L", "U"), rows))
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
        _write(args.out, "diagnostics.csv", _csv(eq_mod.DIAGNOSTIC_KEYS, report.diagnostics))
    return EXIT_OK


def cmd_sweep(args, params, policy) -> int:
    a, b, step = _parse_range(args.range)
    _check_work(b, "range end")
    if args.kind == "pure_n0":
        if step is not None or not (a.is_integer() and b.is_integer()):
            raise InstanceError(f"bad --range {args.range!r}; pure_n0 expects integers a:b, "
                                "with no step")
        key, rows = "n0", eq_mod.sweep_pure(params, policy, int(a), int(b))
    else:
        if step is None:
            raise InstanceError("mixed_x sweep needs a:b:step")
        key, rows = "x", eq_mod.sweep_mixed(params, policy, a, b, step)
    _write(args.out, f"sweep_{args.kind}.csv", _csv((key, "W", "equilibrium_hit"), rows))
    return EXIT_OK


def cmd_simulate(args, params, policy) -> int:
    _check_work(args.x, "x")
    _check_cells(args.reps, "--reps")
    strategy = strategy_from_x(args.x)
    config = sim_mod.SimConfig(args.seed, args.reps, params, policy, strategy)
    est = sim_mod.simulate_sojourn(config, args.n)
    table = delay_mod.solve_delay_table(policy, strategy, params)
    record = {"mean": est.mean, "half_width_95": est.half_width_95, "samples": est.samples,
              "analytic": delay_mod.arrival_delay(table, policy, args.n)}
    flag = {"degenerate_ci": True} if args.reps == 1 else {}
    _report(args.out, "simulate.csv", {"n": args.n, **record}, {**record, **flag})
    return EXIT_OK


def cmd_verify_coupling(args, params, policy) -> int:
    x = args.x if args.x is not None else float(args.n0)
    # ceil(x) is the balk state, and so the width of the coupling's queues
    _check_work(x, "x")
    _check_cells(args.reps * (args.n + 1), "--reps x (n + 1)")
    strategy = strategy_from_x(x)
    if strategy.balk_state != args.n0:
        raise InstanceError("x inconsistent with n0")
    config = sim_mod.SimConfig(args.seed, args.reps, params, policy, strategy)
    outcome = sim_mod.run_coupling(config, args.n)
    record = {"replications": args.reps, "violations": outcome.violation_count,
              "max_violation": outcome.max_violation,
              "mean_last_gap": float((outcome.t_b[:, -1] - outcome.t_a[:, -1]).mean())}
    _report(args.out, "coupling.csv", record, record)
    return EXIT_VIOLATION if record["violations"] > 0 else EXIT_OK


def _command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """A subcommand that runs ``func(args, params, policy)`` on its --instance."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="threshq",
                                 description="Threshold equilibria in observable queues "
                                             "with state-dependent service rates")
    sub = ap.add_subparsers(dest="command", required=True)

    d = _command(sub, "delay", cmd_delay, "solve and emit the delay table")
    d.add_argument("--x", type=float, required=True, help="joining threshold")

    e = _command(sub, "equilibria", cmd_equilibria, "enumerate threshold equilibria")
    e.add_argument("--table1", default=None, help="comma-separated reward list")
    e.add_argument("--mixed-range", default=None, help="a:b search range for mixed equilibria")

    s = _command(sub, "sweep", cmd_sweep, "marginal-delay sweep as CSV")
    s.add_argument("--kind", choices=["pure_n0", "mixed_x"], required=True)
    s.add_argument("--range", required=True, help="a:b[:step]")

    m = _command(sub, "simulate", cmd_simulate, "Monte Carlo sojourn estimate vs analytic")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--x", type=float, required=True, help="joining threshold")

    c = _command(sub, "verify-coupling", cmd_verify_coupling,
                 "check the pathwise sojourn ordering")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--n0", type=int, required=True)
    c.add_argument("--x", type=float, default=None, help="mixed threshold (default: pure n0)")

    for p in (m, c):
        p.add_argument("--reps", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=0)
    for p in (d, e, s, m, c):
        p.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params, policy = load_instance(args.instance)
        return args.func(args, params, policy)
    except ValueError as exc:  # InstanceError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
