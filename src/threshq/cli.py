"""Command-line front end: delay tables, equilibrium reports, sweeps, simulation.

Exit codes: 0 success, 2 malformed input, 3 property violation (coupling).

The argument parser is built once per process, on the first ``main`` call,
and reused: building it costs more than a small query's solve, and parsing
leaves no state in it. Importing this module builds nothing.

Output goes to stdout or, with --out DIR, to files in DIR; an --out that
cannot be written is malformed input. The delay table streams to its target
in blocks of rows, so a run's memory follows the table and not its text. The
other CSVs go through ``_csv``: each column's format is declared once, by its name,
in ``_SPECS``, and each block of _BLOCK_ROWS rows is formatted by one %
over the line template those formats make, so a run's memory holds one
block's text. The equilibria report is written from fixed templates
(``_json_report``), the one owner of its JSON layout; its bytes are those
json.dumps(indent=2) writes for the same keys and values. Oracle tests in
tests/test_writers.py pin the bytes of both.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import re
import sys

from . import delay as delay_mod
from . import equilibrium as eq_mod
from . import sim as sim_mod
from .model import (EconomicParams, InstanceError, _finite, check_cells, check_table_size,
                    load_instance, strategy_from_x)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VIOLATION = 3


# rows per % format of a CSV: a block's text is held, never the file's
_BLOCK_ROWS = 256
# the % conversion of a CSV column or k=v value, by its name: counts and flags in
# full (a pure_n0 sweep's n0 is an integral float), table1's lists of pure
# thresholds as text and its rewards and bounds as %g; any other is a real, "%.17g"
_SPECS = {**dict.fromkeys(("n", "n0", "samples", "replications", "violations",
                           "equilibrium_hit", "is_equilibrium", "degenerate_ci"), "%d"),
          "below_T": "%s", "above_T": "%s", "R": "%g", "L": "%g", "U": "%g"}


def _csv(header, rows):
    """CSV text chunks: the header line, then the rows, each block of at most
    _BLOCK_ROWS rows formatted by one % over the line template that the
    column names give through _SPECS."""
    line = ",".join([_SPECS.get(name, "%.17g") for name in header]) + "\n"
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while block := list(itertools.islice(rows, _BLOCK_ROWS)):
        yield line * len(block) % tuple(itertools.chain.from_iterable(block))


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


def _rewards(spec: str) -> list[float]:
    """The --table1 rewards: a comma-separated list of finite numbers; blank items are skipped."""
    rewards = []
    for item in filter(str.strip, spec.split(",")):
        try:
            value = float(item)
        except ValueError:
            raise InstanceError(f"--table1 reward must be a number, got {item!r}") from None
        rewards.append(_finite(value, "--table1 reward"))
    if not rewards:
        raise InstanceError(f"--table1 lists no reward, got {spec!r}")
    return rewards


@contextlib.contextmanager
def _target(outdir: str | None, name: str):
    """stdout, or with --out the file ``name`` in outdir, made with its directory.
    An OSError there ends the command as bad input naming --out."""
    if outdir is None:
        yield sys.stdout
        return
    try:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InstanceError(f"cannot write --out {outdir!r}: {exc}") from None


def _write(outdir: str | None, name: str, chunks) -> None:
    """Write the text chunks to stdout, or with --out to the file ``name`` in outdir."""
    with _target(outdir, name) as fh:
        fh.writelines(chunks)


def _report(outdir: str | None, name: str, row: dict, line: dict) -> None:
    """Print ``line`` as k=v pairs; with --out, first write ``row`` as a one-row CSV."""
    if outdir is not None:
        _write(outdir, name, _csv(row.keys(), [row.values()]))
    print(" ".join(f"{k}={_SPECS.get(k, '%.17g')}" for k in line) % tuple(line.values()))


def _json_value(v) -> str:
    """A number or flag of the report as json.dumps writes it."""
    if v is True or v is False:
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if v != v:
        return "NaN"
    return float.__repr__(v) if abs(v) != math.inf else "Infinity" if v > 0 else "-Infinity"


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of items already in JSON text, laid out as by json.dumps(indent=2)
    at the depth of ``indent``."""
    if not items:
        return "[]"
    inner = ",\n" + indent + "  "
    return "[" + inner[1:] + inner.join(items) + "\n" + indent + "]"


# the report and one diagnostic in the layout json.dumps(..., indent=2) gives their dicts
_REPORT = ('{\n  "pure": %s,\n  "mixed_points": %s,\n  "mixed_intervals": %s,\n'
           '  "range": %s,\n  "diagnostics": %s,\n  "scope": "recurrent-class"\n}\n')
_DIAGNOSTIC = "{\n" + ",\n".join(f'      "{key}": %s'
                                  for key in eq_mod.CandidateDiagnostic._fields) + "\n    }"


def _json_report(report: eq_mod.EquilibriumReport) -> str:
    """The report as JSON text and a newline, laid out as by json.dumps(indent=2)."""
    num = _json_value
    return _REPORT % (
        _json_list([num(k) for k in report.pure_equilibria], "  "),
        _json_list([num(x) for x in report.mixed_points], "  "),
        _json_list([_json_list([num(a), num(b)], "    ") for a, b in report.mixed_intervals], "  "),
        _json_list([num(x) for x in report.candidate_range], "  "),
        _json_list([_DIAGNOSTIC % tuple(map(num, d)) for d in report.diagnostics], "  "))


def cmd_delay(args, params, policy) -> int:
    # the balk state is ceil(x); check it before building a strategy that long
    check_table_size(args.x, "x")
    strategy = strategy_from_x(args.x)
    table = delay_mod.solve_delay_table(policy, strategy, params)
    with _target(args.out, "delay_table.csv") as fh:
        table.to_csv(fh)
    if args.out is not None:
        _write(args.out, "arrival_delay.csv",
               _csv(("n", "W"), enumerate(table.arrival_delays.tolist())))
    return EXIT_OK


def cmd_equilibria(args, params, policy) -> int:
    if args.table1:
        if args.mixed_range:
            raise InstanceError("--table1 takes no --mixed-range")
        rewards = _rewards(args.table1)
        if policy.threshold_form is None:
            raise InstanceError("--table1 requires a two-rate threshold policy")
        # the largest reward has the longest scan: refuse it before any other check
        eq_mod.pure_candidates(EconomicParams(params.arrival_rate, max(rewards),
                                              params.wait_cost), policy)
        T, mu_l, mu_h = policy.threshold_form
        instances = [EconomicParams(params.arrival_rate, R, params.wait_cost) for R in rewards]
        rows = []
        for R, p, pure in zip(rewards, instances, eq_mod.pure_equilibria(policy, instances)):
            L, U = max((p.r_tilde - 1.0 / mu_h) * mu_l, T + 1.0), max(p.r_tilde * mu_h, T + 1.0)
            rows.append((R, ";".join(str(k) for k in pure if k <= T),
                         ";".join(str(k) for k in pure if k > T), L, U))
        _write(args.out, "table1.csv", _csv(("R", "below_T", "above_T", "L", "U"), rows))
        return EXIT_OK
    mixed = _parse_range(args.mixed_range) if args.mixed_range else None
    if mixed:
        if mixed[2] is not None:
            raise InstanceError(f"bad --mixed-range {args.mixed_range!r}; expected a:b, with no step")
        if not 0.0 < mixed[0] < mixed[1]:
            raise InstanceError(f"bad --mixed-range {args.mixed_range!r}; expected 0 < a < b")
        check_table_size(mixed[1], "--mixed-range")
    report = eq_mod.find_equilibria(params, policy, mixed[:2] if mixed else None)
    if args.out is not None:
        _write(args.out, "diagnostics.csv", _csv(eq_mod.CandidateDiagnostic._fields, report.diagnostics))
    sys.stdout.write(_json_report(report))
    return EXIT_OK


def cmd_sweep(args, params, policy) -> int:
    a, b, step = _parse_range(args.range)
    check_table_size(b, "range end")
    if args.kind == "pure_n0":
        if step is not None or not (a.is_integer() and b.is_integer()) or a < 1.0:
            raise InstanceError(f"bad --range {args.range!r}; pure_n0 expects integers "
                                "1 <= a <= b, with no step")
        key, rows = "n0", eq_mod.sweep_mixed(params, policy, a, b, 1.0)
    else:
        if step is None:
            raise InstanceError(f"bad --range {args.range!r}; mixed_x expects a:b:step")
        key, rows = "x", eq_mod.sweep_mixed(params, policy, a, b, step)
        if not rows:
            raise InstanceError(f"bad --range {args.range!r}; mixed_x has no grid point above 0")
    _write(args.out, f"sweep_{args.kind}.csv", _csv((key, "W", "equilibrium_hit"), rows))
    return EXIT_OK


def cmd_simulate(args, params, policy) -> int:
    check_table_size(args.x, "x")
    check_cells(args.reps, "--reps")
    strategy = strategy_from_x(args.x)
    config = sim_mod.SimConfig(args.seed, args.reps, params, policy, strategy)
    est = sim_mod.simulate_sojourn(config, args.n)
    table = delay_mod.solve_delay_table(policy, strategy, params)
    record = {"mean": est.mean, "half_width_95": est.half_width_95, "samples": est.samples,
              "analytic": float(table.arrival_delays[args.n])}
    flag = {"degenerate_ci": True} if args.reps == 1 else {}
    _report(args.out, "simulate.csv", {"n": args.n, **record}, {**record, **flag})
    return EXIT_OK


def cmd_verify_coupling(args, params, policy) -> int:
    if args.x is None and args.n0 < 0:
        raise InstanceError(f"--n0 must be nonnegative, got {args.n0}")
    x = args.x if args.x is not None else _finite(args.n0, "--n0")  # an int past any float is inf
    # ceil(x) is the balk state, held to the budget of every other command
    check_table_size(x, "x")
    check_cells(args.reps * (args.n + 1), "--reps x (n + 1)")
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


def _command(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A subcommand that ``main`` runs as ``cmd_<name>(args, params, policy)`` on its --instance."""
    p = sub.add_parser(name, help=help)
    # a value may start with '-' (-1:3, -1e5, -inf), not only plain negative numbers
    p._negative_number_matcher = re.compile(r"-[^-]")
    p.add_argument("--instance", required=True)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by later ones.

    Building it (6 parsers, a help formatter per argument) takes about 1 ms;
    ``parse_args`` leaves it unchanged and every default is immutable, so
    reuse changes no output. It holds command names, not functions. Do not
    change the shared parser; ``build_parser.__wrapped__()`` builds a fresh one.
    """
    ap = argparse.ArgumentParser(prog="threshq",
                                 description="Threshold equilibria in observable queues "
                                             "with state-dependent service rates")
    sub = ap.add_subparsers(dest="command", required=True)

    d = _command(sub, "delay", "solve and emit the delay table")
    d.add_argument("--x", type=float, required=True, help="joining threshold")

    e = _command(sub, "equilibria", "enumerate threshold equilibria")
    e.add_argument("--table1", default=None, help="comma-separated reward list")
    e.add_argument("--mixed-range", default=None, help="a:b search range for mixed equilibria")

    s = _command(sub, "sweep", "marginal-delay sweep as CSV")
    s.add_argument("--kind", choices=["pure_n0", "mixed_x"], required=True)
    s.add_argument("--range", required=True, help="a:b[:step]")

    m = _command(sub, "simulate", "Monte Carlo sojourn estimate vs analytic")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--x", type=float, required=True, help="joining threshold")

    c = _command(sub, "verify-coupling", "check the pathwise sojourn ordering")
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
    args.out = args.out or None  # an empty --out is absent
    # looked up per call, so a name rebound after the parser was built is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        params, policy = load_instance(args.instance)
        return command(args, params, policy)
    except ValueError as exc:  # InstanceError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
