"""The CLI's writers against the oracles in tests/_oracles.py, byte for byte,
and the memory the delay and sweep CSVs hold while they are written."""
import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings, strategies as st

from threshq import cli, delay
from threshq.delay import DelayTable, solve_delay_table
from threshq.equilibrium import CandidateDiagnostic, EquilibriumReport
from threshq.model import EconomicParams, ServiceRatePolicy, strategy_from_x

from _oracles import dumps_report, loop_delay_csv, typed_csv
from conftest import written_csv

WRITERS = settings(max_examples=150, deadline=None, derandomize=True)

rates = st.floats(0.1, 10.0)
policies = st.one_of(
    st.builds(lambda T, lo, step: ServiceRatePolicy.two_rate(T, lo, lo + step),
              st.integers(1, 70), rates, rates),
    st.builds(lambda rs: ServiceRatePolicy(tuple(sorted(rs)[:-1]), sorted(rs)[-1]),
              st.lists(rates, min_size=1, max_size=8)))
# pure (integer) and mixed thresholds, balk states 0..60
thresholds = st.one_of(st.integers(0, 60).map(float), st.floats(0.0, 60.0))

special_reals = st.sampled_from([-0.0, 0.0, 1e-7, 1e16, 5e-324, math.nan, math.inf, -math.inf])
reals = st.one_of(special_reals, st.floats(allow_nan=True, allow_infinity=True))
ints = st.one_of(st.integers(0, 3161), st.integers(-2 ** 70, 2 ** 70),
                 st.sampled_from([2 ** 53 + 1, -(2 ** 53) - 1, 2 ** 64]))
diagnostics = st.builds(CandidateDiagnostic, ints, reals, reals, reals, st.booleans())
reports = st.builds(EquilibriumReport, st.lists(ints, max_size=5),
                    st.lists(reals, max_size=5), st.lists(st.tuples(reals, reals), max_size=3),
                    st.tuples(reals, reals), st.lists(diagnostics, max_size=4))
# a table's length: around one and two blocks (capped, so a larger block
# cannot make the inputs huge), or one row for simulate.csv and coupling.csv
BLOCK = min(cli._BLOCK_ROWS, 4096)
lengths = st.one_of(st.integers(0, 2 * BLOCK + 2),
                    st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1]))
pure_lists = st.lists(st.integers(0, 3161), max_size=3).map(lambda ks: ";".join(map(str, ks)))


def g_strings(row):
    """A table1 row as the CLI built it before its formats were declared per
    column: R, L and U as f"{v:g}" strings."""
    R, below, above, L, U = row
    return f"{R:g}", below, above, f"{L:g}", f"{U:g}"


def cli_table(header, *columns, length=lengths, oracle_row=tuple):
    """(header, rows, the rows as typed_csv takes them) of a table the CLI
    writes: a few rows drawn from the column strategies, repeated to a length."""
    def table(rows, n):
        rows = (rows * n)[:n]
        return header, rows, [oracle_row(row) for row in rows]
    return st.builds(table, st.lists(st.tuples(*columns), min_size=1, max_size=3), length)


# the seven tables of the CLI's --out files, each with its header and column types
cli_tables = st.one_of(
    cli_table(("n0", "W", "equilibrium_hit"), st.integers(1, 2 ** 53).map(float), reals,
              st.booleans()),
    cli_table(("x", "W", "equilibrium_hit"), reals, reals, st.booleans()),
    cli_table(("n", "W"), ints, reals),
    cli_table(CandidateDiagnostic._fields, ints, reals, reals, reals, st.booleans()),
    cli_table(("n", "mean", "half_width_95", "samples", "analytic"), ints, reals, reals, ints,
              reals, length=st.just(1)),
    cli_table(("replications", "violations", "max_violation", "mean_last_gap"), ints, ints, reals,
              reals, length=st.just(1)),
    cli_table(("R", "below_T", "above_T", "L", "U"), reals, pure_lists, pure_lists, reals, reals,
              oracle_row=g_strings))


@WRITERS
@given(policies, thresholds, st.floats(0.1, 5.0))
def test_delay_csv_matches_loop_oracle(policy, x, lam):
    table = solve_delay_table(policy, strategy_from_x(x), EconomicParams(lam, 1.0, 1.0))
    assert written_csv(table) == loop_delay_csv(table)


def hand_built(n0, runs):
    """DelayTable(n0, entries, arrival_delays) whose entries W(n, m), read
    n-major, are the runs (value, length) tiled over the triangle
    0 <= n < m <= n0; the arrival delays, which no CSV of the table reads, are NaN."""
    mask = np.arange(n0 + 1) > np.arange(max(n0, 1))[:, None]
    entries = np.full(mask.shape, np.nan)
    entries[mask] = np.resize([v for v, k in runs for _ in range(k)], mask.sum())
    return DelayTable(n0, entries, np.full(n0 + 1, np.nan))


@WRITERS
@given(st.builds(hand_built, st.one_of(st.integers(0, 12), st.integers(60, 90)),
                 st.lists(st.tuples(reals, st.integers(1, 300)), min_size=1, max_size=12)))
@example(hand_built(0, [(1.0, 1)]))
@example(hand_built(1, [(2.5, 1)]))
@example(hand_built(2, [(0.5, 1), (0.75, 1), (1.0, 1)]))
@example(hand_built(4, [(1.5, 6), (2.5, 4)]))  # the 1.5 run crosses from row 0 into row 1
@example(hand_built(3, [(-0.0, 2), (0.0, 2), (-0.0, 2)]))
@example(hand_built(3, [(math.nan, 2), (-math.nan, 2), (math.inf, 1), (-math.inf, 1)]))
@example(hand_built(5, [(0.25, 4), (0.5, 1), (0.75, 10)]))  # run ends one entry before row 0's end
@example(hand_built(70, [(1.0 + 2.0 ** -52, 1), (1.0, 1)]))  # no repeats, and more than one block
# runs over many rows, one across a block edge
@example(hand_built(70, [(-0.0, 1000), (0.0, 1415)]))
def test_delay_csv_of_hand_built_tables_matches_loop_oracle(table):
    """Runs of equal bits, of -0.0 and 0.0, of NaN and infinities, within and
    across rows and blocks, write the bytes of one f-string per entry."""
    assert written_csv(table) == loop_delay_csv(table)


@WRITERS
@given(reports)
def test_report_matches_json_dumps(report):
    assert cli._json_report(report) == dumps_report(report)


@WRITERS
@given(cli_tables)
def test_csv_matches_typed_oracle(table):
    header, rows, oracle_rows = table
    assert "".join(cli._csv(header, rows)) == typed_csv(header, oracle_rows)


def test_delay_csv_streams_row_by_row(tmp_path, monkeypatch):
    """`delay --x 400 --out` adds under a tenth of its 2.1 MB CSV to the memory
    it holds once the table is solved: no writer may build the whole text."""
    path = tmp_path / "case.json"
    path.write_text('{"lambda": 3.0, "reward": 8.5, "wait_cost": 1.0, '
                    '"policy": {"T": 23, "mu_low": 2.0, "mu_high": 5.0}}')
    solve, solved = delay.solve_delay_table, []

    def solve_then_reset_peak(*args):
        table = solve(*args)
        tracemalloc.reset_peak()
        solved.append(tracemalloc.get_traced_memory()[0])
        return table

    monkeypatch.setattr(delay, "solve_delay_table", solve_then_reset_peak)
    tracemalloc.start()
    try:
        code = cli.main(["delay", "--instance", str(path), "--x", "400",
                         "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "out" / "delay_table.csv").stat().st_size
    assert code == 0 and len(solved) == 1 and size > 2_000_000
    assert peak - solved[0] < size / 10


def test_sweep_csv_holds_one_block(tmp_path):
    """Writing a sweep of 10^5 rows (about 3.8 MB of CSV) through cli._csv adds
    under a tenth of its size to the memory the rows hold: no % may format
    the whole sweep."""
    x = 1.0 + 1e-3 * np.arange(100_000)
    w = np.sqrt(x) / 3.0
    rows = list(zip(x.tolist(), w.tolist(), (w > 2.0).tolist()))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cli._write(str(tmp_path), "sweep_mixed_x.csv", cli._csv(("x", "W", "equilibrium_hit"), rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "sweep_mixed_x.csv").stat().st_size
    assert size > 3_500_000
    assert peak - start < size / 10
