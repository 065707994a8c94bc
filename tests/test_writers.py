"""The CLI's writers against the oracles in tests/_oracles.py, byte for byte,
and the memory the delay and sweep CSVs hold while they are written."""
import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings, strategies as st

from threshq import cli, delay
from threshq.delay import solve_delay_table
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
cells = st.one_of(st.text(max_size=6), st.booleans(), ints, reals)
# the CLI's row types: a sweep (x, W, equilibrium_hit), the arrival CSV (n, W)
# and the diagnostics (n0, W_marginal, lower_bound, upper_bound, is_equilibrium)
TABLE_ROWS = ((reals, reals, st.booleans()), (ints, reals),
              (ints, reals, reals, reals, st.booleans()))
# a run: a few rows of one type tuple, repeated to a length on either side of
# one or two blocks (capped, so a larger block cannot make the inputs huge)
BLOCK = min(cli._BLOCK_ROWS, 4096)
typed_run = st.sampled_from(TABLE_ROWS).flatmap(lambda kinds: st.builds(
    lambda rows, n: (rows * n)[:n], st.lists(st.tuples(*kinds), min_size=1, max_size=3),
    st.one_of(st.integers(0, 2 * BLOCK + 2), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1]))))
# files of one to three runs, so the types may change within a block
typed_runs = st.lists(typed_run, min_size=1, max_size=3).map(lambda runs: sum(runs, []))


@WRITERS
@given(policies, thresholds, st.floats(0.1, 5.0))
def test_delay_csv_matches_loop_oracle(policy, x, lam):
    table = solve_delay_table(policy, strategy_from_x(x), EconomicParams(lam, 1.0, 1.0))
    assert written_csv(table) == loop_delay_csv(table)


@WRITERS
@given(reports)
def test_report_matches_json_dumps(report):
    assert cli._json_report(report) == dumps_report(report)


@WRITERS
@given(st.lists(st.text(max_size=6), max_size=4),
       st.one_of(st.lists(st.lists(cells, max_size=6), max_size=5), typed_runs))
@example(["x", "W", "equilibrium_hit"],  # one block, then a run that starts inside the next
         [(0.5, 1.25, True)] * (BLOCK + 1) + [(3, 0.5)] * BLOCK)
@example(["n0"], [(1.0, 2.0), (3.0,), (4.0, 5.0, 6.0)])  # same cell types, ragged rows
@example([], [(1, 0.1, 0.2, 0.3, False), (1, 0.1, 0.2, 0.3, 0)])  # a bool, then an int
def test_csv_matches_typed_oracle(header, rows):
    assert "".join(cli._csv(header, rows)) == typed_csv(header, rows)


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
