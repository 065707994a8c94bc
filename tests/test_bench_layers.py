"""Every row of bench/layers.py builds and runs on the threshq under test,
so a change to src/ that breaks a row fails here; and two trees are timed
row by row, back to back, with one ratio per row."""
import os
import sys

import threshq
import threshq.cli  # noqa: F401  the rows reach cli as an attribute of threshq

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import layers  # noqa: E402

ROWS = [
    "solve_delay_table.n0_25.s", "solve_delay_table.n0_100.s", "solve_delay_table.n0_300.s",
    "solve_delay_table.n0_1000.s", "marginal_delays.spread_k4_1_140.s",
    "find_equilibria.mixed_k_25.s", "find_equilibria.mixed_k_45.s",
    "find_equilibria.mixed_wide.s", "find_equilibria.pure.rM_60.s",
    "find_equilibria.pure.rM_200.s", "find_equilibria.pure.case_study.s",
    "find_equilibria.pure.two_rate_rM_300.s", "sweep_mixed.24_46.s",
    "find_equilibria.mixed_24_46.s", "find_equilibria.pure.slow_first_rate_3161.s",
    "build_parser.s", "main.equilibria.case_study.s", "cli.table1_case_study.s",
    "main.delay_out.spread_265.s",
    "delay_csv.n0_266.s", "delay_csv.spread_265.s", "delay_csv.rising_300.s",
    "arrival_csv.n0_266.s", "report.mixed_24_46.s", "sweep_csv.pure_n0_1_140.s",
    "sweep_csv.mixed_24_50.s", "run_coupling.n0_5.s", "run_coupling.n0_200_n_2.s",
    "run_coupling.case_study_n0_24.s", "run_coupling.case_study_n0_15_n7.s",
    "run_coupling.general_n0_19_n9.s", "run_coupling.general_x_10_5_n5.s",
    "simulate_sojourn.case_study_n0_26.s", "simulate_sojourn.case_study_x24_5_n12_1e6.s",
    "simulate_sojourn.general_n0_101.s",
]


def test_every_row_runs_once(tmp_path):
    calls = layers.rows(threshq, str(tmp_path))
    assert list(calls) == ROWS
    for call in calls.values():
        call()
    # the counter patches the marginal_delays that the search calls
    assert layers.solves(threshq, calls["find_equilibria.mixed_24_46.s"]) > 0


def test_two_trees_time_each_row_back_to_back(monkeypatch):
    """Each round times a row on both trees before the next row, the first tree
    alternating by round; the second tree's ratio per row is the median of its
    per-round ratios to the first. Tree "A" reads 1 s per row and "B" 2 s."""
    timed = []

    def fake_rows(tq, tmp):
        return {name: (lambda tq=tq, name=name: timed.append((tq, name)) or
                       {"A": 1.0, "B": 2.0}[tq])
                for name in ("x.s", "find_equilibria.mixed_24_46.s")}
    monkeypatch.setattr(layers, "load", lambda src: src)
    monkeypatch.setattr(layers, "rows", fake_rows)
    monkeypatch.setattr(layers, "solves", lambda tq, fn: 0)
    monkeypatch.setattr(layers, "seconds", lambda fn: fn())
    out = layers.main(["A", "B"])
    assert timed == [(tq, name) for r in range(layers.ROUNDS)
                     for name in ("x.s", "find_equilibria.mixed_24_46.s")
                     for tq in ("AB" if r % 2 == 0 else "BA")]
    assert "ratios" not in out["trees"]["A"]
    assert out["trees"]["B"]["ratios"] == {"x.s": 2.0, "find_equilibria.mixed_24_46.s": 2.0}
