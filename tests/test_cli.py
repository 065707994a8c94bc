import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from threshq import cli, delay, equilibrium, model, sim
from threshq.cli import main
from threshq.model import EconomicParams, ServiceRatePolicy

from _oracles import UnsnappedThreshold, dense_delay_solve


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def constant_instance(tmp_path):
    path = tmp_path / "constant.json"
    path.write_text(json.dumps({
        "lambda": 1.0, "reward": 3.3, "wait_cost": 1.0,
        "policy": {"prefix": [], "tail": 2.0},
    }))
    return path


class TestDelayCommand:
    def test_table_to_stdout(self, capsys, case_study_instance):
        code, out, _ = run_cli(capsys, "delay", "--instance", str(case_study_instance), "--x", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,m,W"
        assert len(lines) == 1 + 6  # entries for n0 = 3

    def test_x1_two_lines(self, capsys, case_study_instance):
        code, out, _ = run_cli(capsys, "delay", "--instance", str(case_study_instance), "--x", "1")
        assert code == 0
        assert out.strip().split("\n") == ["n,m,W", "0,1,0.5"]

    def test_x0_header_only(self, capsys, case_study_instance):
        code, out, _ = run_cli(capsys, "delay", "--instance", str(case_study_instance), "--x", "0")
        assert code == 0
        assert out == "n,m,W\n"

    def test_out_dir_files(self, tmp_path, capsys, case_study_instance):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "delay", "--instance", str(case_study_instance),
                             "--x", "26", "--out", str(out_dir))
        assert code == 0
        table = (out_dir / "delay_table.csv").read_text()
        arrivals = (out_dir / "arrival_delay.csv").read_text()
        assert table.splitlines()[0] == "n,m,W"
        rows = arrivals.strip().splitlines()
        assert rows[0] == "n,W"
        assert len(rows) == 1 + 27  # n = 0..26

    def test_malformed_instance_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lambda": 1.0, "oops": 2}')
        code, _, err = run_cli(capsys, "delay", "--instance", str(bad), "--x", "3")
        assert code == 2
        assert "error" in err


    @pytest.mark.parametrize("field, value", [
        ("lambda", float("inf")), ("tail", float("nan")), ("prefix", float("-inf"))])
    def test_non_finite_instance_exit_2(self, tmp_path, capsys, field, value):
        doc = {"lambda": 1.0, "reward": 3.0, "wait_cost": 1.0,
               "policy": {"prefix": [1.0], "tail": 2.0}}
        if field == "lambda":
            doc["lambda"] = value
        elif field == "tail":
            doc["policy"]["tail"] = value
        else:
            doc["policy"]["prefix"] = [value]
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))  # writes NaN / Infinity, which json.load accepts
        code, out, err = run_cli(capsys, "delay", "--instance", str(path), "--x", "3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [
        ("lambda", True), ("reward", "8.5"), ("prefix", "1.5"), ("lambda", 10**400),
        ("prefix", 10**400), ("T", 10**400)])
    def test_bad_instance_number_exit_2(self, tmp_path, capsys, field, value):
        doc = {"lambda": 3.0, "reward": 8.5, "wait_cost": 1.0,
               "policy": {"prefix": [1.0], "tail": 2.0}}
        if field == "prefix":
            doc["policy"]["prefix"] = [value]
        elif field == "T":
            doc["policy"] = {"T": value, "mu_low": 2.0, "mu_high": 5.0}
        else:
            doc[field] = value
        path = tmp_path / "bad_number.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "delay", "--instance", str(path), "--x", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and field in err and err.count("\n") == 1

    def test_integer_past_digit_limit_exit_2(self, tmp_path, capsys):
        # json.load refuses an integer past Python's digit limit for int()
        path = tmp_path / "long_int.json"
        path.write_text('{"lambda": 3.0, "reward": 8.5, "wait_cost": 1.0, "policy": '
                        '{"T": 23, "mu_low": 2.0, "mu_high": ' + "7" * 5000 + "}}")
        code, out, err = run_cli(capsys, "delay", "--instance", str(path), "--x", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1
        assert "digits" in err and "set_int_max_str_digits" not in err

    def test_non_utf8_instance_exit_2(self, tmp_path, capsys, case_study_instance):
        path = tmp_path / "utf16.json"  # starts with the UTF-16 byte order mark ff fe
        path.write_bytes(case_study_instance.read_text().encode("utf-16"))
        code, out, err = run_cli(capsys, "delay", "--instance", str(path), "--x", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: instance file ") and str(path) in err and "UTF-8" in err
        assert err.count("\n") == 1

    def test_two_rate_T_at_limit_same_bytes(self, tmp_path, capsys, case_study_instance):
        # T = 23 and T = 10**7 both serve states 1..4 at mu_low
        doc = json.loads(case_study_instance.read_text())
        doc["policy"]["T"] = model.MAX_TABLE_CELLS
        path = tmp_path / "T_at_limit.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "delay", "--instance", str(path), "--x", "3")
        assert code == 0
        assert (0, out, "") == run_cli(capsys, "delay", "--instance", str(case_study_instance),
                                       "--x", "3")

    def test_huge_x_exit_2(self, capsys, case_study_instance):
        code, out, err = run_cli(capsys, "delay", "--instance", str(case_study_instance),
                                 "--x", "1e7")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "over the limit" in err and err.count("\n") == 1


class TestEquilibriaCommand:
    def test_json_report(self, capsys, case_study_instance):
        code, out, _ = run_cli(capsys, "equilibria", "--instance", str(case_study_instance))
        assert code == 0
        doc = json.loads(out)
        assert doc["pure"] == [16, 17, 25, 36, 37]

    def test_table1_rows(self, capsys, case_study_instance):
        code, out, _ = run_cli(capsys, "equilibria", "--instance", str(case_study_instance),
                               "--table1", "8,8.15,8.5,9.5,13")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "R,below_T,above_T,L,U"
        row = dict(zip(("R", "below", "above", "L", "U"), lines[1].split(",")))
        assert row["below"] == "15;16" and row["above"] == "" and row["L"] == "24"

    def test_naor_instance(self, capsys, constant_instance):
        code, out, _ = run_cli(capsys, "equilibria", "--instance", str(constant_instance))
        assert code == 0
        assert json.loads(out)["pure"] == [6]

    def test_low_edge_candidate(self, tmp_path, capsys):
        # r_tilde mu = 11.000000003 is within 1e-9 of 11 in time, not in count:
        # pure 10 and the continuum (10, 11], where w = 2.2 (see test_equilibrium)
        path = tmp_path / "low_edge.json"
        path.write_text(json.dumps({"lambda": 1.0, "reward": 2.2000000006, "wait_cost": 1.0,
                                    "policy": {"prefix": [], "tail": 5.0}}))
        code, out, _ = run_cli(capsys, "equilibria", "--instance", str(path))
        doc = json.loads(out)
        assert (code, doc["pure"], doc["range"]) == (0, [10, 11], [10.0, 11.0])
        code, out, _ = run_cli(capsys, "equilibria", "--instance", str(path),
                               "--mixed-range", "0.5:20")
        doc = json.loads(out)
        assert (code, doc["pure"], doc["mixed_intervals"]) == (0, [10, 11], [[10.0, 11.0]])

    def test_zero_reward(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"lambda": 1.0, "reward": 0.0, "wait_cost": 1.0,
                                    "policy": {"prefix": [], "tail": 2.0}}))
        code, out, _ = run_cli(capsys, "equilibria", "--instance", str(path))
        assert code == 0
        assert json.loads(out)["pure"] == [0]

    def test_mixed_range(self, capsys, case_study_instance):
        code, out, _ = run_cli(capsys, "equilibria", "--instance", str(case_study_instance),
                               "--mixed-range", "25.000001:26")
        doc = json.loads(out)
        assert code == 0 and len(doc["mixed_points"]) == 1

    # the candidates of R = 8.5 are 16, 17 and 24..42: 18..23 lie over
    # r_tilde mu_low = 17. Besides them the first solve holds the ends of each
    # searched unit interval of the scan 16..42, (16, 17] and (23, 24]..(41, 42],
    # so 23 too, with a range end where it cuts one of them
    FIRST_SOLVE_EXTRA = {"24.5:45.5": [24.5], "1.5:3": [], "0.5:3000": [23]}

    @pytest.mark.parametrize("spec, roots", [("24.5:45.5", 3), ("1.5:3", 0), ("0.5:3000", 3)])
    def test_one_solve_before_refinement(self, monkeypatch, capsys, case_study_instance,
                                         spec, roots):
        # the first solve holds the candidates and the ends of the searched
        # intervals; every later one holds bracket interiors only, and two
        # refinement solves settle every root
        calls = []

        def record(policy, xs, params):
            calls.append(np.asarray(xs, dtype=float))
            return delay.marginal_delays(policy, xs, params)
        monkeypatch.setattr(equilibrium, "marginal_delays", record)
        code, out, _ = run_cli(capsys, "equilibria", "--instance", str(case_study_instance),
                               "--mixed-range", spec)
        first, *refine = calls
        doc = json.loads(out)
        assert code == 0 and len(doc["mixed_points"]) == roots
        assert doc["pure"] == [16, 17, 25, 36, 37]
        assert first.tolist() == sorted({16, 17, *range(24, 43), *self.FIRST_SOLVE_EXTRA[spec]})
        assert bool(refine) == bool(roots) and len(calls) <= 3
        for xs in refine:
            assert len(xs) % equilibrium.REFINE_POINTS == 0 and np.all(xs != np.round(xs))

    def test_range_past_the_scan_same_report(self, capsys, case_study_instance):
        # the scan bounds every mixed equilibrium, so a range far past it
        # reports what a range just around it does
        reports = [run_cli(capsys, "equilibria", "--instance", str(case_study_instance),
                           "--mixed-range", spec) for spec in ("0.5:3000", "15:50")]
        assert reports[0] == reports[1] and reports[0][0] == 0

    def test_mixed_range_step_exit_2(self, capsys, case_study_instance):
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(case_study_instance),
                                 "--mixed-range", "24:40:7")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "no step" in err and err.count("\n") == 1

    def test_mixed_range_reversed_exit_2(self, capsys, case_study_instance):
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(case_study_instance),
                                 "--mixed-range", "30:24")
        assert code == 2 and out == ""
        assert err == "error: bad range '30:24'; expected a <= b\n"

    @pytest.mark.parametrize("spec", ["0:3", "3:3", "-1:3"])
    def test_mixed_range_not_positive_exit_2(self, monkeypatch, capsys, case_study_instance,
                                             spec):
        def refuse(*args):
            raise AssertionError("a solve started")
        monkeypatch.setattr(equilibrium, "marginal_delays", refuse)
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(case_study_instance),
                                 f"--mixed-range={spec}")  # '=' lets argparse take "-1:3"
        assert (code, out, err) == (2, "", f"error: bad --mixed-range '{spec}'; expected 0 < a < b\n")

    def test_table1_with_mixed_range_exit_2(self, capsys, case_study_instance):
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(case_study_instance),
                                 "--table1", "8.5", "--mixed-range", "24:30")
        assert (code, out, err) == (2, "", "error: --table1 takes no --mixed-range\n")

    def test_table1_needs_two_rates(self, capsys, constant_instance):
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(constant_instance),
                                 "--table1", "8.5")
        assert (code, out, err) == (2, "", "error: --table1 requires a two-rate threshold policy\n")

    def test_table1_non_finite_reward_exit_2(self, capsys, case_study_instance):
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(case_study_instance),
                                 "--table1", "8,nan")
        assert code == 2 and out == ""
        assert err == "error: --table1 reward must be a finite number, got nan\n"

    @pytest.mark.parametrize("rewards, message", [
        (",", "--table1 lists no reward, got ','"),
        ("abc", "--table1 reward must be a number, got 'abc'"),
        ("8.5,9x", "--table1 reward must be a number, got '9x'"),
    ], ids=["no_reward", "not_a_number", "second_not_a_number"])
    def test_table1_bad_list_exit_2(self, capsys, case_study_instance, rewards, message):
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(case_study_instance),
                                 "--table1", rewards)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_tol_eq_flag_removed(self, capsys, case_study_instance):
        # the equality tolerance is the constant TOL_EQ: no flag may move it
        with pytest.raises(SystemExit) as exc:
            main(["equilibria", "--instance", str(case_study_instance), "--tol-eq", "0.1"])
        assert exc.value.code == 2
        assert "--tol-eq" in capsys.readouterr().err

    def test_diagnostics_csv(self, tmp_path, capsys, case_study_instance):
        out_dir = tmp_path / "diag"
        _, out, _ = run_cli(capsys, "equilibria", "--instance", str(case_study_instance),
                            "--out", str(out_dir))
        text = (out_dir / "diagnostics.csv").read_text()
        header, *rows = [line.split(",") for line in text.splitlines()]
        assert header == ["n0", "W_marginal", "lower_bound", "upper_bound", "is_equilibrium"]
        diagnostics = json.loads(out)["diagnostics"]
        # the candidates 16, 17 and 24..42: the scan 16..42 less 18..23, which lie
        # over r_tilde mu_low = 17
        assert len(rows) == len(diagnostics) == 21
        for row, d in zip(rows, diagnostics):
            assert list(d) == header
            assert int(row[0]) == d["n0"]
            assert [float(v) for v in row[1:4]] == [d[k] for k in header[1:4]]
            assert row[4] == str(int(d["is_equilibrium"]))


class TestScanEdge:
    """r_tilde * M = 3161 exactly: the scan ends at floor(r_tilde * M + 1e-9)
    = 3161, whose full table is within the cell budget, so the command runs."""

    def test_equilibria_at_budget_edge(self, tmp_path, capsys):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"lambda": 1.0, "reward": 3161.0, "wait_cost": 1.0,
                                    "policy": {"prefix": [], "tail": 1.0}}))
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(path))
        assert code == 0 and err == ""
        assert json.loads(out)["pure"] == [3160, 3161]

    def test_table1_at_budget_edge(self, tmp_path, capsys):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"lambda": 1.0, "reward": 1.0, "wait_cost": 1.0,
                                    "policy": {"T": 1, "mu_low": 0.999, "mu_high": 1.0}}))
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(path), "--table1", "3161")
        assert code == 0 and err == ""
        assert out.splitlines()[1] == "3161,,3160;3161,3156.84,3161"

    # mu_1 = 0.5 and M = 1: the loose bounds scan 1580..3161, 1,582 candidates;
    # the level-wise ones leave 3159..3161, as H(n0+1) = n0 + 2 >= 3161
    @pytest.mark.parametrize("policy", [{"prefix": [0.5], "tail": 1.0},
                                        {"T": 1, "mu_low": 0.5, "mu_high": 1.0}])
    def test_slow_first_rate_at_budget_edge(self, tmp_path, capsys, policy):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"lambda": 1.0, "reward": 3161.0, "wait_cost": 1.0,
                                    "policy": policy}))
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(path))
        doc = json.loads(out)
        assert (code, err, doc["pure"], doc["range"]) == (0, "", [3160, 3161], [3159.0, 3161.0])
        assert [d["n0"] for d in doc["diagnostics"]] == [3159, 3160, 3161]
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(path), "--table1", "3161")
        assert (code, err, out) == (0, "", "R,below_T,above_T,L,U\n3161,,3160;3161,1580,3161\n")


    @pytest.mark.parametrize("reward, wait_cost, extra", [
        (1e300, 1e-300, []), (1.0, 1.0, ["--table1", "1e308"])])
    def test_overflowing_r_tilde_m_exit_2(self, tmp_path, capsys, reward, wait_cost, extra):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"lambda": 1.0, "reward": reward, "wait_cost": wait_cost,
                                    "policy": {"T": 1, "mu_low": 5.0, "mu_high": 10.0}}))
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(path), *extra)
        assert (code, out, err) == (2, "", "error: r_tilde * M must be finite\n")


# one small query of every command that takes --out
EVERY_COMMAND = [
    ["delay", "--x", "4.5"],
    ["equilibria", "--mixed-range", "24:27"],
    ["equilibria", "--table1", "8.5,9.1"],
    ["sweep", "--kind", "pure_n0", "--range", "1:3"],
    ["simulate", "--n", "2", "--x", "5", "--reps", "50", "--seed", "1"],
    ["verify-coupling", "--n", "2", "--n0", "5", "--reps", "50", "--seed", "1"],
]


class TestEmptyOut:
    """An empty --out is the same as no --out, for every command."""

    @pytest.mark.parametrize("argv", EVERY_COMMAND)
    def test_same_as_absent(self, tmp_path, monkeypatch, capsys, case_study_instance, argv):
        monkeypatch.chdir(tmp_path)
        argv = [*argv, "--instance", str(case_study_instance)]
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0
        assert run_cli(capsys, *argv, "--out", "") == expected
        assert list(tmp_path.iterdir()) == [case_study_instance]


class TestBadOut:
    """An --out that cannot be written, a regular file or a path below one, ends
    every command with exit 2 and one error line naming it, before stdout."""

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    @pytest.mark.parametrize("argv", EVERY_COMMAND)
    def test_exit_2_one_line(self, tmp_path, capsys, case_study_instance, argv, below):
        blocker = tmp_path / "F"
        blocker.write_text("kept\n")
        out = blocker / "sub" if below else blocker
        code, stdout, err = run_cli(capsys, *argv, "--instance", str(case_study_instance),
                                    "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write --out {str(out)!r}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert blocker.read_text() == "kept\n"


class TestParserReuse:
    """main builds its parser once per process; a later call sees no trace of
    an earlier one."""

    def test_no_state_carried(self, tmp_path, monkeypatch, capsys, case_study_instance):
        monkeypatch.chdir(tmp_path)
        instance = ["--instance", str(case_study_instance)]
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *instance, "--n", "1"])  # no --x
        assert exc.value.code == 2
        capsys.readouterr()
        sequence = [
            ["verify-coupling", *instance, "--n", "2", "--n0", "5", "--reps", "50", "--seed", "3"],
            ["simulate", *instance, "--n", "2", "--x", "5"],  # --reps and --seed by default
            ["delay", *instance, "--x", "3", "--out", str(tmp_path / "out")],
            ["delay", *instance, "--x", "3", "--out", ""],
        ]
        first = run_cli(capsys, *sequence[0])
        assert first[0] == 0
        for argv in sequence[1:]:
            assert run_cli(capsys, *argv)[0] == 0
        assert (tmp_path / "out" / "delay_table.csv").is_file()
        fresh = cli.build_parser.__wrapped__()
        for argv in sequence:
            assert vars(cli.build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
        assert run_cli(capsys, *sequence[0]) == first

    def test_rebound_command_is_run(self, monkeypatch, capsys, case_study_instance):
        argv = ["delay", "--instance", str(case_study_instance), "--x", "1"]
        assert run_cli(capsys, *argv)[0] == 0  # the parser is built by now
        monkeypatch.setattr(cli, "cmd_delay", lambda args, params, policy: 7)
        assert main(argv) == 7

    def test_import_builds_no_parser(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        probe = "import threshq.cli as c; print(c.build_parser.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert done.stdout == "0\n"

    def test_import_leaves_out_concurrent_futures(self):
        # no command runs a thread pool, and a CLI start imports none
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        probe = "import sys, threshq.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert done.stdout == "False\n"


class TestWorkBudget:
    """A command whose largest balk state has a full table over the cell
    budget exits 2 with one line before any solve starts."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a solve started")
        monkeypatch.setattr(delay, "_sweep", refuse)
        monkeypatch.setattr(equilibrium, "marginal_delays", refuse)

    def run_refused(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "over the limit" in err and err.count("\n") == 1
        assert len(err) < 120

    def test_equilibria_huge_r_tilde_m(self, tmp_path, capsys, no_solve):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"lambda": 1.0, "reward": 3200.0, "wait_cost": 1.0,
                                    "policy": {"prefix": [], "tail": 1.0}}))
        self.run_refused(capsys, "equilibria", "--instance", str(path))

    def test_mixed_range_huge_top(self, capsys, case_study_instance, no_solve):
        self.run_refused(capsys, "equilibria", "--instance", str(case_study_instance),
                         "--mixed-range", "24:4000")

    def test_pure_sweep_huge_top(self, capsys, case_study_instance, no_solve):
        self.run_refused(capsys, "sweep", "--instance", str(case_study_instance),
                         "--kind", "pure_n0", "--range", "3170:3200")

    def test_table1_huge_reward_one_short_line(self, tmp_path, capsys, no_solve):
        # balk state ~1e301: the count is shown to six digits, not in full
        path = tmp_path / "two_rate.json"
        path.write_text(json.dumps({"lambda": 1.0, "reward": 1.0, "wait_cost": 1.0,
                                    "policy": {"T": 1, "mu_low": 0.5, "mu_high": 10.0}}))
        self.run_refused(capsys, "equilibria", "--instance", str(path), "--table1=-1,1e300")

    def test_mixed_sweep_huge_grid(self, capsys, case_study_instance, no_solve):
        # the range end 3000 passes the table check; 3 * 10^12 grid points do not
        t0 = time.perf_counter()
        self.run_refused(capsys, "sweep", "--instance", str(case_study_instance),
                         "--kind", "mixed_x", "--range", "1:3000:1e-9")
        assert time.perf_counter() - t0 < 1.0


class TestSimulationInputBoundary:
    """simulate and verify-coupling check their balk state, ceil(x) or n0,
    against the cell budget and exit 2 with one line before they build a
    strategy or start a simulation."""

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a strategy or a simulation was built")
        monkeypatch.setattr(cli, "strategy_from_x", refuse)
        monkeypatch.setattr(sim, "simulate_sojourn", refuse)
        monkeypatch.setattr(sim, "run_coupling", refuse)

    @pytest.mark.parametrize("command, args, message", [
        ("simulate", ["--n", "1", "--x", "inf"], "finite"),
        ("simulate", ["--n", "1", "--x", "2e7"], "over the limit"),
        ("verify-coupling", ["--n", "1", "--n0", "5", "--x", "inf"], "finite"),
        ("verify-coupling", ["--n", "1", "--n0", "20000000"], "over the limit"),
        ("simulate", ["--n", "1", "--x", "3", "--reps", "1000000000000"], "over the limit"),
        ("simulate", ["--n", "1", "--x", "3", "--reps", "10000001"], "over the limit"),
        ("verify-coupling", ["--n", "1", "--n0", "3", "--reps", "1000000000000"],
         "over the limit"),
        ("verify-coupling", ["--n", "4", "--n0", "5", "--reps", "2000001"], "over the limit"),
        ("verify-coupling", ["--n", "1", "--n0", "1" + "0" * 400], "--n0 must be a finite"),
    ])
    def test_exit_2_before_simulating(self, capsys, case_study_instance, no_simulation,
                                      command, args, message):
        code, out, err = run_cli(capsys, command, "--instance", str(case_study_instance), *args)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("args, message", [
    (["--n", "-1", "--x", "3"], "arrival state -1 outside [0, 3]"),
    (["--n", "4", "--x", "3"], "arrival state 4 outside [0, 3]"),
    (["--n", "4", "--x", "3", "--reps", "0"], "replications must be >= 1"),
], ids=["n_-1", "n_4", "n_4_reps_0"])
def test_simulate_bad_input_exit_2_before_drawing(capsys, monkeypatch, case_study_instance,
                                                  args, message):
    # simulate_sojourn refuses an arrival state outside [0, ceil(x)] before its first draw
    def refuse(*args):
        raise AssertionError("a random generator was built")
    monkeypatch.setattr(sim, "_generator", refuse)
    code, out, err = run_cli(capsys, "simulate", "--instance", str(case_study_instance), *args)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command, args", [
    ("delay", []),
    ("simulate", ["--n", "1"]),
    ("verify-coupling", ["--n", "1", "--n0", "3"]),
])
def test_negative_x_exit_2(capsys, case_study_instance, command, args):
    code, out, err = run_cli(capsys, command, "--instance", str(case_study_instance),
                             *args, "--x", "-3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nonnegative" in err and err.count("\n") == 1


@pytest.mark.parametrize("policy, shown", [
    ({"prefix": [1e-310], "tail": 1}, "1e-310"),
    ({"T": 3, "mu_low": 6e-309, "mu_high": 1}, "6e-309"),
])
@pytest.mark.parametrize("command, args", [
    ("equilibria", []),
    ("sweep", ["--kind", "pure_n0", "--range", "1:3"]),
    ("simulate", ["--n", "1", "--x", "2", "--reps", "100"]),
    ("verify-coupling", ["--n", "1", "--n0", "3", "--reps", "100"]),
])
def test_subnormal_rate_exit_2(tmp_path, capsys, policy, shown, command, args):
    # 1/1e-310 overflows, and 1/6e-309 does not but its multiples do: once accepted,
    # such rates gave overflow warnings, the rows 1,inf,0 or 2,nan,0, an OverflowError
    # from simulate, and a coupling whose departures never came, so a hang fails here
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps({"lambda": 1, "reward": 3, "wait_cost": 1, "policy": policy}))

    def hang(signum, frame):
        raise TimeoutError(f"{command} still running after 20 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        code, out, err = run_cli(capsys, command, "--instance", str(path), *args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and shown in err and err.count("\n") == 1


@pytest.mark.parametrize("command, args, shown", [
    ("sweep", ["--kind", "pure_n0", "--range", "-1:3"], "'-1:3'"),
    ("equilibria", ["--mixed-range", "-1:3"], "'-1:3'"),
    ("delay", ["--x", "-1e5"], "-100000.0"),
    ("delay", ["--x", "-inf"], "-inf"),
    ("equilibria", ["--table1", "-1,2"], "-1.0"),
])
def test_option_value_starting_with_dash_exit_2(capsys, case_study_instance, command, args, shown):
    # argparse alone reads these values as options and prints its usage
    code, out, err = run_cli(capsys, command, "--instance", str(case_study_instance), *args)
    assert code == 2 and out == ""
    assert err.startswith("error:") and shown in err and err.count("\n") == 1


class TestSweepCommand:
    def test_pure_sweep(self, capsys, case_study_instance):
        code, out, _ = run_cli(capsys, "sweep", "--instance", str(case_study_instance),
                               "--kind", "pure_n0", "--range", "1:40")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n0,W,equilibrium_hit"
        assert len(lines) == 41

    def test_mixed_sweep(self, capsys, case_study_instance):
        code, out, _ = run_cli(capsys, "sweep", "--instance", str(case_study_instance),
                               "--kind", "mixed_x", "--range", "24.05:39:0.05")
        assert code == 0
        assert out.splitlines()[0] == "x,W,equilibrium_hit"

    def test_mixed_sweep_near_integer_grid_points(self, capsys, case_study_instance):
        # 1.05 + 179 * 0.05 = 10.000000000000002: a join probability of 2e-15
        # at state 10, so the balk state is 11
        code, out, err = run_cli(capsys, "sweep", "--instance", str(case_study_instance),
                                 "--kind", "mixed_x", "--range", "1.05:12:0.05")
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [float(x) for x, _, _ in rows] == [1.05 + i * 0.05 for i in range(220)]
        w = {float(x): float(w) for x, w, _ in rows}
        x = 10.000000000000002
        params, policy = EconomicParams(3.0, 8.5, 1.0), ServiceRatePolicy.two_rate(23, 2.0, 5.0)
        ref = dense_delay_solve(policy, UnsnappedThreshold(x), params)[(10, 11)]
        assert w[x] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("policy, spec", [
        ({"T": 23, "mu_low": 2.0, "mu_high": 5.0}, "1:40"),
        ({"prefix": [1.0, 2.0, 3.0], "tail": 4.0}, "1:140")], ids=["case_study", "general"])
    def test_pure_rows_are_the_unit_step_grid(self, capsys, tmp_path, policy, spec):
        # pure_n0 a:b is the mixed_x sweep a:b:1 under another header
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"lambda": 3.0, "reward": 8.5, "wait_cost": 1.0,
                                    "policy": policy}))
        (c1, pure, _), (c2, mixed, _) = (
            run_cli(capsys, "sweep", "--instance", str(path), "--kind", kind, "--range", r)
            for kind, r in (("pure_n0", spec), ("mixed_x", spec + ":1")))
        assert c1 == c2 == 0
        assert pure.split("\n", 1) == ["n0,W,equilibrium_hit", mixed.split("\n", 1)[1]]

    def test_byte_stable(self, capsys, case_study_instance):
        args = ("sweep", "--instance", str(case_study_instance),
                "--kind", "pure_n0", "--range", "1:30")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("spec", ["1:inf", "nan:5"])
    def test_non_finite_range_exit_2(self, capsys, case_study_instance, spec):
        code, out, err = run_cli(capsys, "sweep", "--instance", str(case_study_instance),
                                 "--kind", "pure_n0", "--range", spec)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err and err.count("\n") == 1

    def test_bad_range_exit_2(self, capsys, case_study_instance):
        for kind, spec in [("mixed_x", "nope"), ("pure_n0", "5:1"), ("mixed_x", "5:1:0.1")]:
            code, out, err = run_cli(capsys, "sweep", "--instance", str(case_study_instance),
                                     "--kind", kind, "--range", spec)
            assert code == 2 and out == ""
            assert err.startswith(f"error: bad range {spec!r}") and err.count("\n") == 1

    @pytest.mark.parametrize("kind, spec", [("pure_n0", "5:5"), ("mixed_x", "5:5:0.1")])
    def test_equal_range_ends_one_row(self, capsys, case_study_instance, kind, spec):
        code, out, _ = run_cli(capsys, "sweep", "--instance", str(case_study_instance),
                               "--kind", kind, "--range", spec)
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["5"]

    def test_pure_range_step_exit_2(self, capsys, case_study_instance):
        code, out, err = run_cli(capsys, "sweep", "--instance", str(case_study_instance),
                                 "--kind", "pure_n0", "--range", "1:5:2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "no step" in err and err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["2.9:4", "1:4.5"])
    def test_pure_range_non_integer_exit_2(self, capsys, case_study_instance, spec):
        code, out, err = run_cli(capsys, "sweep", "--instance", str(case_study_instance),
                                 "--kind", "pure_n0", "--range", spec)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "integers" in err and err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["-3:-1:0.5", "-1:0.5:2"])
    def test_mixed_range_without_positive_point_exit_2(self, capsys, case_study_instance, spec):
        # the grid -1, 1 stops at -1 in the second range: no point lies in (0, b]
        code, out, err = run_cli(capsys, "sweep", "--instance", str(case_study_instance),
                                 "--kind", "mixed_x", "--range", spec)
        assert (code, out, err) == (2, "", f"error: bad --range '{spec}'; mixed_x has no grid "
                                           "point above 0\n")

    def test_pure_range_from_0_exit_2(self, capsys, case_study_instance):
        # n0 = 0 has no marginal delay, so the sweep could only start above the range
        code, out, err = run_cli(capsys, "sweep", "--instance", str(case_study_instance),
                                 "--kind", "pure_n0", "--range", "0:3")
        assert (code, out, err) == (2, "", "error: bad --range '0:3'; pure_n0 expects integers "
                                           "1 <= a <= b, with no step\n")


class TestSimulateCommand:
    def test_within_ci(self, capsys, constant_instance):
        code, out, _ = run_cli(capsys, "simulate", "--instance", str(constant_instance),
                               "--n", "2", "--x", "5", "--reps", "5000", "--seed", "4")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert abs(float(fields["mean"]) - float(fields["analytic"])) <= \
            2 * float(fields["half_width_95"])

    def test_exact_without_random_holding(self, capsys, case_study_instance):
        # at x = 1 a joiner at n = 0 is served alone at rate 2: every
        # replication adds 1 / 2, so the estimate is W(0) with zero width
        code, out, _ = run_cli(capsys, "simulate", "--instance", str(case_study_instance),
                               "--n", "0", "--x", "1", "--reps", "1000")
        assert code == 0
        fields = {k: float(v) for k, v in (kv.split("=") for kv in out.split())}
        mean, analytic = fields["mean"], fields["analytic"]
        assert abs(mean - analytic) <= 4 * math.ulp(analytic)
        assert fields["half_width_95"] <= 1e-15 * mean

    def test_single_rep_flagged(self, capsys, constant_instance):
        code, out, _ = run_cli(capsys, "simulate", "--instance", str(constant_instance),
                               "--n", "1", "--x", "3", "--reps", "1", "--seed", "4")
        assert code == 0
        assert "degenerate_ci=1" in out


class TestVerifyCouplingCommand:
    def test_zero_violations_exit_0(self, capsys, case_study_instance):
        code, out, _ = run_cli(capsys, "verify-coupling", "--instance", str(case_study_instance),
                               "--n", "2", "--n0", "5", "--reps", "500", "--seed", "6")
        assert code == 0
        assert "violations=0" in out

    def test_negative_n0_without_x_names_n0(self, capsys, case_study_instance):
        code, out, err = run_cli(capsys, "verify-coupling", "--instance", str(case_study_instance),
                                 "--n", "1", "--n0", "-3")
        assert (code, out, err) == (2, "", "error: --n0 must be nonnegative, got -3\n")


class TestNearIntegerThreshold:
    """At x = k + 2e-15 the join probability at state k is about 2e-15, used
    as computed: every command puts the balk state at ceil(x) = k + 1."""

    @pytest.mark.parametrize("k", [10, 24])
    def test_delay_sweep_and_coupling_agree(self, tmp_path, capsys, case_study_instance, k):
        x = repr(k + 2e-15)
        inst = str(case_study_instance)
        code, out, _ = run_cli(capsys, "delay", "--instance", inst, "--x", x)
        assert code == 0
        last = out.splitlines()[-1].split(",")
        assert last[:2] == [str(k), str(k + 1)]  # W(k, k+1): the balk state is k + 1
        code, out, _ = run_cli(capsys, "sweep", "--instance", inst, "--kind", "mixed_x",
                               "--range", f"{x}:{x}:1")
        assert code == 0
        assert out.splitlines()[1].split(",")[:2] == [x, last[2]]
        code, out, _ = run_cli(capsys, "verify-coupling", "--instance", inst, "--n", "2",
                               "--n0", str(k + 1), "--x", x, "--reps", "200", "--seed", "3")
        assert code == 0 and "violations=0" in out
