import json
import time

import pytest

from threshq import cli, delay, equilibrium, sim
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

    def test_table1_non_finite_reward_exit_2(self, capsys, case_study_instance):
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(case_study_instance),
                                 "--table1", "8,nan")
        assert code == 2 and out == ""
        assert err == "error: --table1 reward must be a finite number, got nan\n"

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
        assert len(rows) == len(diagnostics) == 27  # the scan 16..42
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


    @pytest.mark.parametrize("reward, wait_cost, extra", [
        (1e300, 1e-300, []), (1.0, 1.0, ["--table1", "1e308"])])
    def test_overflowing_r_tilde_m_exit_2(self, tmp_path, capsys, reward, wait_cost, extra):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"lambda": 1.0, "reward": reward, "wait_cost": wait_cost,
                                    "policy": {"T": 1, "mu_low": 5.0, "mu_high": 10.0}}))
        code, out, err = run_cli(capsys, "equilibria", "--instance", str(path), *extra)
        assert (code, out, err) == (2, "", "error: r_tilde * M must be finite\n")


class TestEmptyOut:
    """An empty --out is the same as no --out, for every command."""

    @pytest.mark.parametrize("argv", [
        ["delay", "--x", "4.5"],
        ["equilibria", "--mixed-range", "24:27"],
        ["equilibria", "--table1", "8.5,9.1"],
        ["sweep", "--kind", "pure_n0", "--range", "1:3"],
        ["simulate", "--n", "2", "--x", "5", "--reps", "50", "--seed", "1"],
        ["verify-coupling", "--n", "2", "--n0", "5", "--reps", "50", "--seed", "1"],
    ])
    def test_same_as_absent(self, tmp_path, monkeypatch, capsys, case_study_instance, argv):
        monkeypatch.chdir(tmp_path)
        argv = [*argv, "--instance", str(case_study_instance)]
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0
        assert run_cli(capsys, *argv, "--out", "") == expected
        assert list(tmp_path.iterdir()) == [case_study_instance]


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
    ])
    def test_exit_2_before_simulating(self, capsys, case_study_instance, no_simulation,
                                      command, args, message):
        code, out, err = run_cli(capsys, command, "--instance", str(case_study_instance), *args)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err and err.count("\n") == 1


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


class TestSimulateCommand:
    def test_within_ci(self, capsys, constant_instance):
        code, out, _ = run_cli(capsys, "simulate", "--instance", str(constant_instance),
                               "--n", "2", "--x", "5", "--reps", "5000", "--seed", "4")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert abs(float(fields["mean"]) - float(fields["analytic"])) <= \
            2 * float(fields["half_width_95"])

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
