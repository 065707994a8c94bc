"""Self-test of the benchmark: the checker, the generator and the tracer.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

Genuine answers come from threshq itself; each tampered copy must be
counted in wrong_frac, so the correctness gate is not vacuous.
"""
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import threshq  # noqa: E402
import threshq.cli  # noqa: E402

CASE = {"lambda": 3.0, "reward": 8.5, "wait_cost": 1.0, "policy": workloads.CASE_STUDY_POLICY}


@pytest.fixture
def answered(tmp_path):
    """A three-query plan with the program's genuine answers, run twice each."""
    plan = workloads.Plan("self-test", 0, str(tmp_path))
    inst = plan.instance(3.0, 8.5, 1.0, workloads.CASE_STUDY_POLICY)
    plan.add("equilibria", inst, ["--mixed-range", "24:43"], mixed=[24, 43])
    plan.add("coupling", inst, ["--n", "3", "--n0", "6", "--reps", "200", "--seed", "5"],
             n=3, n0=6, x=6.0, reps=200)
    plan.add("simulate", inst, ["--n", "5", "--x", "26", "--reps", "20000", "--seed", "5"],
             n=5, x=26.0, reps=20000)
    (tmp_path / f"{inst}.json").write_text(json.dumps(CASE))
    records = []
    for q in plan.queries:
        code, stdout, stderr, elapsed = worker.run_query(threshq.cli.main, q["argv"])
        records.append({"warmup_codes": [], "latencies": [elapsed, elapsed],
                        "codes": [code, code], "traced_latencies": [], "traced_codes": [],
                        "mismatches": 0, "stdout": stdout, "stderr": stderr, "digest": ""})
    return plan.to_json(), records


def wrong_frac(plan, records):
    attempted, failed, known, _ = run.check_answers(plan, records)
    result = {"queries": records, "walls": [1.0], "raw_walls": [1.0], "traced_walls": [],
              "peak_rss_mb": 1.0}
    values, _ = run.end_to_end(plan, result, [(0.1, 0.025)], attempted, failed, known)
    return values["wrong_frac"]


def test_genuine_answers_pass(answered):
    plan, records = answered
    report = json.loads(records[0]["stdout"])
    assert report["pure"] == [16, 17, 25, 36, 37] and report["mixed_points"]
    assert wrong_frac(plan, records) == 0.0


def test_dropped_pure_equilibrium_is_wrong(answered):
    plan, records = answered
    report = json.loads(records[0]["stdout"])
    report["pure"] = report["pure"][1:]
    records[0]["stdout"] = json.dumps(report)
    assert wrong_frac(plan, records) == pytest.approx(1 / 3)


def test_shifted_mixed_root_is_wrong(answered):
    plan, records = answered
    report = json.loads(records[0]["stdout"])
    report["mixed_points"][0] += 1e-6
    records[0]["stdout"] = json.dumps(report)
    assert wrong_frac(plan, records) == pytest.approx(1 / 3)


def test_coupling_violation_is_wrong(answered):
    plan, records = answered
    records[1]["stdout"] = records[1]["stdout"].replace("violations=0", "violations=1")
    assert wrong_frac(plan, records) == pytest.approx(1 / 3)
    records[1]["codes"] = [3, 3]
    assert wrong_frac(plan, records) == pytest.approx(1 / 3)


def test_biased_simulation_mean_is_wrong(answered):
    plan, records = answered
    fields = dict(item.split("=", 1) for item in records[2]["stdout"].split())
    mean, half = float(fields["mean"]), float(fields["half_width_95"])
    records[2]["stdout"] = records[2]["stdout"].replace(fields["mean"], repr(mean + 4 * half))
    assert wrong_frac(plan, records) == pytest.approx(1 / 3)


def test_crash_and_changed_output_are_wrong(answered):
    plan, records = answered
    records[1]["codes"] = [0, None]
    records[2]["mismatches"] = 1
    assert wrong_frac(plan, records) == pytest.approx(2 / 3)


def test_changed_delay_table_is_wrong(tmp_path):
    plan = workloads.Plan("self-test", 0, str(tmp_path))
    inst = plan.instance(3.0, 8.5, 1.0, workloads.CASE_STUDY_POLICY)
    query = plan.add("delay", inst, ["--x", "30.5"], x=30.5)
    (tmp_path / f"{inst}.json").write_text(json.dumps(CASE))
    code, stdout, stderr, elapsed = worker.run_query(threshq.cli.main, query["argv"])
    records = [{"warmup_codes": [], "latencies": [elapsed], "codes": [code],
                "traced_latencies": [], "traced_codes": [], "mismatches": 0,
                "stdout": stdout, "stderr": stderr}]
    assert wrong_frac(plan.to_json(), records) == 0.0
    table = os.path.join(query["out"], "delay_table.csv")
    with open(table, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    n, m, w = lines[5].split(",")
    lines[5] = f"{n},{m},{float(w) * (1 + 1e-6)!r}"
    with open(table, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    assert wrong_frac(plan.to_json(), records) == 1.0


def test_only_the_known_range_defect_keeps_a_run_correct(tmp_path):
    # n0 = 1 is an equilibrium (1/mu_1 <= r_tilde <= 1/mu_1 + 1/mu_2), but
    # threshq tests candidates from ceil((r_tilde - 1/M) mu_1) = 2 upwards
    doc = {"lambda": 1.0, "reward": 1.5, "wait_cost": 1.0,
           "policy": {"prefix": [1.0, 1.0], "tail": 10.0}}
    plan = workloads.Plan("self-test", 0, str(tmp_path))
    inst = plan.instance(1.0, 1.5, 1.0, doc["policy"])
    plan.add("equilibria", inst, [])
    (tmp_path / f"{inst}.json").write_text(json.dumps(doc))
    code, stdout, stderr, elapsed = worker.run_query(threshq.cli.main, plan.queries[0]["argv"])
    record = {"warmup_codes": [], "latencies": [elapsed], "codes": [code],
              "traced_latencies": [], "traced_codes": [], "mismatches": 0,
              "stdout": stdout, "stderr": stderr}
    assert 1 not in json.loads(stdout)["pure"]
    assert run.check_answers(plan.to_json(), [record])[:3] == (1, 1, 1)
    assert wrong_frac(plan.to_json(), [record]) == 1.0
    # any other fault on top of the known miss is a new failure
    report = json.loads(stdout)
    report["pure"].append(max(report["pure"]) + 1)
    assert run.check_answers(plan.to_json(), [dict(record, stdout=json.dumps(report))])[:3] \
        == (1, 1, 0)
    assert run.check_answers(plan.to_json(), [dict(record, mismatches=1)])[:3] == (1, 1, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plans_come_from_the_seed(name, tmp_path):
    first = workloads.build(name, 7, str(tmp_path)).to_json()
    assert first == workloads.build(name, 7, str(tmp_path)).to_json()
    assert first != workloads.build(name, 8, str(tmp_path)).to_json()


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: run.END_TO_END[name] for name in run.GATED}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_tracer_reaches_names_imported_both_ways(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(CASE))
    original = threshq.equilibrium.solve_delay_table
    t = tracer.Tracer()
    t.install(threshq)
    try:
        code, *_ = worker.run_query(threshq.cli.main, ["equilibria", "--instance", str(path)])
    finally:
        t.uninstall()
    assert code == 0 and t.absent == []
    assert threshq.equilibrium.solve_delay_table is original
    names = [s[0] for s in t.spans]
    # cli calls load_instance by its imported name; equilibrium imported
    # solve_delay_table by name as well
    assert "model.load_instance" in names and "delay.solve_delay_table" in names
    metrics = tracer.layer_metrics(t.spans, 1, 10, 0)
    assert metrics["equilibrium.enumerate.calls"] == 1
    assert metrics["delay.solve.calls"] == names.count("delay.solve_delay_table") > 0
    assert 0.0 < metrics["cli.self_s"] < sum(s[2] - s[1] for s in t.spans if s[0] == "cli.main")


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.delattr(threshq.sim, "run_coupling")
    t = tracer.Tracer()
    t.install(threshq)
    t.uninstall()
    assert t.absent == ["sim.run_coupling"]
