"""Self-tests of the benchmark: metric names, repeatable counts, failing gates.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""
import json
import shutil
import subprocess
import sys

import pytest

import run
import scenarios
import tracing

BENCHMARK = run.ROOT / "BENCHMARK.json"


def tiny(workload, seed=7):
    return scenarios.first_of_each_kind(scenarios.generate(workload, seed))


def last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in tracing.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_inputs_depend_only_on_the_seed():
    for workload in scenarios.WORKLOADS:
        a = scenarios.generate(workload, 3)
        assert a == scenarios.generate(workload, 3)
        b = scenarios.generate(workload, 4)
        assert a != b
        # a seed changes parameter values, never the amount of work
        shape = [(m["name"], m["config"]["model"], m["config"]["integration"],
                  m["config"]["checks"]) for m in a]
        assert shape == [(m["name"], m["config"]["model"],
                          m["config"]["integration"], m["config"]["checks"])
                         for m in b]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_tiny_run_prints_every_metric(cli, tmp_path, capsys, workload, trace):
    out = run.run_workload(cli, workload, 7, 0.0, trace, tmp_path,
                           members=tiny(workload), setup_repeats=1)
    run.print_summary(workload, out)
    lines = capsys.readouterr().out.strip().splitlines()
    expected = tracing.PER_LAYER if trace else run.END_TO_END
    for name, unit, *_ in expected:
        assert any(line.split()[1:2] == [name] and line.split()[3] == unit
                   for line in lines[1:-1]), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [row[0] for row in expected]
    assert result["correct"] and result["failed"] == 0, out["failures"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if trace and workload == "group-reduction":
        # the matrix-group path must stay covered
        assert result["metrics"]["automorphic.exp_calls"]["value"] > 0
        assert result["metrics"]["automorphic.solve_matrix_s"]["value"] > 0


def test_exact_counts_repeat(cli, tmp_path):
    members = tiny("rule-fit")[:1] + tiny("group-reduction")[:1]
    counts = []
    for i in range(2):
        out = run.run_workload(cli, "group-reduction", 7, 0.0, True,
                               tmp_path / str(i), members=members)
        assert out["result"]["correct"], out["failures"]
        metrics = out["result"]["metrics"]
        counts.append({name: metrics[name]["value"] for name in tracing.EXACT_COUNTS})
    assert all(v > 0 for v in counts[0].values()), counts[0]
    assert counts[0] == counts[1]


def test_corrupted_trajectory_fails_the_gate(cli, tmp_path):
    def corrupt(scen_dir):
        path = scen_dir / "trajectory.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        t, x = lines[-1].split(",")
        lines[-1] = f"{t},{float(x) + 1e-6!r}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    members = tiny("rule-fit")[:1]
    assert members[0]["oracle"] is not None
    out = run.run_workload(cli, "rule-fit", 7, 0.0, False, tmp_path,
                           members=members, setup_repeats=1, tamper=corrupt)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["verified.ratio"]["value"] < 1.0
    assert "closed form" in out["failures"][0]["problems"][0]


def test_raising_scenario_is_recorded_and_the_workload_goes_on(cli, tmp_path):
    good = tiny("one-orbit")[0]
    bad = json.loads(json.dumps(good))
    bad["name"] = bad["kind"] = "bad"
    bad["config"]["checks"] = ["automorphic"]  # coupled Ermakov has no action
    out = run.run_workload(cli, "one-orbit", 7, 0.0, False, tmp_path,
                           members=[bad, good], setup_repeats=1)
    problems = [f["problems"] for f in out["failures"]]
    assert problems and all(p == ["raised ConfigError"] for p in problems)
    assert out["result"]["attempted"] == 2 * len(problems)


def test_one_command_prints_every_workload(tmp_path):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "all", "--seed", "2", "--seconds", "1",
                           "--trace", "0"], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=400, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith('{"correct"')]
    assert len(results) == len(scenarios.WORKLOADS)
    assert last_json_line(proc.stdout) == results[-1]
    for result in results:
        assert result["correct"] and result["attempted"] >= 1
        assert list(result["metrics"]) == [row[0] for row in run.END_TO_END]
    for workload in scenarios.WORKLOADS:
        for name, unit, _ in run.END_TO_END:
            assert any(line.split()[:2] == [workload, name] and line.split()[3] == unit
                       for line in lines), (workload, name)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "rule-fit", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
