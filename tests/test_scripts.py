"""The scripts under ``scripts/``, each run as a command in a subprocess."""
import difflib
import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script: str, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / script), "--out", str(out)],
                          capture_output=True, text=True)


def test_invariant_drift_shows_fourth_order_halving_ratios(tmp_path):
    proc = _run("invariant_drift.py", tmp_path / "drift.csv")
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.splitlines()[-1]
    assert line.startswith("halving ratios: ")
    ratios = [float(r) for r in line.split(": ", 1)[1].split(", ")]
    assert len(ratios) == 4 and all(15.0 <= r <= 17.0 for r in ratios), ratios
    assert (tmp_path / "drift.csv").read_text().count("\n") == 6  # header + 5 steps


def test_run_scenarios_passes_every_bundled_check(tmp_path):
    # the second run writes over the outputs of the first
    for _ in range(2):
        proc = _run("run_scenarios.py", tmp_path / "all")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "33/33 checks passed"
        rows = json.loads((tmp_path / "all" / "report.json").read_text())
        assert len(rows) == 33 and all(r["status"] == "pass" for r in rows)


def test_output_digest_prints_every_reference_scenario_without_an_error():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "output_digest.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    versions, *out = proc.stdout.splitlines()
    lines = [line.split(" ", 2) for line in out]
    # the 4 bundled configs and the 23 members of the three workloads at seeds 1 and 2
    assert len({name for name, *_ in lines}) == 50
    assert not [line for line in lines if line[1] == "error"]
    # every trajectory and row as committed; a change that moves one regenerates the file
    ref_versions, *ref = (SCRIPTS / "reference_digest.txt").read_text().splitlines()
    assert versions == ref_versions, f"digest made with {ref_versions}, run with {versions}"
    diff = list(difflib.unified_diff(ref, out, "reference_digest.txt", "now", n=0, lineterm=""))
    assert not diff, "\n".join(diff)


def test_the_readme_library_example_runs():
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=SCRIPTS.parent,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("FoliationReport(")
