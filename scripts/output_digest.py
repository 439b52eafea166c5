#!/usr/bin/env python3
"""Digest the output of every reference scenario, for bitwise comparisons.

The reference scenarios are the bundled configs in ``scripts/configs`` and
the members of seeds 1 and 2 of every perfbench workload
(``perfbench/scenarios.py``).  Each runs through ``cli.run`` and
``cli.report_render`` in a temporary directory.  For each scenario the
script prints its name, the sha256 of ``trajectory.csv`` and the csv's last
line (the final time and state), or the error the scenario raised, and then
one line per ``report.json`` row: the name, the row's check, the sha256 of
the row without ``runtime_s`` (the only field that may vary between
identical runs) and the ``repr`` of the row's value.  A diff of two outputs
thus names every row that was added, removed or changed, and shows by how
much a value moved.

The first line names the numpy and Python versions, since a value's last
bits may depend on them.  ``scripts/reference_digest.txt`` is this output
at the current commit, and tier-1 compares a fresh run with it
(``tests/test_scripts.py``); a change that moves a value regenerates it in
the same commit, from the repository root:

    python3 scripts/output_digest.py > scripts/reference_digest.txt

The scenarios run on the folsys package of the checkout holding this
script, so to compare with another commit, copy the script into a checkout
of it, run it there and diff.
"""
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import scenarios  # noqa: E402
from folsys.cli import ScenarioConfig, report_render, run  # noqa: E402
from folsys.errors import ConfigError, FolsysError  # noqa: E402

SEEDS = (1, 2)


def reference_configs():
    """(name, config) of every reference scenario, in a fixed order."""
    for path in sorted((ROOT / "scripts" / "configs").glob("*.json")):
        yield f"configs/{path.stem}", json.loads(path.read_text(encoding="utf-8"))
    for workload in scenarios.WORKLOADS:
        for seed in SEEDS:
            for member in scenarios.generate(workload, seed):
                yield f"{workload}:{seed}:{member['name']}", member["config"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(config: dict, out_dir: Path) -> list[str]:
    """The trajectory digest and final line, then one ``<check> <digest>
    <value>`` per report row."""
    cfg = ScenarioConfig.from_dict(dict(config, out=str(out_dir)))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            reports, _ = run(cfg)
            report_render(reports, cfg.out, fmt=cfg.fmt)
    except (ConfigError, FolsysError) as exc:
        return [f"error {type(exc).__name__}: {exc}"]
    rows = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    csv = (out_dir / "trajectory.csv").read_bytes()
    last = csv.rstrip().rsplit(b"\n", 1)[-1].decode()
    lines = [f"{sha256(csv)} {last}"]
    for row in rows:
        del row["runtime_s"]
        lines.append(f"{row['check']} {sha256(json.dumps(row, sort_keys=True).encode())} "
                     f"{row['value']!r}")
    return lines


def main() -> int:
    print(f"numpy {np.__version__} python {platform.python_version()}")
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, config) in enumerate(reference_configs()):
            for line in digest(config, Path(tmp) / str(i)):
                print(name, line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
