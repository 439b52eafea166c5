#!/usr/bin/env python3
"""Benchmark for folsys: seeded scenario workloads run through the public path.

Run from the repository root:

    python3 perfbench/run.py --workload rule-fit --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in a
fresh process, and prints each one's summary and result line.

Workloads (configs generated from the seed, see scenarios.py): ``rule-fit``,
``one-orbit``, ``group-reduction``.  One process runs one workload as a
closed loop with a single client: one scenario at a time, each going
``ScenarioConfig.from_dict`` -> ``cli.run`` -> ``cli.report_render``.

A run has these phases:

1. set-up (``--trace 0`` only): SETUP_REPEATS fresh processes each import
   folsys and build every config (setup_probe.py); ``setup_s`` is their median;
2. warm-up: one member of each kind, untimed, so lazy initialisation is
   not charged to the first timed scenario;
3. timed phase: passes over the configs until ``--seconds`` have elapsed.
   With ``--trace 1`` the time is split between an untraced and a traced
   phase; per-layer metrics come from the traced one (whole passes), and the
   difference in throughput is reported as the tracing overhead.

Times are reported at reference speed (reference.py): each scenario and each
set-up probe is bracketed by runs of a fixed reference kernel, and its
seconds are scaled by the kernel's reference time over its measured time.
On a shared host this removes most of the machine's own speed swings (up to
2x within a minute here); the summary also prints the unscaled times.

Every scenario's output is checked (oracles.py); a scenario that raises is
recorded as failed and the workload goes on.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans, the manifest and the result are also written under
``.perfbench_runs/<workload>-seed<seed>-trace<0|1>/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import scenarios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 120
# scenario_s.tail is the slowest time that still has this many samples above it
TAIL_BEYOND = 10

# name, unit, better: the end-to-end metrics of BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("scenarios_per_s", "1/s", "higher"),
    ("scenario_s.p50", "s", "lower"),
    ("scenario_s.tail", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("verified.ratio", "1", "higher"),
)

# per-layer metrics a traced run must see above zero, so that the coverage
# they stand for cannot silently disappear from a workload
REQUIRED_NONZERO = {
    "group-reduction": ("automorphic.exp_calls", "automorphic.solve_matrix_s"),
}


class ProgramMissing(RuntimeError):
    pass


class _Discard:
    """stdout sink for the report table that ``report_render`` prints."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def load_program():
    """Import folsys from this checkout's ``src`` and return ``folsys.cli``."""
    if not (SRC / "folsys" / "__init__.py").is_file():
        raise ProgramMissing(f"no folsys package under {SRC}")
    sys.path.insert(0, str(SRC))
    import folsys
    from folsys import cli

    if Path(folsys.__file__).resolve().parent != SRC / "folsys":
        raise ProgramMissing(f"folsys imported from {folsys.__file__}, not {SRC}")
    return cli


def run_scenario(cli, member, scen_dir: Path, tracer=None, scenario_id=""):
    """Config to written report; returns (seconds, exception type or None)."""
    for name in ("report.json", "trajectory.csv"):
        (scen_dir / name).unlink(missing_ok=True)
    raw = dict(member["config"], out=str(scen_dir))
    if tracer is not None:
        tracer.scenario = scenario_id
    start = time.perf_counter()
    error = None
    try:
        with contextlib.redirect_stdout(_Discard()):
            cfg = cli.ScenarioConfig.from_dict(raw)
            reports, _ = cli.run(cfg)
            cli.report_render(reports, cfg.out, fmt=cfg.fmt)
    except Exception as exc:  # one failing scenario must not end the workload
        error = type(exc).__name__
    return time.perf_counter() - start, error


def run_phase(cli, members, budget_s, verifier, out_dir: Path, label: str,
              tracer=None, tamper=None) -> dict:
    """Passes over ``members`` until ``budget_s`` has elapsed, at least one.

    A traced phase always ends on a whole pass, so that its counts are per
    pass; an untraced one stops at the first scenario that ends after the
    budget (members cost about the same, so a part pass biases nothing).
    Each scenario is bracketed by runs of the reference kernel; ``times``
    holds its seconds at reference speed and ``wall`` the measured ones.
    ``tamper(scen_dir)`` runs after each scenario and before its check; the
    self-tests use it to corrupt an output.
    """
    times, wall, failures, ok, passes = [], [], [], 0, 0
    start = time.perf_counter()
    kernel_before = reference.kernel_seconds()

    def over():
        return time.perf_counter() - start >= budget_s

    while not (passes and over()):
        for member in members:
            if passes and tracer is None and over():
                break
            scen_dir = out_dir / "scenarios" / member["name"]
            scen_dir.mkdir(parents=True, exist_ok=True)
            sid = f"{label}:{passes}:{member['name']}"
            elapsed, error = run_scenario(cli, member, scen_dir, tracer, sid)
            kernel_after = reference.kernel_seconds()
            factor = reference.speed_factor(kernel_before, kernel_after)
            kernel_before = kernel_after
            if tracer is not None:
                tracer.end_scenario(factor)
            if tamper is not None:
                tamper(scen_dir)
            problems = verifier.check(member, scen_dir, error)
            times.append(elapsed * factor)
            wall.append(elapsed)
            if problems:
                failures.append({"scenario": sid, "problems": problems})
            else:
                ok += 1
        passes += 1
        if tracer is not None:
            tracer.end_pass()
    return {"times": times, "wall": wall, "failures": failures, "ok": ok,
            "passes": passes,
            # throughput of the program: verified scenarios per second of
            # scenario time, excluding the benchmark's own checks
            "rate": ok / sum(times), "wall_rate": ok / sum(wall)}


def tail_of(times):
    """(value, percentile): the slowest time with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup(members, out_dir: Path, repeats: int) -> tuple[float, float]:
    """Median fresh-process set-up time over ``repeats`` probe processes,
    at reference speed and as measured."""
    cfg_path = out_dir / "configs.json"
    cfg_path.write_text(json.dumps([m["config"] for m in members], indent=1),
                        encoding="utf-8")
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               str(cfg_path)], cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["failed_builds"]:
            raise RuntimeError(f"{probe['failed_builds']} configs failed to build")
        samples.append((probe["setup_s"] * probe["speed_factor"], probe["setup_s"]))
    return (statistics.median(s for s, _ in samples),
            statistics.median(w for _, w in samples))


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "folsys").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(workload, seed, seconds, trace, members) -> dict:
    import numpy
    import scipy

    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_commit": git_commit(), "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "members": len(members),
            "configs_sha256": scenarios.configs_digest(members)}


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, members=None, setup_repeats: int = SETUP_REPEATS,
                 tamper=None) -> dict:
    """Run one workload and return the result plus what the summary prints."""
    import oracles
    import tracing

    if members is None:
        members = scenarios.generate(workload, seed)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    info = manifest(workload, seed, seconds, int(trace), members)
    (out_dir / "manifest.json").write_text(json.dumps(info, indent=1) + "\n",
                                           encoding="utf-8")
    if not trace:
        setup_s, setup_wall = measure_setup(members, out_dir, setup_repeats)

    verifier = oracles.Verifier()
    phases = [run_phase(cli, scenarios.first_of_each_kind(members), 0.0,
                        verifier, out_dir, "warmup", tamper=tamper)]
    if not trace:
        timed = run_phase(cli, members, seconds, verifier, out_dir, "timed",
                          tamper=tamper)
        phases.append(timed)
    else:
        untraced = run_phase(cli, members, seconds / 2, verifier, out_dir,
                             "untraced", tamper=tamper)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            timed = run_phase(cli, members, seconds / 2, verifier, out_dir,
                              "traced", tracer=tracer, tamper=tamper)
        finally:
            tracer.uninstall()
        tracer.write(out_dir)
        phases += [untraced, timed]

    attempted = sum(len(p["times"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    notes, lost = [], []
    if trace:
        metrics = tracer.metrics(timed["passes"], untraced["rate"], timed["rate"])
        lost = [name for name in REQUIRED_NONZERO.get(workload, ())
                if not metrics[name]["value"] > 0]
        notes += [f"coverage lost: {name} is 0" for name in lost]
        notes.append("exact counts identical in every traced pass: "
                     f"{'yes' if tracer.passes_identical() else 'NO'}")
    else:
        tail, pct = tail_of(timed["times"])
        values = {
            "setup_s": setup_s,
            "scenarios_per_s": timed["rate"],
            "scenario_s.p50": statistics.median(timed["times"]),
            "scenario_s.tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "verified.ratio": (attempted - len(failures)) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
        notes.append(f"scenario_s.tail is p{pct:.2f} of {len(timed['times'])} "
                     f"timed scenarios over {len(members)} configs")
        notes.append(f"as measured, without speed scaling: setup_s {setup_wall:.6g} s, "
                     f"scenarios_per_s {timed['wall_rate']:.6g} 1/s, scenario_s.p50 "
                     f"{statistics.median(timed['wall']):.6g} s, scenario_s.tail "
                     f"{tail_of(timed['wall'])[0]:.6g} s")
    notes.append(f"failed.ratio = {len(failures)}/{attempted} = "
                 f"{len(failures) / attempted:.6g} (1)")
    notes.append(f"oracle comparisons {verifier.oracle_checks}, worst error "
                 f"{verifier.oracle_worst:.3e}; repeat comparisons "
                 f"{verifier.repeat_checks}")
    result = {"correct": not failures and not lost,
              "attempted": attempted, "failed": len(failures), "metrics": metrics}
    (out_dir / "result.json").write_text(
        json.dumps({"result": result, "notes": notes, "failures": failures},
                   indent=1) + "\n", encoding="utf-8")
    return {"result": result, "manifest": info, "notes": notes,
            "failures": failures}


def print_summary(workload: str, outcome: dict) -> None:
    import tracing

    moves = {row[0]: f"  (moves {row[3]} on {row[4]})" for row in tracing.PER_LAYER}
    print("manifest " + json.dumps(outcome["manifest"], sort_keys=True))
    for name, m in outcome["result"]["metrics"].items():
        print(f"{workload:<16} {name:<38} {m['value']:>14.6g} {m['unit']}"
              + moves.get(name, ""))
    for note in outcome["notes"]:
        print(f"{workload:<16} {note}")
    for failure in outcome["failures"][:20]:
        print(f"{workload:<16} FAILED {failure['scenario']}: "
              + "; ".join(failure["problems"]))
    print(json.dumps(outcome["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=scenarios.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds",
                                 str(args.seconds), "--trace", str(args.trace)],
                                check=False).returncode
                 for w in scenarios.WORKLOADS]
        return max(codes)

    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS  # read when numpy loads BLAS
    try:
        cli = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    out_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        outcome = run_workload(cli, args.workload, args.seed, args.seconds,
                               bool(args.trace), out_dir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_summary(args.workload, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
