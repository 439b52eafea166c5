"""Spans and exact counts at folsys layer boundaries, recorded from outside.

``Tracer.install`` rebinds each public function listed in BOUNDARIES in
every ``folsys`` module that binds it (so ``folsys.superposition.integrate``
and ``folsys.cli.integrate`` are both wrapped), patches ``GroupAction.exp``,
and makes ``assemble`` return a field whose calls are timed.  ``uninstall``
restores the originals.  No file of the program changes.

Every wrapped call opens a frame on one stack; its duration is added to the
parent frame, so self time is duration minus the time covered by children.
Recorded boundaries keep one span each (name, start, end, parent span,
scenario).  Hot boundaries (right-hand sides, finite differences, rule
applications, brackets, group exponentials) are called up to 10^5 times per
scenario, so they keep only per-name counts and times.  Times are scaled
per scenario to reference speed (reference.py), like the end-to-end ones.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

_perf = time.perf_counter


def _integrate_done(counts, result, args, parent):
    counts["integrate.steps"] += len(result) - 1
    counts["integrate.state_bytes"] += result.states.nbytes
    counts[f"integrate.calls_from:{parent}"] += 1


def _csv_done(counts, result, args, parent):
    counts["integrate.csv_bytes"] += Path(args[1]).stat().st_size


def _group_done(counts, result, args, parent):
    counts["automorphic.group_steps"] += len(result) - 1


def _fit_done(counts, result, args, parent):
    counts["superposition.fits_returned"] += 1


# (module, attribute, span name, keeps one span per call, result hook)
BOUNDARIES = (
    ("folsys.cli", "run", "cli.run", True, None),
    ("folsys.cli", "build_bundle", "cli.build_bundle", True, None),
    ("folsys.cli", "report_render", "cli.report_render", True, None),
    ("folsys.integrate", "integrate", "integrate", True, _integrate_done),
    ("folsys.integrate", "trajectory_to_csv", "integrate.csv", True, _csv_done),
    ("folsys.integrate", "convergence_order", "integrate.convergence_order", True, None),
    ("folsys.foliated", "verify_foliated", "foliated.verify", True, None),
    ("folsys.foliated", "leaf_drift", "foliated.leaf_drift", True, None),
    ("folsys.foliated", "leaf_of", "foliated.leaf_of", False, None),
    ("folsys.superposition", "verify_rule", "superposition.verify_rule", True, None),
    ("folsys.superposition", "solve_parameters", "superposition.solve_parameters",
     True, _fit_done),
    ("folsys.superposition", "apply_rule", "superposition.apply_rule", False, None),
    ("folsys.automorphic", "reconstruction_error", "automorphic.reconstruction_error",
     True, None),
    ("folsys.automorphic", "reduce_system", "automorphic.reduce", True, None),
    ("folsys.automorphic", "solve_matrix", "automorphic.solve_matrix", True, _group_done),
    ("folsys.automorphic", "solve_abelian", "automorphic.solve_abelian", True, _group_done),
    ("folsys.automorphic", "reconstruct", "automorphic.reconstruct", True, None),
    ("folsys.poisson", "poisson_bracket", "poisson.bracket", False, None),
    ("folsys.poisson", "jacobiator", "poisson.jacobiator", False, None),
    ("folsys.poisson", "is_foliated_lie_hamilton", "poisson.lie_hamilton", True, None),
    ("folsys.poisson", "check_rmatrix_hamiltonian", "poisson.rmatrix_hamiltonian",
     True, None),
    ("folsys.fields", "directional_derivative", "fields.directional_derivative",
     False, None),
    ("folsys.fields", "rank_at", "fields.rank_at", False, None),
    ("folsys.util", "grad_fd", "util.grad_fd", False, None),
    ("folsys.util", "jacobian_fd", "util.jacobian_fd", False, None),
)

# name, unit, better, and the end-to-end metric and workload a change to
# the layer should move.  These are the per-layer metrics of BENCHMARK.json,
# per pass over the workload's configs; counts come from the last pass.
RF, OO, GR = "rule-fit", "one-orbit", "group-reduction"
_RATE = "scenarios_per_s"
_P50 = "scenario_s.p50"
_TAIL = "scenario_s.tail"
PER_LAYER = (
    ("integrate.calls", "count", "lower", _RATE, f"{RF} (most), {OO}"),
    ("integrate.steps", "count", "lower", _RATE, f"{RF} (most), {OO}"),
    ("integrate.self_s", "s", "lower", _RATE, f"{RF} (most), {OO}; small on {GR}"),
    ("integrate.us_per_step", "us", "lower", _RATE, f"{RF} (most), {OO}"),
    ("integrate.state_bytes", "B", "lower", "peak_rss_mb", OO),
    ("integrate.csv_s", "s", "lower", _P50, OO),
    ("integrate.csv_bytes", "B", "lower", _P50, OO),
    ("integrate.convergence_order_s", "s", "lower", _P50, OO),
    ("foliated.rhs_evals", "count", "lower", _RATE, f"{RF} vs {OO}"),
    ("foliated.rhs_s", "s", "lower", _RATE, f"{RF} vs {OO}"),
    ("foliated.rhs_us", "us", "lower", _RATE, f"{RF} vs {OO}"),
    ("foliated.verify_s", "s", "lower", _P50, f"{OO}, {GR}"),
    ("foliated.leaf_drift_s", "s", "lower", _P50, f"{OO}, {GR}"),
    ("foliated.leaf_of_calls", "count", "lower", _P50, f"{OO}, {GR}"),
    ("superposition.verify_rule_s", "s", "lower", _TAIL, RF),
    ("superposition.trajectories", "count", "lower", _TAIL, RF),
    ("superposition.solve_parameters_s", "s", "lower", _TAIL, RF),
    ("superposition.apply_rule_calls", "count", "lower", _TAIL, RF),
    ("superposition.apply_rule_s", "s", "lower", _TAIL, RF),
    ("superposition.fit.accept_ratio", "1", "higher", _TAIL, RF),
    ("automorphic.reconstruction_error_s", "s", "lower", _TAIL, GR),
    ("automorphic.reduce_s", "s", "lower", _TAIL, GR),
    ("automorphic.exp_calls", "count", "lower", _TAIL, GR),
    ("automorphic.solve_matrix_s", "s", "lower", _TAIL, GR),
    ("automorphic.solve_abelian_s", "s", "lower", _TAIL, GR),
    ("automorphic.group_steps", "count", "lower", _TAIL, GR),
    ("automorphic.reconstruct_s", "s", "lower", _TAIL, GR),
    ("poisson.bracket_calls", "count", "lower", _P50, GR),
    ("poisson.jacobiator_calls", "count", "lower", _P50, GR),
    ("poisson.jacobiator_s", "s", "lower", _P50, GR),
    ("poisson.lie_hamilton_s", "s", "lower", _P50, GR),
    ("poisson.rmatrix_hamiltonian_s", "s", "lower", _P50, GR),
    ("fields.directional_derivative_calls", "count", "lower", _P50, f"{OO}, {GR}"),
    ("fields.rank_at_calls", "count", "lower", _P50, f"{OO}, {GR}"),
    ("util.grad_fd_calls", "count", "lower", _P50, f"{OO}, {GR}"),
    ("util.jacobian_fd_calls", "count", "lower", _P50, f"{OO}, {GR}"),
    ("cli.integrate_calls", "count", "lower", _RATE, f"{OO}; unchanged on {RF}"),
    ("cli.run.self_s", "s", "lower", _RATE, OO),
    ("cli.report_render_s", "s", "lower", _RATE, OO),
    ("cli.build_bundle_s", "s", "lower", "setup_s", "all"),
    ("trace.overhead_per_s", "1/s", "lower", "none (tracing cost)", "all"),
)

# counts that must repeat bit for bit between runs with one seed
EXACT_COUNTS = ("integrate.steps", "foliated.rhs_evals",
                "superposition.apply_rule_calls", "automorphic.exp_calls",
                "cli.integrate_calls")


class _Frame:
    __slots__ = ("name", "child", "span")

    def __init__(self, name, span):
        self.name = name
        self.child = 0.0
        self.span = span


class Tracer:
    """In-memory spans and counters for one traced phase."""

    def __init__(self):
        self.scenario = ""
        self.spans: list[list] = []
        # name -> [calls, total seconds, self seconds]; ``stats`` holds the
        # current scenario as measured, ``totals`` every finished scenario
        # at reference speed
        self.stats: dict[str, list] = {}
        self.totals: dict[str, list] = {}
        self.speed_factors: dict[str, float] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[_Frame] = []
        self._undo: list[tuple] = []
        self._passes: list[dict] = []

    # -- recording ---------------------------------------------------------
    def call(self, name, keep_span, hook, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_span = parent.span if parent is not None else -1
        span = parent_span
        if keep_span:
            span = len(self.spans)
            self.spans.append(None)
        frame = _Frame(name, span)
        stack.append(frame)
        start = _perf()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = _perf()
            stack.pop()
            dur = end - start
            own = dur - frame.child
            if parent is not None:
                parent.child += dur
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += own
            if keep_span:
                self.spans[span] = [name, start, end, parent_span, self.scenario, own]
            if ok and hook is not None:
                hook(self.counts, result, args,
                     parent.name if parent is not None else "")

    def end_scenario(self, factor: float):
        """Fold the scenario's times, scaled to reference speed, into totals."""
        for name, (calls, total, own) in self.stats.items():
            acc = self.totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total * factor
            acc[2] += own * factor
        self.stats.clear()
        self.speed_factors[self.scenario] = factor

    def end_pass(self):
        """Snapshot cumulative counts; the last two snapshots give one pass."""
        snap = {name: st[0] for name, st in self.totals.items()}
        snap.update(self.counts)
        self._passes.append(snap)

    # -- patching ----------------------------------------------------------
    def install(self):
        import folsys.automorphic
        import folsys.fields
        import folsys.foliated

        modules = [m for n, m in sys.modules.items()
                   if n.startswith("folsys.") and m is not None]
        for modname, attr, name, keep, hook in BOUNDARIES:
            original = getattr(sys.modules[modname], attr)
            self._rebind(modules, original, self._wrap(name, keep, hook, original))

        tracer = self
        base_call = folsys.fields.TDependentVectorField.__call__

        class TracedField(folsys.fields.TDependentVectorField):
            def __call__(self, t, x):
                return tracer.call("foliated.rhs", False, None, base_call,
                                   (self, t, x), {})

        assemble = folsys.foliated.assemble

        def traced_assemble(fs):
            F = assemble(fs)
            return TracedField(F.dim, F.func, domain=F.domain, name=F.name)

        self._rebind(modules, assemble, traced_assemble)
        action = folsys.automorphic.GroupAction
        exp = action.exp
        action.exp = self._wrap("automorphic.exp", False, None, exp)
        self._undo.append((action, "exp", exp))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name, keep, hook, fn):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, keep, hook, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    # -- reporting ---------------------------------------------------------
    def pass_counts(self) -> list[dict]:
        """Calls and counters of each traced pass."""
        out, prev = [], {}
        for snap in self._passes:
            out.append({k: v - prev.get(k, 0) for k, v in snap.items()})
            prev = snap
        return out

    def passes_identical(self) -> bool:
        per_pass = self.pass_counts()
        return all(p == per_pass[0] for p in per_pass)

    def metrics(self, passes: int, untraced_rate: float, traced_rate: float) -> dict:
        """Per-layer metrics, times per pass and counts of the last pass.

        ``integrate.self_s`` is the RK4 loop without the assembled RHS (the
        group RHS of solve_abelian is not assembled, so it stays in);
        ``integrate.us_per_step`` is the whole integrate time per step;
        ``*_us`` ratios use every traced pass.
        """
        c = self.pass_counts()[-1]
        total = {k: st[1] for k, st in self.totals.items()}
        own = {k: st[2] for k, st in self.totals.items()}
        calls = {k: st[0] for k, st in self.totals.items()}

        def t(name):
            return total.get(name, 0.0) / passes

        def per_call_us(name, count):
            return 1e6 * total.get(name, 0.0) / count if count else 0.0

        all_steps = self.counts.get("integrate.steps", 0)
        fits = c.get("superposition.solve_parameters", 0)
        values = {
            "integrate.calls": c.get("integrate", 0),
            "integrate.steps": c.get("integrate.steps", 0),
            "integrate.self_s": own.get("integrate", 0.0) / passes,
            "integrate.us_per_step": per_call_us("integrate", all_steps),
            "integrate.state_bytes": c.get("integrate.state_bytes", 0),
            "integrate.csv_s": t("integrate.csv"),
            "integrate.csv_bytes": c.get("integrate.csv_bytes", 0),
            "integrate.convergence_order_s": t("integrate.convergence_order"),
            "foliated.rhs_evals": c.get("foliated.rhs", 0),
            "foliated.rhs_s": t("foliated.rhs"),
            "foliated.rhs_us": per_call_us("foliated.rhs", calls.get("foliated.rhs", 0)),
            "foliated.verify_s": t("foliated.verify"),
            "foliated.leaf_drift_s": t("foliated.leaf_drift"),
            "foliated.leaf_of_calls": c.get("foliated.leaf_of", 0),
            "superposition.verify_rule_s": t("superposition.verify_rule"),
            "superposition.trajectories":
                c.get("integrate.calls_from:superposition.verify_rule", 0),
            "superposition.solve_parameters_s": t("superposition.solve_parameters"),
            "superposition.apply_rule_calls": c.get("superposition.apply_rule", 0),
            "superposition.apply_rule_s": t("superposition.apply_rule"),
            "superposition.fit.accept_ratio":
                c.get("superposition.fits_returned", 0) / fits if fits else 0.0,
            "automorphic.reconstruction_error_s": t("automorphic.reconstruction_error"),
            "automorphic.reduce_s": t("automorphic.reduce"),
            "automorphic.exp_calls": c.get("automorphic.exp", 0),
            "automorphic.solve_matrix_s": t("automorphic.solve_matrix"),
            "automorphic.solve_abelian_s": t("automorphic.solve_abelian"),
            "automorphic.group_steps": c.get("automorphic.group_steps", 0),
            "automorphic.reconstruct_s": t("automorphic.reconstruct"),
            "poisson.bracket_calls": c.get("poisson.bracket", 0),
            "poisson.jacobiator_calls": c.get("poisson.jacobiator", 0),
            "poisson.jacobiator_s": t("poisson.jacobiator"),
            "poisson.lie_hamilton_s": t("poisson.lie_hamilton"),
            "poisson.rmatrix_hamiltonian_s": t("poisson.rmatrix_hamiltonian"),
            "fields.directional_derivative_calls":
                c.get("fields.directional_derivative", 0),
            "fields.rank_at_calls": c.get("fields.rank_at", 0),
            "util.grad_fd_calls": c.get("util.grad_fd", 0),
            "util.jacobian_fd_calls": c.get("util.jacobian_fd", 0),
            "cli.integrate_calls": c.get("integrate.calls_from:cli.run", 0)
                + c.get("integrate.calls_from:integrate.convergence_order", 0),
            "cli.run.self_s": own.get("cli.run", 0.0) / passes,
            "cli.report_render_s": t("cli.report_render"),
            "cli.build_bundle_s": t("cli.build_bundle"),
            "trace.overhead_per_s": untraced_rate - traced_rate,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit, *_ in PER_LAYER}

    def write(self, out_dir: Path) -> None:
        """Spans as JSON lines (as measured), then per-name call counts and
        times at reference speed, and each scenario's speed factor."""
        with (out_dir / "spans.jsonl").open("w", encoding="utf-8") as fh:
            for name, start, end, parent, scenario, own in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "scenario": scenario,
                                     "self": own}) + "\n")
        summary = {name: {"calls": st[0], "total_s": st[1], "self_s": st[2]}
                   for name, st in sorted(self.totals.items())}
        summary["counts"] = dict(sorted(self.counts.items()))
        summary["speed_factors"] = self.speed_factors
        (out_dir / "layers.json").write_text(json.dumps(summary, indent=1) + "\n",
                                             encoding="utf-8")
