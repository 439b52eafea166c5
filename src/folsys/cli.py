"""Scenario runner: bind models and checks into reproducible experiments.

Configs are JSON.  Mathematical expressions for Hamiltonians and frequency
laws use a small whitelisted grammar (+, -, *, /, **, sin, cos, pow, numbers
and the variables t, P1..Pn, I), compiled once into closures over a
validated AST, never through eval().
"""
from __future__ import annotations

import argparse
import ast
import dataclasses
import itertools
import json
import math
import operator
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import models as mdl
from .algebra import builtin_algebra, killing_form, InvariantMetric
from .automorphic import MATRIX, reconstruction_error
from .errors import ConfigError, FolsysError
from .fields import TDependentVectorField
from .foliated import assemble, leaf_drift, leaf_of, sup_drift, verify_foliated
from .integrate import (Trajectory, convergence_order, convergence_steps,
                        integrate, order_from_finals, trajectory_to_csv)
from .poisson import (adjoint_foliated_system, check_rmatrix_hamiltonian,
                      is_foliated_lie_hamilton, jacobiator, kirillov_bivector,
                      linear_coordinates, poisson_bracket,
                      rmatrix_bivector_aff)
from .superposition import rule_points, rule_report
from .util import coordinate_function, seeded_rng

PARAM_NAMES = {"riccati": ("a0", "a1", "a2"),
               "hamilton_jacobi": ("n", "hamiltonian"),
               "lax": ("n", "hamiltonian"),
               "ermakov": ("omega2", "c1", "c2")}
REPORT_FORMATS = ("json", "csv")
RULE_TRIALS = 3
MAX_STEPS = 10 ** 6  # cap on (t1 - t0) / step, the RK4 steps of one grid
# cap on samples x batch rows x state dim of the scenario's RK4 batch: 40 MB
# of states, and below 0.8 GB with the transient text of trajectory.csv
MAX_STATE_VALUES = 5 * 10 ** 6
# matrix entries of one block of samples of the spectrum check: the (2n, 2n)
# block matrices of 2**16 // (2n)**2 samples, about 2 MB at their peak
SPECTRUM_BLOCK = 2 ** 16


def _divide(a, b):
    # Python floats raise on a zero divisor; numpy would give inf or nan
    if np.count_nonzero(b) < np.size(b):
        raise ZeroDivisionError("float division by zero")
    return a / b


def _power(a, b):
    # float_power rounds through libm pow like math.pow; np.power can
    # differ in the last bit.  Finite operands with a non-finite result are
    # what Python raises on: overflow, a zero base with a negative exponent,
    # and a negative base with a fractional exponent (a complex power)
    out = np.float_power(a, b)
    if np.count_nonzero(np.isfinite(a) & np.isfinite(b) & ~np.isfinite(out)):
        raise ArithmeticError("power out of range or not real")
    return out


def _periodic(scalar_fn, array_fn):
    def call(a):
        if isinstance(a, float):
            return scalar_fn(a)  # raises on infinities, as Python does
        if np.count_nonzero(np.isinf(a)):
            raise ValueError("math domain error")
        return array_fn(a)
    return call


def _apply(fn, operands):
    """Closure calling ``fn`` on the values of one or two operand closures."""
    if len(operands) == 1:
        (a,) = operands
        return lambda args: fn(a(args))
    a, b = operands
    return lambda args: fn(a(args), b(args))


# name -> (function, number of arguments)
_ALLOWED_CALLS = {"sin": (_periodic(math.sin, np.sin), 1),
                  "cos": (_periodic(math.cos, np.cos), 1),
                  "pow": (_power, 2)}
_ALLOWED_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                   ast.Mult: operator.mul, ast.Div: _divide, ast.Pow: _power}


def compile_expression(text: str, variables: tuple[str, ...]):
    """Compile a whitelisted arithmetic expression to a function ``f(*values)``.

    ``f`` takes one value per name in ``variables``, positionally and in that
    order: floats or arrays, which broadcast against each other.  The AST is
    validated once, here, and turned into nested closures, so a call visits
    no AST node and builds no dict.  Every element gets the value and the
    error of Python float arithmetic: ``+ - *`` overflow to inf, while a zero
    divisor, an overflowing or complex power and ``sin``/``cos`` of an
    infinity raise ConfigError if they occur in any element.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {text!r}: {exc}") from exc

    def build(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
            return _apply(_ALLOWED_BINOPS[type(node.op)],
                          [build(node.left), build(node.right)])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            operand = build(node.operand)
            if isinstance(node.op, ast.UAdd):
                return operand
            return _apply(operator.neg, [operand])
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name)
                    and node.func.id in _ALLOWED_CALLS
                    and not node.keywords):
                raise ConfigError(f"call not allowed in expression: {ast.dump(node)}")
            fn, arity = _ALLOWED_CALLS[node.func.id]
            if len(node.args) != arity:
                raise ConfigError(f"{node.func.id}() takes {arity} argument(s), "
                                  f"got {len(node.args)} in {text!r}")
            return _apply(fn, [build(a) for a in node.args])
        if isinstance(node, ast.Name):
            if node.id not in variables:
                raise ConfigError(
                    f"unknown variable {node.id!r}; allowed: {sorted(variables)}")
            return operator.itemgetter(variables.index(node.id))
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ConfigError(f"non-numeric constant: {node.value!r}")
            try:
                constant = float(node.value)
            except OverflowError as exc:
                raise ConfigError(f"constant out of float range in {text!r}") from exc
            return lambda args: constant
        raise ConfigError(f"forbidden syntax in expression: {type(node).__name__}")

    # the checks above raise where Python would; numpy warns nowhere (the
    # decorator form of errstate costs less per call than the with block)
    body = np.errstate(all="ignore")(build(tree.body))

    def value(*args):
        try:
            return body(args)
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise ConfigError(f"expression {text!r} cannot be evaluated: {exc}") from exc

    return value


def _number(section: dict, key: str, default):
    value = section.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a finite number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


@dataclass(frozen=True)
class ScenarioConfig:
    model: str
    params: dict = field(default_factory=dict)
    t0: float = 0.0
    t1: float = 2.0
    step: float = 1e-3
    checks: tuple[str, ...] = ()
    seed: int = 42
    initial_state: tuple | None = None
    out: str = "out"
    fmt: str = "json"

    def __post_init__(self):
        # also covers values set after parsing, such as --step
        for name in ("t0", "t1", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.t1 > self.t0:
            raise ConfigError("need t1 > t0")
        if not 0.0 < self.step <= self.t1 - self.t0:
            raise ConfigError(
                f"step must lie in (0, t1 - t0 = {self.t1 - self.t0}], got {self.step}")
        if not (self.t1 - self.t0) / self.step <= MAX_STEPS:
            raise ConfigError(f"step {self.step} makes {(self.t1 - self.t0) / self.step:.6g} "
                              f"steps from t0 to t1; at most {MAX_STEPS} are allowed")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.fmt not in REPORT_FORMATS:
            raise ConfigError(f"format must be one of {REPORT_FORMATS}, got {self.fmt!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        model = raw.get("model")
        if model not in mdl.MODEL_NAMES:
            raise ConfigError(f"unknown model {model!r}; known: {mdl.MODEL_NAMES}")
        integ = raw.get("integration", {})
        params = raw.get("params", {})
        for key, section in (("integration", integ), ("params", params)):
            if not isinstance(section, dict):
                raise ConfigError(f"{key} must be a JSON object, got {section!r}")
        t0 = _number(integ, "t0", 0.0)
        t1 = _number(integ, "t1", 2.0)
        step = _number(integ, "step", 1e-3)
        params = dict(params)
        unknown = sorted(set(params) - set(PARAM_NAMES[model]))
        if unknown:
            raise ConfigError(f"unknown {model} params {unknown}; "
                              f"known: {PARAM_NAMES[model]}")
        if model in ("hamilton_jacobi", "lax"):
            n = params.get("n", 2)
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ConfigError(f"n must be an integer >= 1, got {n!r}")
        checks = raw.get("checks", [])
        if not isinstance(checks, list):
            raise ConfigError(f"checks must be a list, got {checks!r}")
        checks = tuple(checks)
        for c in checks:
            if c not in CHECKS:
                raise ConfigError(f"unknown check {c!r}; known: {tuple(CHECKS)}")
        init = raw.get("initial_state")
        if init is not None:
            # one flat state: a nested list would reach the integrator as a batch
            if not (isinstance(init, list)
                    and all(isinstance(v, (int, float)) for v in init)):
                raise ConfigError(f"initial_state must be a list of numbers, got {init!r}")
            init = tuple(init)
        return cls(model=model, params=params,
                   t0=t0, t1=t1, step=step, checks=checks,
                   seed=raw.get("seed", 42),
                   initial_state=init,
                   out=str(raw.get("out", "out")),
                   fmt=raw.get("format", "json"))


@dataclass(frozen=True)
class CheckReport:
    check: str
    model: str
    value: float
    tolerance: float
    runtime_s: float
    seed: int

    @property
    def status(self) -> str:
        return "pass" if self.value <= self.tolerance else "fail"

    def to_dict(self) -> dict:
        return {"check": self.check, "model": self.model, "status": self.status,
                "value": self.value, "tolerance": self.tolerance,
                "runtime_s": self.runtime_s, "seed": self.seed}


def _expr_coeff(value, variables):
    if isinstance(value, (int, float)):
        return lambda *args: float(value)
    if isinstance(value, str):
        return compile_expression(value, variables)
    raise ConfigError(f"coefficient must be a number or expression: {value!r}")


def build_bundle(cfg: ScenarioConfig) -> mdl.ModelBundle:
    p = cfg.params
    if cfg.model == "riccati":
        names = ("a0", "a1", "a2")
        defaults = (1.0, 0.0, -1.0)
        spec = mdl.RiccatiSpec(*[_expr_coeff(p.get(nm, dv), ("t",))
                                 for nm, dv in zip(names, defaults)])
        return mdl.riccati_system(spec)
    if cfg.model in ("hamilton_jacobi", "lax"):
        n = p.get("n", 2)
        ham = p.get("hamiltonian", "sum_cos")
        if ham == "sum_cos":
            spec = mdl.sum_cos_spec(n)
        else:
            variables = ("t",) + tuple(f"P{i + 1}" for i in range(n))
            fn = compile_expression(str(ham), variables)

            def H(t, P):
                # .T splits off the last axis and puts the result back;
                # times, one per point, are laid out like the columns
                if isinstance(t, np.ndarray):
                    t = np.broadcast_to(t, P.shape[:-1]).T
                v = fn(t, *P.T)
                # one value per point, also where the expression has no P
                return v.T if isinstance(v, np.ndarray) else np.broadcast_to(
                    v, P.shape[:-1])

            spec = mdl.HamiltonJacobiSpec(n=n, H=H)
        if cfg.model == "hamilton_jacobi":
            return mdl.hj_system(spec)
        return mdl.lax_system(mdl.lax_from_hamiltonian(n, spec.gradient))
    if cfg.model == "ermakov":
        omega2 = p.get("omega2", "1+0.1*sin(t)")
        spec = mdl.ErmakovSpec(
            omega2=_expr_coeff(omega2, ("t", "I")),
            c1=_number(p, "c1", 1.0), c2=_number(p, "c2", 1.0))
        bundle = mdl.ermakov_system(spec)
        if spec.c1 == 0.0 and spec.c2 == 0.0:
            # only the uncoupled member admits the linear group action
            bundle = dataclasses.replace(bundle,
                                         action=mdl.ermakov_matrix_action(spec))
        return bundle
    raise ConfigError(f"unknown model {cfg.model!r}")


def _coarse_step(cfg: ScenarioConfig) -> float:
    """Coarsest step h of the convergence runs, which use h, h/2 and h/4."""
    return (cfg.t1 - cfg.t0) / 50.0


@dataclass(frozen=True)
class Scenario:
    """What the checks read: the config, the bundle, its assembled field F,
    the trajectory, the rule runs on its grid or the error they raised, and
    the final states of the convergence runs when the joint batch ran them."""

    cfg: ScenarioConfig
    bundle: mdl.ModelBundle
    F: TDependentVectorField
    traj: Trajectory
    rule_runs: np.ndarray | FolsysError | None = None
    finals: np.ndarray | None = None


def _foliated(s: Scenario):
    rep = verify_foliated(s.bundle.system, trials=100, seed=s.cfg.seed,
                          t_range=(s.cfg.t0, s.cfg.t1))
    yield [("foliated.com_residual", rep.com_residual, 1e-6),
           ("foliated.chart_residual", rep.chart_residual, 1e-6),
           ("foliated.rank", rep.rank_shortfall, 0.0),
           ("foliated.structure", rep.structure_residual, 1e-6)]


def _leaf_drift(s: Scenario):
    chart = s.bundle.system.chart
    drift = leaf_drift(s.traj, chart)
    if chart.is_split:
        yield [("leaf_drift", drift, 0.0)]
    else:
        # conserved labels rather than coordinates: drift relative to x0's
        ref = float(np.max(np.abs(leaf_of(chart, s.traj.states[0]))))
        yield [("leaf_drift.relative", drift / max(ref, 1e-30), 1e-6)]


def _superposition(s: Scenario):
    if isinstance(s.rule_runs, FolsysError):
        raise s.rule_runs
    rep = rule_report(s.bundle.rule, s.bundle.system, s.rule_runs, RULE_TRIALS)
    tol = 1e-6 if s.bundle.name == "riccati" else 1e-8
    yield [("superposition.reconstruction", rep.max_reconstruction_error, tol),
           ("superposition.first_integral", rep.first_integral, 1e-8)]


def _automorphic(s: Scenario):
    err = reconstruction_error(s.bundle.system, s.bundle.action, s.traj, seed=s.cfg.seed)
    tol = 1e-6 if s.bundle.action.kind == MATRIX else 1e-8
    yield [("automorphic.reconstruction", err, tol)]


def _poisson(s: Scenario):
    """Structure-constant bracket, r-matrix and Hamiltonianity checks, which
    do not read the scenario's model."""
    rng = seeded_rng(s.cfg.seed)
    sl2 = builtin_algebra("sl2")
    metric = InvariantMetric(sl2, killing_form(sl2))
    L = kirillov_bivector(sl2, metric)
    lin = linear_coordinates(metric)
    c = sl2.structure
    pts = rng.uniform(-2.0, 2.0, size=(100, 3))
    vals = [f(pts) for f in lin]
    worst = 0.0
    for a in range(3):
        for b in range(3):
            lhs = poisson_bracket(L, lin[a], lin[b], pts)
            rhs = sum(c[a, b, g] * vals[g] for g in range(3))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    yield [("poisson.kirillov_identity", worst, 1e-12)]

    coords = [coordinate_function(i, 3) for i in range(3)]
    worst = float(np.max(np.abs(jacobiator(L, *coords, pts))))
    yield [("poisson.kirillov_jacobiator", worst, 1e-10)]

    adj = adjoint_foliated_system(sl2, metric)
    residuals = is_foliated_lie_hamilton(adj, L, lin, trials=100, seed=s.cfg.seed)
    yield [("poisson.adjoint_hamiltonian", max(residuals), 1e-8)]

    Lr = rmatrix_bivector_aff(2)
    aff_pts = np.column_stack([rng.uniform(0.5, 2.0, 100),
                               rng.uniform(-1.0, 1.0, 100),
                               rng.uniform(0.5, 2.0, 100),
                               rng.uniform(-1.0, 1.0, 100)])
    coords4 = [coordinate_function(i, 4) for i in range(4)]
    worst = max(float(np.max(np.abs(jacobiator(Lr, *triple, aff_pts))))
                for triple in itertools.combinations(coords4, 3))
    yield [("poisson.rmatrix_jacobiator", worst, 1e-10)]

    checks = check_rmatrix_hamiltonian(2, aff_pts[:50])
    yield [("poisson.rmatrix_hamiltonian", max(ch.residual for ch in checks), 1e-8)]


def _spectrum(s: Scenario):
    bundle, traj = s.bundle, s.traj
    # (2n, 2n) matrices per sample, taken a block of samples at a time
    size = max(1, SPECTRUM_BLOCK // (2 * bundle.spec.n) ** 2)
    drift = sup_drift(bundle.observables["spectrum"], traj.states, size)
    yield [("spectrum.drift", drift, 1e-12)]
    # the Lax-pair form: the assembled field is [V, M] at every state
    gaps = []
    for i in range(0, len(traj), size):
        t, x = traj.times[i:i + size], traj.states[i:i + size]
        gaps.append(np.max(np.abs(s.F.func(t, x) - mdl.lax_pair_rhs(bundle.spec, t, x))))
    yield [("spectrum.lax_pair", np.max(gaps), 1e-12)]  # np.max keeps a NaN


def _lewis(s: Scenario):
    obs = s.bundle.observables["lewis"]
    drift = sup_drift(obs, s.traj.states)
    ref = abs(obs(s.traj.states[0]))
    yield [("lewis.relative_drift", drift / max(ref, 1e-30), 1e-6)]


def _convergence(s: Scenario):
    if s.finals is None:
        order = convergence_order(s.F, s.traj.states[0], s.cfg.t0, s.cfg.t1,
                                  _coarse_step(s.cfg))
    else:
        order = order_from_finals(*s.finals)
    yield [("convergence.order_gap", abs(order - 4.0), 0.5)]


@dataclass(frozen=True)
class Check:
    """A generator of a check's rows, which yields groups of ``(row, value,
    tolerance)`` from one Scenario, and what the bundle must carry for it:
    ``"rule"``, ``"action"``, the name of an observable, or None."""

    rows: Callable[[Scenario], Iterator[list[tuple[str, float, float]]]]
    needs: str | None = None


CHECKS = {
    "foliated": Check(_foliated),
    "leaf_drift": Check(_leaf_drift),
    "superposition": Check(_superposition, "rule"),
    "automorphic": Check(_automorphic, "action"),
    "poisson": Check(_poisson),
    "spectrum": Check(_spectrum, "spectrum"),
    "lewis": Check(_lewis, "lewis"),
    "convergence": Check(_convergence),
}


def run(cfg: ScenarioConfig) -> tuple[list[CheckReport], dict]:
    """Execute the scenario; returns reports and the written data files.

    The scenario trajectory and the superposition trials share one RK4 batch:
    x0 is the row after the trials, on the scenario grid.  When convergence
    is requested too and the scenario step is at most the finest
    convergence step (t1 - t0)/200, x0 is added once per convergence step,
    each row on its own grid, so one loop serves the trajectory and both
    checks.  If that batch raises, the runs are made as without
    convergence, and the convergence runs follow, each raising as it would
    then.  A batch of more than MAX_STATE_VALUES sampled values is a
    ConfigError raised before any output.  Each requested check's entry of
    CHECKS then reads one Scenario; the rows it yields together share a
    ``runtime_s``.
    """
    bundle = build_bundle(cfg)
    for name in cfg.checks:
        need = CHECKS[name].needs
        if need and bundle.observables.get(need, getattr(bundle, need, None)) is None:
            raise ConfigError(f"check {name!r} not supported for {bundle.name}: "
                              f"the model carries no {need}")
    x0 = bundle.default_state
    if cfg.initial_state is not None:
        x0 = np.asarray(cfg.initial_state, dtype=float)
        if x0.size != bundle.system.dim:
            raise ConfigError(f"initial_state must have {bundle.system.dim} entries "
                              f"for {bundle.name}, got {x0.size}")
    conv = convergence_steps(_coarse_step(cfg))
    join = "convergence" in cfg.checks and cfg.step <= min(conv)
    rows = 1
    if "superposition" in cfg.checks:
        rows += RULE_TRIALS * (bundle.rule.m + 1) + (len(conv) if join else 0)
    # time_grid has at most floor((t1 - t0) / step + 1e-9) + 2 samples
    samples = math.floor((cfg.t1 - cfg.t0) / cfg.step + 1e-9) + 2
    values = samples * rows * bundle.system.dim
    if values > MAX_STATE_VALUES:
        raise ConfigError(f"the RK4 batch would hold {values} state values ({rows} rows "
                          f"of dimension {bundle.system.dim}); at most "
                          f"{MAX_STATE_VALUES} are allowed")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    F = assemble(bundle.system)
    grid = (cfg.t0, cfg.t1, cfg.step)
    traj = rule_runs = finals = joint = None
    if "superposition" in cfg.checks:
        try:
            pts = rule_points(bundle.rule, bundle.system, RULE_TRIALS, cfg.seed,
                              bundle.extras.get("rule_min_separation", 0.0))
            if join:
                try:
                    joint = integrate(F, np.vstack([pts, x0] + [x0] * len(conv)),
                                      cfg.t0, cfg.t1,
                                      [cfg.step] * (len(pts) + 1) + list(conv))
                except FolsysError:
                    pass  # the separate runs below raise in their own place
                else:
                    finals = joint.states[-1, -len(conv):]
            if joint is None:
                joint = integrate(F, np.vstack([pts, x0]), *grid)
        except FolsysError as exc:
            # a failing trial must not cost the scenario its trajectory:
            # x0 is integrated alone below, and the check raises exc
            rule_runs = exc
        else:
            # batch rows are elementwise: row len(pts) is x0 integrated alone,
            # copied to the contiguous layout it has there
            traj = Trajectory(joint.times,
                              np.ascontiguousarray(joint.states[:, len(pts)]),
                              joint.step)
            rule_runs = joint.states[:, :len(pts)]
    if traj is None:
        traj = integrate(F, x0, *grid)
    traj_path = out_dir / "trajectory.csv"
    trajectory_to_csv(traj, traj_path)
    scenario = Scenario(cfg, bundle, F, traj, rule_runs, finals)
    reports = []
    # each group of rows is timed from the end of the one before it
    start = time.perf_counter()
    for name in cfg.checks:
        for group in CHECKS[name].rows(scenario):
            end = time.perf_counter()
            reports += [CheckReport(check=row, model=bundle.name, value=float(value),
                                    tolerance=float(tol), runtime_s=end - start,
                                    seed=cfg.seed)
                        for row, value, tol in group]
            start = end
    reports.sort(key=lambda r: (r.check, r.model))
    return reports, {"trajectory": str(traj_path)}


def report_render(reports: list[CheckReport], out_dir, fmt: str = "json") -> dict:
    """Write the machine-readable report and print a table; deterministic order.

    ``report.json`` is strict JSON: a NaN or infinite value is written as
    the string ``repr(value)``, ``"nan"``, ``"inf"`` or ``"-inf"``;
    ``report.csv`` keeps it a number."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [r.to_dict() for r in sorted(reports, key=lambda r: (r.check, r.model))]
    json_path = out_dir / "report.json"
    json_rows = [dict(r, value=r["value"] if math.isfinite(r["value"])
                      else repr(r["value"])) for r in rows]
    with json_path.open("w", encoding="utf-8") as fh:
        json.dump(json_rows, fh, indent=2, allow_nan=False)
        fh.write("\n")
    written = {"report_json": str(json_path)}
    if fmt == "csv":
        csv_path = out_dir / "report.csv"
        with csv_path.open("w", encoding="utf-8") as fh:
            fh.write("check,model,status,value,tolerance,runtime_s,seed\n")
            for r in rows:
                fh.write(f"{r['check']},{r['model']},{r['status']},"
                         f"{r['value']:.17g},{r['tolerance']:.17g},"
                         f"{r['runtime_s']:.6f},{r['seed']}\n")
        written["report_csv"] = str(csv_path)
    width = max([len(r["check"]) for r in rows], default=10)
    print(f"{'check':<{width}}  {'model':<16} {'status':<6} {'value':>12}  tolerance")
    for r in rows:
        print(f"{r['check']:<{width}}  {r['model']:<16} {r['status']:<6} "
              f"{r['value']:>12.3e}  {r['tolerance']:.1e}")
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="folsys",
        description="Run verification scenarios for foliated systems of ODEs.")
    parser.add_argument("--config", type=str, help="path to a JSON scenario config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--step", type=float, default=None, help="override step size")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--format", choices=REPORT_FORMATS, default=None,
                        help="report format (json always written; csv adds report.csv)")
    parser.add_argument("--list-models", action="store_true",
                        help="list registered model names and exit")
    args = parser.parse_args(argv)

    if args.list_models:
        for name in mdl.MODEL_NAMES:
            print(name)
        return 0
    if not args.config:
        parser.error("--config is required unless --list-models is given")
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        cfg = ScenarioConfig.from_dict(raw)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.step is not None:
            cfg = dataclasses.replace(cfg, step=args.step)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out=args.out)
        if args.format is not None:
            cfg = dataclasses.replace(cfg, fmt=args.format)
        reports, _ = run(cfg)
        report_render(reports, cfg.out, fmt=cfg.fmt)
    except (ConfigError, FolsysError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.status == "pass" for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
