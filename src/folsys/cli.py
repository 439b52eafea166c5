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

import numpy as np

from . import models as mdl
from .algebra import builtin_algebra, killing_form, InvariantMetric
from .automorphic import reconstruction_error
from .errors import ConfigError, FolsysError
from .foliated import assemble, leaf_drift, sup_drift, verify_foliated
from .integrate import (Trajectory, convergence_order, integrate,
                        trajectory_to_csv)
from .poisson import (adjoint_foliated_system, check_rmatrix_hamiltonian,
                      is_foliated_lie_hamilton, jacobiator, kirillov_bivector,
                      linear_coordinates, poisson_bracket,
                      rmatrix_bivector_aff)
from .superposition import verify_rule
from .util import coordinate_function, seeded_rng

CHECK_NAMES = ("foliated", "leaf_drift", "superposition", "automorphic",
               "poisson", "spectrum", "lewis", "convergence")
PARAM_NAMES = {"riccati": ("a0", "a1", "a2"),
               "hamilton_jacobi": ("n", "hamiltonian"),
               "lax": ("n", "hamiltonian"),
               "ermakov": ("omega2", "c1", "c2")}
REPORT_FORMATS = ("json", "csv")


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
            constant = float(node.value)
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
            if c not in CHECK_NAMES:
                raise ConfigError(f"unknown check {c!r}; known: {CHECK_NAMES}")
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
                # .T splits off the last axis and puts the result back
                v = fn(t, *P.T)
                # one value per point, also where the expression has no P
                return v.T if isinstance(v, np.ndarray) else np.broadcast_to(
                    v, P.shape[:-1])

            spec = mdl.HamiltonJacobiSpec(n=n, H=H)
        if cfg.model == "hamilton_jacobi":
            return mdl.hj_system(spec)
        return mdl.lax_system(mdl.lax_from_hamiltonian(n, spec.gradient))
    if cfg.model == "ermakov":
        spec = mdl.ErmakovSpec(
            omega2=_expr_coeff(p.get("omega2", "1+0.1*sin(t)"), ("t", "I")),
            c1=_number(p, "c1", 1.0), c2=_number(p, "c2", 1.0))
        bundle = mdl.ermakov_system(spec)
        if spec.c1 == 0.0 and spec.c2 == 0.0:
            # only the uncoupled member admits the linear group action
            bundle = dataclasses.replace(bundle,
                                         action=mdl.ermakov_matrix_action(spec))
        return bundle
    raise ConfigError(f"unknown model {cfg.model!r}")


def _timed(check: str, model: str, seed: int, value: float, tol: float,
           start: float) -> CheckReport:
    return CheckReport(check=check, model=model, value=float(value),
                       tolerance=float(tol), runtime_s=time.perf_counter() - start,
                       seed=seed)


def _run_check(name: str, bundle: mdl.ModelBundle, cfg: ScenarioConfig,
               traj: Trajectory) -> list[CheckReport]:
    """Rows of one check; every check reads the scenario's trajectory ``traj``."""
    t0, t1, h, seed = cfg.t0, cfg.t1, cfg.step, cfg.seed
    start = time.perf_counter()
    model = bundle.name

    if name == "foliated":
        rep = verify_foliated(bundle.system, trials=100, seed=seed, t_range=(t0, t1))
        return [
            _timed("foliated.com_residual", model, seed, rep.com_residual, 1e-6, start),
            _timed("foliated.chart_residual", model, seed, rep.chart_residual, 1e-6, start),
            _timed("foliated.rank", model, seed, 0.0 if rep.rank_ok else 1.0, 0.0, start),
        ]

    if name == "leaf_drift":
        drift = leaf_drift(traj, bundle.system.chart)
        if model == "ermakov":
            ref = abs(mdl.lewis_invariant(bundle.spec, traj.states[0]))
            return [_timed("leaf_drift.relative", model, seed,
                           drift / max(ref, 1e-30), 1e-6, start)]
        return [_timed("leaf_drift", model, seed, drift, 0.0, start)]

    if name == "superposition":
        if bundle.rule is None:
            raise ConfigError(f"check 'superposition' not supported for {model}")
        rep = verify_rule(bundle.rule, bundle.system, (t0, t1), trials=3,
                          seed=seed, h=h,
                          min_separation=bundle.extras.get("rule_min_separation", 0.0))
        tol = 1e-6 if model == "riccati" else 1e-8
        return [_timed("superposition.reconstruction", model, seed,
                       rep.max_reconstruction_error, tol, start)]

    if name == "automorphic":
        if bundle.action is None:
            raise ConfigError(f"check 'automorphic' not supported for {model}"
                              " (ermakov requires c1 = c2 = 0)")
        err = reconstruction_error(bundle.system, bundle.action, traj, seed=seed)
        tol = 1e-6 if model == "ermakov" else 1e-8
        return [_timed("automorphic.reconstruction", model, seed, err, tol, start)]

    if name == "poisson":
        return _poisson_battery(model, seed)

    if name in ("spectrum", "lewis"):
        # conserved observables: the lax spectrum, the ermakov invariant
        obs = bundle.observables.get(name)
        if obs is None:
            raise ConfigError(f"check {name!r} not supported for {model}")
        drift = sup_drift(obs, traj.states)
        if name == "spectrum":
            return [_timed("spectrum.drift", model, seed, drift, 1e-12, start)]
        ref = abs(obs(traj.states[0]))
        return [_timed("lewis.relative_drift", model, seed,
                       drift / max(ref, 1e-30), 1e-6, start)]

    if name == "convergence":
        coarse = (t1 - t0) / 50.0
        order = convergence_order(assemble(bundle.system), traj.states[0],
                                  t0, t1, coarse)
        return [_timed("convergence.order_gap", model, seed,
                       abs(order - 4.0), 0.5, start)]

    raise ConfigError(f"unknown check {name!r}")


def _poisson_battery(model: str, seed: int) -> list[CheckReport]:
    """Structure-constant bracket, r-matrix and Hamiltonianity checks."""
    out = []
    rng = seeded_rng(seed)
    sl2 = builtin_algebra("sl2")
    metric = InvariantMetric(sl2, killing_form(sl2))
    L = kirillov_bivector(sl2, metric)
    lin = linear_coordinates(metric)
    c = sl2.structure

    start = time.perf_counter()
    pts = rng.uniform(-2.0, 2.0, size=(100, 3))
    vals = [f(pts) for f in lin]
    worst = 0.0
    for a in range(3):
        for b in range(3):
            lhs = poisson_bracket(L, lin[a], lin[b], pts)
            rhs = sum(c[a, b, g] * vals[g] for g in range(3))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(_timed("poisson.kirillov_identity", model, seed, worst, 1e-12, start))

    start = time.perf_counter()
    coords = [coordinate_function(i, 3) for i in range(3)]
    worst = float(np.max(np.abs(jacobiator(L, *coords, pts))))
    out.append(_timed("poisson.kirillov_jacobiator", model, seed, worst, 1e-10, start))

    start = time.perf_counter()
    adj = adjoint_foliated_system(sl2, metric)
    rep = is_foliated_lie_hamilton(adj, L, lin, trials=100, seed=seed)
    out.append(_timed("poisson.adjoint_hamiltonian", model, seed,
                      max(rep.residuals), 1e-8, start))
    out.append(_timed("poisson.foliated_lie_hamilton", model, seed,
                      0.0 if rep.ok else 1.0, 0.0, start))

    start = time.perf_counter()
    Lr = rmatrix_bivector_aff(2)
    aff_pts = np.column_stack([rng.uniform(0.5, 2.0, 100),
                               rng.uniform(-1.0, 1.0, 100),
                               rng.uniform(0.5, 2.0, 100),
                               rng.uniform(-1.0, 1.0, 100)])
    coords4 = [coordinate_function(i, 4) for i in range(4)]
    worst = max(float(np.max(np.abs(jacobiator(Lr, *triple, aff_pts))))
                for triple in itertools.combinations(coords4, 3))
    out.append(_timed("poisson.rmatrix_jacobiator", model, seed, worst, 1e-10, start))

    start = time.perf_counter()
    checks = check_rmatrix_hamiltonian(2, aff_pts[:50])
    out.append(_timed("poisson.rmatrix_hamiltonian", model, seed,
                      max(ch.residual for ch in checks), 1e-8, start))
    return out


def run(cfg: ScenarioConfig) -> tuple[list[CheckReport], dict]:
    """Execute the scenario; returns reports and the written data files."""
    bundle = build_bundle(cfg)
    x0 = bundle.default_state
    if cfg.initial_state is not None:
        x0 = np.asarray(cfg.initial_state, dtype=float)
        if x0.size != bundle.system.dim:
            raise ConfigError(f"initial_state must have {bundle.system.dim} entries "
                              f"for {bundle.name}, got {x0.size}")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = integrate(assemble(bundle.system), x0, cfg.t0, cfg.t1, cfg.step)
    traj_path = out_dir / "trajectory.csv"
    trajectory_to_csv(traj, traj_path)
    reports = []
    for name in cfg.checks:
        reports.extend(_run_check(name, bundle, cfg, traj))
    reports.sort(key=lambda r: (r.check, r.model))
    return reports, {"trajectory": str(traj_path)}


def report_render(reports: list[CheckReport], out_dir, fmt: str = "json") -> dict:
    """Write the machine-readable report and print a table; deterministic order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [r.to_dict() for r in sorted(reports, key=lambda r: (r.check, r.model))]
    json_path = out_dir / "report.json"
    with json_path.open("w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)
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
