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
from functools import cache
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

REPORT_FORMATS = ("json", "csv")
CONFIG_KEYS = ("model", "params", "integration", "checks", "seed", "initial_state",
               "out", "format")
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


def _periodic(fn):
    def call(a):
        # math.sin and math.cos raise on infinities; numpy would give nan
        if np.count_nonzero(np.isinf(a)):
            raise ValueError("math domain error")
        return fn(a)
    return call


def _apply(fn, operands):
    """Closure calling ``fn`` on the values of one or two operand closures."""
    if len(operands) == 1:
        (a,) = operands
        return lambda args: fn(a(args))
    a, b = operands
    return lambda args: fn(a(args), b(args))


# name -> (function, number of arguments)
_ALLOWED_CALLS = {"sin": (_periodic(np.sin), 1),
                  "cos": (_periodic(np.cos), 1),
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
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
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


def _number(key: str, value):
    # a JSON number: float() would also read a boolean or a numeric string
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.inf
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
        # names are looked up in a tuple of the keys, so that a JSON list or
        # object is an unknown name and raises no TypeError (unhashable)
        if self.model not in tuple(MODELS):
            raise ConfigError(f"unknown model {self.model!r}; known: {tuple(MODELS)}")
        known = tuple(MODELS[self.model].params)
        unknown = sorted(set(self.params) - set(known))
        if unknown:
            raise ConfigError(f"unknown {self.model} params {unknown}; known: {known}")
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
        if not isinstance(self.out, str):
            raise ConfigError(f"out must be a directory name, got {self.out!r}")
        if self.fmt not in REPORT_FORMATS:
            raise ConfigError(f"format must be one of {REPORT_FORMATS}, got {self.fmt!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        integ = raw.get("integration", {})
        params = raw.get("params", {})
        for key, section in (("integration", integ), ("params", params)):
            if not isinstance(section, dict):
                raise ConfigError(f"{key} must be a JSON object, got {section!r}")
        for key, section, known in (("config", raw, CONFIG_KEYS),
                                    ("integration", integ, ("t0", "t1", "step"))):
            if set(section) - set(known):
                raise ConfigError(f"unknown {key} keys {sorted(set(section) - set(known))}; "
                                  f"known: {known}")
        times = {key: _number(key, integ[key]) for key in ("t0", "t1", "step") if key in integ}
        checks = raw.get("checks", [])
        if not isinstance(checks, list):
            raise ConfigError(f"checks must be a list, got {checks!r}")
        checks = tuple(checks)
        for c in checks:
            if c not in tuple(CHECKS):  # a tuple, as for the model name
                raise ConfigError(f"unknown check {c!r}; known: {tuple(CHECKS)}")
        if not checks or len(set(checks)) < len(checks):
            raise ConfigError(f"checks must name at least one check, each once; "
                              f"got {list(checks)}")
        init = raw.get("initial_state")
        if init is not None:
            if not isinstance(init, list):
                raise ConfigError(f"initial_state must be a list of numbers, got {init!r}")
            # one flat state: a nested list would reach the integrator as a batch
            init = tuple(_number("initial_state entry", v) for v in init)
        given = {name: raw[key] for key, name in (("seed", "seed"), ("out", "out"),
                                                  ("format", "fmt")) if key in raw}
        return cls(model=raw.get("model"), params=dict(params), checks=checks,
                   initial_state=init, **times, **given)


@dataclass(frozen=True)
class CheckReport:
    check: str
    model: str
    value: float
    tolerance: float
    measure: str
    runtime_s: float
    seed: int

    @property
    def status(self) -> str:
        return "pass" if self.value <= self.tolerance else "fail"

    def to_dict(self) -> dict:
        return {"check": self.check, "model": self.model, "status": self.status,
                "value": self.value, "tolerance": self.tolerance, "measure": self.measure,
                "runtime_s": self.runtime_s, "seed": self.seed}


def _expr_coeff(key, value, variables):
    if isinstance(value, str):
        return compile_expression(value, variables)
    number = _number(key, value)
    return lambda *args: number


def _riccati(a0, a1, a2) -> mdl.ModelBundle:
    return mdl.riccati_system(*(_expr_coeff(f"a{i}", a, ("t",))
                                for i, a in enumerate((a0, a1, a2))))


def _hamiltonian(n, hamiltonian) -> tuple[int, Callable]:
    """n and the gradient dh/dP(t, P) of the hamilton_jacobi and lax models:
    the ``sum_cos`` preset's, or that of a compiled expression h(t, P1..Pn)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError(f"n must be an integer >= 1, got {n!r}")
    # the abelian:<n> structure constants of the bundle are an (n, n, n) array
    if n ** 3 > MAX_STATE_VALUES:
        raise ConfigError(f"n = {n} needs n^3 = {n ** 3} structure constants; "
                          f"at most {MAX_STATE_VALUES} values are allowed")
    if hamiltonian == "sum_cos":
        return n, mdl.sum_cos_gradient
    variables = ("t",) + tuple(f"P{i + 1}" for i in range(n))
    fn = compile_expression(str(hamiltonian), variables)

    def H(t, P):
        # .T splits off the last axis and puts the result back;
        # times, one per point, are laid out like the columns
        v = fn(np.broadcast_to(t, P.shape[:-1]).T, *P.T)
        # one value per point, also where the expression has no P
        return v.T if isinstance(v, np.ndarray) else np.broadcast_to(v, P.shape[:-1])

    return n, mdl.hamiltonian_gradient(H)


def _ermakov(omega2, c1, c2) -> mdl.ModelBundle:
    return mdl.ermakov_system(_expr_coeff("omega2", omega2, ("t", "I")),
                              _number("c1", c1), _number("c2", c2))


@dataclass(frozen=True)
class Model:
    """A model's config ``params`` with their defaults, and ``build``, which
    takes every param as a keyword, its default filled in, and returns the
    bundle."""

    params: dict
    build: Callable[..., mdl.ModelBundle]


_HAMILTONIAN = {"n": 2, "hamiltonian": "sum_cos"}
MODELS = {
    "riccati": Model({"a0": 1.0, "a1": 0.0, "a2": -1.0}, _riccati),
    "hamilton_jacobi": Model(_HAMILTONIAN, lambda **p: mdl.hj_system(*_hamiltonian(**p))),
    "lax": Model(_HAMILTONIAN, lambda **p: mdl.lax_system(*_hamiltonian(**p))),
    "ermakov": Model({"omega2": "1+0.1*sin(t)", "c1": 1.0, "c2": 1.0}, _ermakov),
}


def build_bundle(cfg: ScenarioConfig) -> mdl.ModelBundle:
    """The bundle of ``cfg.model`` from its entry of MODELS, with the config
    params over their defaults."""
    model = MODELS[cfg.model]
    return model.build(**{**model.params, **cfg.params})


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
    yield [("foliated.com_residual", rep.com_residual),
           ("foliated.chart_residual", rep.chart_residual),
           ("foliated.rank", rep.rank_shortfall),
           ("foliated.structure", rep.structure_residual)]


def _leaf_drift(s: Scenario):
    chart = s.bundle.system.chart
    drift = leaf_drift(s.traj, chart)
    if chart.is_split:
        yield [("leaf_drift", drift)]
    else:
        # conserved labels rather than coordinates: drift relative to x0's
        ref = float(np.max(np.abs(leaf_of(chart, s.traj.states[0]))))
        yield [("leaf_drift.relative", drift / max(ref, 1e-30))]


def _superposition(s: Scenario):
    if isinstance(s.rule_runs, FolsysError):
        raise s.rule_runs
    rep = rule_report(s.bundle.rule, s.bundle.system, s.rule_runs, RULE_TRIALS)
    yield [("superposition.reconstruction", rep.max_reconstruction_error),
           ("superposition.first_integral", rep.first_integral)]


def _automorphic(s: Scenario):
    err = reconstruction_error(s.bundle.system, s.bundle.action, s.traj, seed=s.cfg.seed)
    yield [("automorphic.reconstruction", err)]


@cache
def _poisson_setup():
    """The parts of the poisson battery, none of which reads the scenario,
    built once per process: sl2's structure constants, its Kirillov
    bivector, linear coordinates, coordinate functions and adjoint system,
    and the r-matrix bivector on two affine factors with the triples of the
    coordinate functions of R^4."""
    sl2 = builtin_algebra("sl2")
    metric = InvariantMetric(sl2, killing_form(sl2))
    coords4 = [coordinate_function(i, 4) for i in range(4)]
    return (sl2.structure, kirillov_bivector(sl2, metric),
            tuple(linear_coordinates(metric)),
            tuple(coordinate_function(i, 3) for i in range(3)),
            adjoint_foliated_system(sl2, metric), rmatrix_bivector_aff(2),
            tuple(itertools.combinations(coords4, 3)))


def _poisson(s: Scenario):
    """Structure-constant bracket, r-matrix and Hamiltonianity checks, which
    do not read the scenario's model; each bivector is evaluated once a block."""
    c, L, lin, coords, adj, rmatrix, triples = _poisson_setup()
    rng = seeded_rng(s.cfg.seed)
    pts = rng.uniform(-2.0, 2.0, size=(100, 3))
    at = L.at(pts)
    vals = [f(pts) for f in lin]
    gaps = [poisson_bracket(at, lin[a], lin[b]) - sum(c[a, b, g] * vals[g] for g in range(3))
            for a, b in itertools.product(range(3), repeat=2)]
    # np.max keeps a NaN in any position, where the builtin max drops it
    yield [("poisson.kirillov_identity", float(np.max(np.abs(gaps))))]

    worst = float(np.max(np.abs(jacobiator(at, *coords))))
    yield [("poisson.kirillov_jacobiator", worst)]

    residuals = is_foliated_lie_hamilton(adj, L, lin, trials=100, seed=s.cfg.seed)
    yield [("poisson.adjoint_hamiltonian", float(np.max(residuals)))]

    aff_pts = np.column_stack([rng.uniform(0.5, 2.0, 100),
                               rng.uniform(-1.0, 1.0, 100),
                               rng.uniform(0.5, 2.0, 100),
                               rng.uniform(-1.0, 1.0, 100)])
    at = rmatrix.at(aff_pts)
    worst = np.max(np.abs([jacobiator(at, *triple) for triple in triples]))
    yield [("poisson.rmatrix_jacobiator", float(worst))]

    residuals = check_rmatrix_hamiltonian(2, aff_pts[:50])
    yield [("poisson.rmatrix_hamiltonian", float(np.max(residuals)))]


def _spectrum(s: Scenario):
    observables, traj = s.bundle.observables, s.traj
    # (2n, 2n) matrices per sample, taken a block of samples at a time
    size = max(1, SPECTRUM_BLOCK // s.bundle.system.dim ** 2)
    drift = sup_drift(observables["spectrum"], traj.states, size)
    yield [("spectrum.drift", drift)]
    # the Lax-pair form: the assembled field is [V, M] at every state
    gaps = []
    for i in range(0, len(traj), size):
        t, x = traj.times[i:i + size], traj.states[i:i + size]
        gaps.append(np.max(np.abs(s.F.func(t, x) - observables["lax_pair"](t, x))))
    yield [("spectrum.lax_pair", np.max(gaps))]  # np.max keeps a NaN


def _lewis(s: Scenario):
    obs = s.bundle.observables["lewis"]
    drift = sup_drift(obs, s.traj.states)
    ref = abs(obs(s.traj.states[0]))
    yield [("lewis.relative_drift", drift / max(ref, 1e-30))]


def _convergence(s: Scenario):
    if s.finals is None:
        order = convergence_order(s.F, s.traj.states[0], s.cfg.t0, s.cfg.t1,
                                  _coarse_step(s.cfg))
    else:
        order = order_from_finals(*s.finals)
    yield [("convergence.order_gap", abs(order - 4.0))]


@dataclass(frozen=True)
class Check:
    """A generator of a check's rows, which yields groups of ``(row, value)``
    (ROWS holds the rest) from one Scenario, and all it reads of the bundle
    but the system and default state: ``"rule"``, ``"action"``, observables."""

    rows: Callable[[Scenario], Iterator[list[tuple[str, float]]]]
    needs: tuple[str, ...] = ()


CHECKS = {
    "foliated": Check(_foliated),
    "leaf_drift": Check(_leaf_drift),
    "superposition": Check(_superposition, ("rule",)),
    "automorphic": Check(_automorphic, ("action",)),
    "poisson": Check(_poisson),
    "spectrum": Check(_spectrum, ("spectrum", "lax_pair")),
    "lewis": Check(_lewis, ("lewis",)),
    "convergence": Check(_convergence),
}


def rule_tolerance(bundle: mdl.ModelBundle) -> float:
    return bundle.rule.tolerance


def action_tolerance(bundle: mdl.ModelBundle) -> float:
    return 1e-6 if bundle.action.kind == MATRIX else 1e-8


# row -> (tolerance, subject, measure): the tolerance is a number or, where the
# model sets it, a function of the bundle; the subject (the row's ``model``) is
# None for the scenario's model
ROWS = {
    "foliated.com_residual": (1e-6, None, "max abs X_a(g_b) at 100 sampled (t, x)"),
    "foliated.chart_residual": (1e-6, None, "max abs X_a(label_j) at 100 sampled x"),
    "foliated.rank": (0.0, None, "max(0, leaf dim - least rank of the X_a) at 100 sampled x"),
    "foliated.structure": (1e-6, None, "max abs([X_a, X_b] - c_ab^g X_g) at 100 sampled x"),
    "leaf_drift": (0.0, None, "sup over the trajectory of abs(label(x_k) - label(x_0))"),
    "leaf_drift.relative": (1e-6, None, "leaf drift / max(max abs label(x_0), 1e-30)"),
    "superposition.reconstruction": (rule_tolerance, None, "sup abs(rule(x_1..m(t), k) - x(t))"),
    "superposition.first_integral": (1e-8, None, "max abs(X_a F) / max(1, abs F) at t0"),
    "automorphic.reconstruction": (action_tolerance, None, "sup abs(g(t) x_0 - x(t))"),
    "poisson.kirillov_identity": (1e-12, "sl2-kirillov", "max abs({f_a, f_b} - c_ab^g f_g)"),
    "poisson.kirillov_jacobiator": (1e-10, "sl2-kirillov", "max abs Jacobiator of coordinates"),
    "poisson.adjoint_hamiltonian": (1e-8, "sl2-adjoint", "max abs(X_a + i_df_a Lambda)"),
    "poisson.rmatrix_jacobiator": (1e-10, "aff2-rmatrix", "max abs Jacobiator of coordinates"),
    "poisson.rmatrix_hamiltonian": (1e-8, "aff2-rmatrix", "max abs(X_e + i_dH_e Lambda)"),
    "spectrum.drift": (1e-12, None, "sup over samples of the drift of the sorted spectrum"),
    "spectrum.lax_pair": (1e-12, None, "sup over samples of abs(F(t, x) - [V, M](t, x))"),
    "lewis.relative_drift": (1e-6, None, "sup abs(I(x_k) - I(x_0)) / max(abs I(x_0), 1e-30)"),
    "convergence.order_gap": (0.5, None, "abs(p - 4), p the RK4 order from runs at h = "
                              "(t1 - t0)/50, h/2, h/4; runtime_s excludes runs in the batch"),
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
    CHECKS then reads one Scenario and yields groups of ``(row, value)``;
    each row's tolerance, subject and measure come from ROWS, and the rows
    of one group share a ``runtime_s``.
    """
    bundle = build_bundle(cfg)
    for name in cfg.checks:
        for need in CHECKS[name].needs:
            if bundle.observables.get(need, getattr(bundle, need, None)) is None:
                raise ConfigError(f"check {name!r} not supported for {bundle.system.name}: "
                                  f"the model carries no {need}")
    x0 = bundle.default_state
    if cfg.initial_state is not None:
        x0 = np.asarray(cfg.initial_state, dtype=float)
        if x0.size != bundle.system.dim:
            raise ConfigError(f"initial_state must have {bundle.system.dim} entries "
                              f"for {bundle.system.name}, got {x0.size}")
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
            pts = rule_points(bundle.rule, bundle.system, RULE_TRIALS, cfg.seed)
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
            for row, value in group:
                tol, subject, measure = ROWS[row]
                reports.append(CheckReport(
                    check=row, model=subject or bundle.system.name, value=float(value),
                    tolerance=float(tol(bundle) if callable(tol) else tol),
                    measure=measure, runtime_s=end - start, seed=cfg.seed))
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
        for name in MODELS:
            print(name)
        return 0
    if not args.config:
        parser.error("--config is required unless --list-models is given")
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        given = {"seed": args.seed, "step": args.step, "out": args.out, "fmt": args.format}
        cfg = dataclasses.replace(ScenarioConfig.from_dict(raw),
                                  **{k: v for k, v in given.items() if v is not None})
        reports, _ = run(cfg)
        report_render(reports, cfg.out, fmt=cfg.fmt)
    except (ConfigError, FolsysError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.status == "pass" for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
