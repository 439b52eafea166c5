"""Superposition rules: representation and verification.

A rule is a pair of maps on the last axis of arrays ``(..., N)``: psi takes
m particular solutions and a parameter k to a solution x, and its first
integral F takes (x; x_(1), ..., x_(m)) back to k.  F is constant along
joint solutions, being annihilated by the diagonal prolongation of every
realized field, and psi(sols, F(x, sols)) = x: the construction of
Carinena, Grabowski and Marmo (Rep. Math. Phys. 60, 2007), which holds
leafwise for foliated systems.  So a fit reads k off F in closed form, and
verification measures both the reconstruction over a horizon and how far F
is from a first integral.  The rules themselves are stated in closed form
with their models (``models.riccati_rule``, ``models.translation_rule``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, FolsysError
from .foliated import FoliatedSystem, assemble
from .integrate import DEFAULT_STEP, integrate
from .util import seeded_rng

FIRST_INTEGRAL_EPS = 1e-6


@dataclass(frozen=True)
class SuperpositionRule:
    """psi: (x_(1), ..., x_(m); k) -> x and its first integral
    F: (x; x_(1), ..., x_(m)) -> k, both on the last axis of arrays
    ``(..., state_dim)``; F returns ``(..., param_dim)``.  The m + 1 points
    of a trial are drawn at least ``min_separation`` apart (sup norm), and
    ``tolerance`` bounds the sup reconstruction error of the runs."""

    m: int
    state_dim: int
    param_dim: int
    psi: Callable[[Sequence[np.ndarray], np.ndarray], np.ndarray]
    F: Callable[[np.ndarray, Sequence[np.ndarray]], np.ndarray]
    vg_dim: int | None = None
    min_separation: float = 0.0
    tolerance: float = 1e-8

    def __post_init__(self):
        # necessary count: m * dim(O) must cover the algebra dimension
        if self.vg_dim is not None and self.m * self.param_dim < self.vg_dim:
            raise ValueError(
                f"parameter count too small: m*param_dim = "
                f"{self.m * self.param_dim} < algebra dimension {self.vg_dim}"
            )


def apply_rule(rule: SuperpositionRule, sols: Sequence[np.ndarray], k) -> np.ndarray:
    sols = [np.asarray(s, dtype=float) for s in sols]
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if len(sols) != rule.m:
        raise DimensionMismatchError(f"rule expects {rule.m} particular solutions")
    for s in sols:
        if s.shape[-1:] != (rule.state_dim,):
            raise DimensionMismatchError(f"states must have dimension {rule.state_dim}")
    if k.size != rule.param_dim:
        raise DimensionMismatchError(f"parameter must have dimension {rule.param_dim}")
    return np.asarray(rule.psi(sols, k), dtype=float)


def solve_parameters(rule: SuperpositionRule, sols0: Sequence[np.ndarray],
                     target0) -> np.ndarray:
    """The parameter k = F(target0, sols0) of target0 in the rule."""
    return np.asarray(rule.F(np.asarray(target0, dtype=float),
                             [np.asarray(s, dtype=float) for s in sols0]), dtype=float)


def first_integral_residual(rule: SuperpositionRule, fs: FoliatedSystem,
                            joint) -> float:
    """Max |X_a^[m+1] F| / max(1, |F|) over joint points, realized fields X_a
    and components of F.

    ``joint`` is a block ``(..., m+1, N)`` holding the m particular solutions,
    then x.  A field acts on the last axis, so its value on the block is its
    diagonal prolongation Z, and the derivative of F along Z is the central
    difference (F(p + eps Z) - F(p - eps Z)) / 2 eps, eps = 1e-6.
    """
    joint = np.asarray(joint, dtype=float)
    m, eps = rule.m, FIRST_INTEGRAL_EPS
    if joint.shape[-2:] != (m + 1, rule.state_dim):
        raise DimensionMismatchError(
            f"joint points must have shape (..., {m + 1}, {rule.state_dim}), "
            f"got {joint.shape}")

    def F(p):
        return np.asarray(rule.F(p[..., m, :], [p[..., i, :] for i in range(m)]),
                          dtype=float)

    scale = np.maximum(1.0, np.abs(F(joint)))
    worst = []
    for X in fs.realized.fields:
        Z = X(joint)
        dF = (F(joint + eps * Z) - F(joint - eps * Z)) / (2.0 * eps)
        worst.append(np.max(np.abs(dF) / scale))
    return float(np.max(worst))  # np.max keeps a NaN


@dataclass(frozen=True)
class RuleReport:
    max_reconstruction_error: float
    first_integral: float


def _sample_on_leaf(fs: FoliatedSystem, rng, count: int,
                    min_separation: float = 0.0) -> np.ndarray:
    """Draw ``count`` points ``(count, N)`` that share one random leaf of the
    foliation, each attempt in one draw."""
    chart = fs.chart
    box = fs.realized.box
    if chart.n_labels and not chart.is_split:
        raise ValueError("leaf sampling needs a split chart")
    labels = box.sample(rng)[chart.leaf_dim:] if chart.n_labels else None
    for _ in range(200):
        pts = box.sample_many(rng, count)
        if labels is not None:
            pts[:, chart.leaf_dim:] = labels
        if min_separation <= 0.0 or _separated(pts, min_separation):
            return pts
    raise FolsysError("could not draw separated sample points")


def _separated(pts: np.ndarray, eps: float) -> bool:
    """Whether no two of the points ``(P, N)`` are less than eps apart in the
    sup norm."""
    gaps = np.abs(pts[:, None] - pts[None]).max(axis=-1)
    return not np.any(gaps[np.triu_indices(len(pts), 1)] < eps)


def rule_points(rule: SuperpositionRule, fs: FoliatedSystem, trials: int = 3,
                seed: int = 42) -> np.ndarray:
    """Initial points ``(trials * (m+1), N)`` of the rule runs, trial by trial:
    rule.m particular initial conditions, then one target, on a common random
    leaf drawn from its own generator ``seed + trial``."""
    # independent, reproducible trials
    return np.concatenate([_sample_on_leaf(fs, seeded_rng(seed + trial), rule.m + 1,
                                           rule.min_separation)
                           for trial in range(trials)])


def rule_report(rule: SuperpositionRule, fs: FoliatedSystem, states,
                trials: int) -> RuleReport:
    """Measure the runs ``states`` ``(T, trials * (m+1), N)`` of the points
    drawn by ``rule_points``, sampled on one grid.

    Per trial, read k = F(target(t0), sols(t0)), then rebuild the whole grid in
    one rule call and measure the sup reconstruction error; the first-integral
    residual is measured on the joint points at t0.
    """
    m = rule.m
    # axes (time, trial, solution, state): m particular solutions, then the target
    runs = states.reshape(len(states), trials, m + 1, fs.dim)
    errs = []
    for trial in range(trials):
        sols, target = runs[:, trial, :m], runs[:, trial, m]
        k = solve_parameters(rule, list(sols[0]), target[0])
        rec = apply_rule(rule, list(sols.swapaxes(0, 1)), k)
        errs.append(np.max(np.abs(rec - target)))
    # np.max keeps a NaN that the builtin max would drop
    return RuleReport(max_reconstruction_error=float(np.max(errs)),
                      first_integral=first_integral_residual(rule, fs, runs[0]))


def verify_rule(rule: SuperpositionRule, fs: FoliatedSystem,
                horizon: tuple[float, float], trials: int = 3, seed: int = 42,
                h: float = DEFAULT_STEP) -> RuleReport:
    """Empirical check that one parameter fit at t0 reconstructs the target for all t:
    the points of ``rule_points``, integrated together as one batch over the
    horizon, measured by ``rule_report``."""
    pts = rule_points(rule, fs, trials, seed)
    traj = integrate(assemble(fs), pts, *horizon, h)
    return rule_report(rule, fs, traj.states, trials)

