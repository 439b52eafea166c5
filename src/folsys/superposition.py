"""Superposition rules: representation, closed-form derivation, verification.

A rule is stored as a total map psi on N^m x O.  For leaf-preserving rules
the leaf-restriction property is checked statistically, not enforced by the
type.  Parameter matching uses damped Gauss-Newton with seeded multistarts:
existence and (generic) uniqueness of the parameter is a property of the
rule, not something the solver can certify globally, so reports carry the
achieved residual.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (AbelianDerivationError, DimensionMismatchError,
                     NoParameterFoundError, SingularCombinationError)
from .fields import (diagonal_prolongation, directional_derivative,
                     minimal_particular_solutions)
from .foliated import FoliatedSystem, assemble
from .integrate import DEFAULT_STEP, integrate
from .util import jacobian_fd, seeded_rng

GN_TOL = 1e-10
GN_ACCEPT = 1e-8
GN_STARTS = 8
GN_MAX_ITER = 60


@dataclass(frozen=True)
class SuperpositionRule:
    """Map (x_(1), ..., x_(m); k) -> x on the last axis of arrays ``(..., state_dim)``."""

    m: int
    state_dim: int
    param_dim: int
    psi: Callable[[Sequence[np.ndarray], np.ndarray], np.ndarray]
    leaf_preserving: bool = False
    chart: object = None
    vg_dim: int | None = None
    name: str = ""

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
                     target0, seed: int = 42, starts: int = GN_STARTS,
                     tol: float = GN_TOL, max_iter: int = GN_MAX_ITER,
                     ) -> tuple[np.ndarray, float]:
    """Find k with psi(sols0, k) = target0 by multistart damped Gauss-Newton."""
    target0 = np.asarray(target0, dtype=float)
    rng = seeded_rng(seed)
    scale = max(1.0, float(np.max(np.abs(target0))),
                *(float(np.max(np.abs(s))) for s in sols0))

    def residual(k):
        try:
            return apply_rule(rule, sols0, k) - target0
        except (SingularCombinationError, ArithmeticError):
            return None

    def probe(k):
        # finite-difference probe: a singular combination reads as infinite
        r = residual(k)
        return np.full(target0.size, np.inf) if r is None else r

    def refine(k):
        r = residual(k)
        if r is None:
            return None, np.inf
        rn = float(np.linalg.norm(r))
        for _ in range(max_iter):
            if rn <= tol:
                break
            J = jacobian_fd(probe, k)
            if not np.all(np.isfinite(J)):
                break
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
            if not np.all(np.isfinite(step)) or np.linalg.norm(step) == 0.0:
                break
            lam = 1.0
            improved = False
            for _ in range(30):
                cand = k + lam * step
                rc = residual(cand)
                if rc is not None:
                    rcn = float(np.linalg.norm(rc))
                    if rcn < rn:
                        k, r, rn = cand, rc, rcn
                        improved = True
                        break
                lam *= 0.5
            if not improved:
                break
        return k, rn

    best_k, best_rn = None, np.inf
    for trial in range(starts):
        if trial == 0:
            k0 = np.zeros(rule.param_dim)
        else:
            k0 = rng.uniform(-2.0 * scale, 2.0 * scale, size=rule.param_dim)
        k, rn = refine(k0)
        if rn < best_rn:
            best_k, best_rn = k, rn
        if best_rn <= tol:
            break
    if best_k is None or best_rn > GN_ACCEPT:
        raise NoParameterFoundError(
            f"no parameter found: best residual {best_rn:.3e}"
        )
    return best_k, best_rn


def first_integral_residual(fs: FoliatedSystem, candidates: Sequence[Callable],
                            samples: Sequence[np.ndarray]) -> float:
    """Max |X_a^[copies] Psi_i| over samples, fields a and candidates i.

    Joint points are laid out slot by slot, slot 0 first:
    (x_(0), x_(1), ..., x_(m)).
    """
    n = fs.dim
    worst = 0.0
    for xi in samples:
        xi = np.asarray(xi, dtype=float)
        if xi.size % n != 0:
            raise DimensionMismatchError("joint point size must be a multiple of the state dim")
        copies = xi.size // n
        prolonged = [diagonal_prolongation(X, copies) for X in fs.realized.fields]
        for Z in prolonged:
            for psi_i in candidates:
                worst = max(worst, abs(directional_derivative(Z, psi_i, xi)))
    return worst


@dataclass(frozen=True)
class RuleReport:
    max_reconstruction_error: float
    param_solve_residual: float


def _sample_on_leaf(fs: FoliatedSystem, rng, count: int,
                    min_separation: float = 0.0) -> list[np.ndarray]:
    """Draw ``count`` points that share one random leaf of the foliation."""
    chart = fs.chart
    box = fs.realized.box
    if chart.n_labels == 0:
        for _ in range(200):
            pts = [box.sample(rng) for _ in range(count)]
            if min_separation <= 0.0 or _separated(pts, min_separation):
                return pts
        raise RuntimeError("could not draw separated sample points")
    if not chart.is_split:
        raise ValueError("leaf sampling needs a split chart")
    labels = box.sample(rng)[chart.leaf_dim:]
    for _ in range(200):
        pts = []
        for _ in range(count):
            x = box.sample(rng)
            x[chart.leaf_dim:] = labels
            pts.append(x)
        if min_separation <= 0.0 or _separated(pts, min_separation):
            return pts
    raise RuntimeError("could not draw separated sample points")


def _separated(pts, eps: float) -> bool:
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.max(np.abs(pts[i] - pts[j])) < eps:
                return False
    return True


def verify_rule(rule: SuperpositionRule, fs: FoliatedSystem,
                horizon: tuple[float, float], trials: int = 3, seed: int = 42,
                h: float = DEFAULT_STEP, min_separation: float = 0.0) -> RuleReport:
    """Empirical check that one parameter fit at t0 reconstructs the target for all t.

    Per trial: draw rule.m particular initial conditions and one target on a
    common random leaf, solve psi(sols(t0), k) = target(t0), then rebuild the
    whole grid in one rule call and measure the sup reconstruction error.  The
    solutions of all trials are integrated together as one batch.
    """
    t0, t1 = horizon
    m = rule.m
    pts = []
    for trial in range(trials):
        rng = seeded_rng(seed + trial)  # independent, reproducible trials
        pts += _sample_on_leaf(fs, rng, m + 1, min_separation=min_separation)
    traj = integrate(assemble(fs), np.array(pts), t0, t1, h)
    # axes (time, trial, solution, state): m particular solutions, then the target
    runs = traj.states.reshape(len(traj), trials, m + 1, fs.dim)
    max_err = 0.0
    max_param_res = 0.0
    for trial in range(trials):
        sols, target = runs[:, trial, :m], runs[:, trial, m]
        k, res = solve_parameters(rule, list(sols[0]), target[0], seed=seed + trial)
        max_param_res = max(max_param_res, res)
        rec = apply_rule(rule, list(sols.swapaxes(0, 1)), k)
        max_err = max(max_err, float(np.max(np.abs(rec - target))))
    return RuleReport(max_reconstruction_error=max_err,
                      param_solve_residual=max_param_res)


def derive_abelian_rule(fs: FoliatedSystem, seed: int = 42,
                        check_points: int = 25) -> SuperpositionRule:
    """Closed-form leaf-preserving rule for abelian translation realizations.

    Requires a split chart and verifies numerically that every realized field
    is a constant translation along the leaf coordinates.  The rule is then
    psi(x_(1), k) = x_(1) + (k, 0): the leaf coordinates move by k, the
    labels stay.
    """
    alg = fs.realized.algebra
    if not alg.is_abelian:
        raise AbelianDerivationError(
            "abelian derivation inapplicable: algebra is not abelian"
        )
    chart = fs.chart
    if not chart.is_split:
        raise AbelianDerivationError(
            "abelian derivation inapplicable: chart is not split"
        )
    rng = seeded_rng(seed)
    pts = fs.realized.box.sample_many(rng, check_points)
    s = chart.leaf_dim
    for X in fs.realized.fields:
        rows = np.asarray([X(x) for x in pts])
        if np.max(np.abs(rows[:, s:])) > 1e-8:
            raise AbelianDerivationError(
                "abelian derivation inapplicable: fields leak into leaf labels"
            )
        if np.max(np.abs(rows - rows[0])) > 1e-8:
            raise AbelianDerivationError(
                "abelian derivation inapplicable: fields are not constant translations"
            )
    m = minimal_particular_solutions(fs.realized, seed=seed)

    def psi(sols, k):
        out = np.array(sols[0], dtype=float)
        out[..., :s] += k
        return out

    return SuperpositionRule(
        m=m, state_dim=fs.dim, param_dim=s, psi=psi,
        leaf_preserving=True, chart=chart, vg_dim=alg.dim,
        name=f"{fs.name}-translation-rule" if fs.name else "translation-rule",
    )
