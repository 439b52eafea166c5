"""Reduction of a foliated system to a group-valued system and reconstruction.

Sign bookkeeping, fixed once and used everywhere: the fundamental vector
field of a generator v is X_v(x) = d/ds|_{s=0} act(exp(-s v), x), so the
compatibility gate checks d/ds|_0 act(exp(+s A_a), x) = -X_a(x).  The
reduced group system carries coefficients c_a(t,k) = -g_a(t,k); solving
lambda' = c (abelian) or g' = (sum_a c_a A_a) g (matrix) from the identity
and mapping x(t) = act(g(t), x0) reproduces the original flow.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .algebra import LieAlgebra
from .errors import DimensionMismatchError, IncompatibleActionError
from .fields import TDependentVectorField, VectorField
from .foliated import FoliatedSystem, leaf_of
from .integrate import DEFAULT_STEP, Trajectory, integrate
from .util import seeded_rng

GATE_TOL = 1e-6
GATE_POINTS = 100
_FD_EPS = 1e-6
_DET_FLOOR = 1e-12

ABELIAN = "abelian"
MATRIX = "matrix"


@dataclass(frozen=True)
class GroupAction:
    """Left action of an abelian or matrix group on R^N.

    ``generators`` pairs with the realized fields of the system being
    reduced: generators[a] corresponds to field X_a.  For abelian groups a
    generator is a vector in the group's R^r; for matrix groups a d x d
    algebra matrix A_a with right-invariant field A_a g.
    """

    kind: str
    act: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity: np.ndarray
    generators: tuple[np.ndarray, ...]
    name: str = ""

    def __post_init__(self):
        if self.kind not in (ABELIAN, MATRIX):
            raise ValueError(f"unknown group kind: {self.kind!r}")
        gens = tuple(np.asarray(g, dtype=float) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "identity", np.asarray(self.identity, dtype=float))

    def exp(self, coeff: float, index: int) -> np.ndarray:
        """Group element exp(coeff * A_index)."""
        A = self.generators[index]
        if self.kind == ABELIAN:
            return coeff * A
        return scipy.linalg.expm(coeff * A)

    def compose(self, g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
        if self.kind == ABELIAN:
            return g1 + g2
        return g1 @ g2


def action_consistency_residual(action: GroupAction, points: Sequence[np.ndarray],
                                seed: int = 42, group_samples: int = 20) -> float:
    """Residual of act(e, x) = x and act(g h, x) = act(g, act(h, x)) at samples."""
    rng = seeded_rng(seed)
    worst = 0.0
    r = len(action.generators)
    for x in points:
        x = np.asarray(x, dtype=float)
        worst = max(worst, float(np.max(np.abs(action.act(action.identity, x) - x))))
        for _ in range(group_samples):
            c1, c2 = rng.uniform(-0.5, 0.5, size=2)
            i1, i2 = rng.integers(0, r, size=2)
            g1 = action.exp(float(c1), int(i1))
            g2 = action.exp(float(c2), int(i2))
            lhs = action.act(action.compose(g1, g2), x)
            rhs = action.act(g1, action.act(g2, x))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def fundamental_field_residual(action: GroupAction, fields: Sequence[VectorField],
                               points: Sequence[np.ndarray]) -> float:
    """Max deviation of d/ds|_0 act(exp(s A_a), x) from -X_a(x)."""
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        for a, X in enumerate(fields):
            gp = action.exp(_FD_EPS, a)
            gm = action.exp(-_FD_EPS, a)
            d = (action.act(gp, x) - action.act(gm, x)) / (2.0 * _FD_EPS)
            worst = max(worst, float(np.max(np.abs(d + X(x)))))
    return worst


@dataclass(frozen=True)
class AutomorphicSystem:
    """Group-valued system g' = sum_a c_a(t,k) X^R_a(g), leafwise constant.

    ``coeffs(t, k)`` returns (c_1, ..., c_r)(t, k) as one array of shape
    ``(r,)``, one entry per generator.
    """

    kind: str
    generators: tuple[np.ndarray, ...]
    coeffs: Callable[[float, np.ndarray], np.ndarray]
    leaf_space_dim: int
    algebra: LieAlgebra | None = None

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=float) for g in self.generators)
        object.__setattr__(self, "generators", gens)

    @classmethod
    def from_reduction(cls, kind: str, generators, foliated_coeffs,
                       leaf_space_dim: int, algebra: LieAlgebra | None = None,
                       ) -> "AutomorphicSystem":
        """Build the reduced system from a foliated coefficient map (sign
        absorbed); a map that does not return one value per generator raises
        DimensionMismatchError when evaluated."""
        r = len(generators)

        def coeffs(t, k):
            c = -np.asarray(foliated_coeffs(t, k), dtype=float)
            if c.shape != (r,):
                raise DimensionMismatchError(
                    f"coefficient map returned shape {c.shape}; need {r} coefficients")
            return c

        return cls(kind=kind, generators=tuple(generators), coeffs=coeffs,
                   leaf_space_dim=leaf_space_dim, algebra=algebra)

    def generator_commutator_residual(self) -> float:
        """Defect of [A_a, A_b] = sum_g c[a,b,g] A_g for matrix generators."""
        if self.kind != MATRIX or self.algebra is None:
            raise ValueError("commutator check needs matrix generators and an algebra")
        c = self.algebra.structure
        worst = 0.0
        for a, A in enumerate(self.generators):
            for b, B in enumerate(self.generators):
                comm = A @ B - B @ A
                expected = sum(c[a, b, g] * G for g, G in enumerate(self.generators))
                worst = max(worst, float(np.max(np.abs(comm - expected))))
        return worst


@dataclass(frozen=True)
class GroupCurve:
    """Sampled curve in the group: vectors (abelian) or matrices (matrix kind)."""

    kind: str
    times: np.ndarray
    elements: np.ndarray
    step: float

    def __len__(self) -> int:
        return self.times.size


def reduce_system(fs: FoliatedSystem, action: GroupAction,
                  gate_points: int = GATE_POINTS, seed: int = 42) -> AutomorphicSystem:
    """Reduce a foliated system through a compatible group action.

    The action's generator flows are compared against the realized fields at
    seeded sample points before anything else; mismatch beyond 1e-6 raises.
    Coefficient maps are evaluated at the chart's representative point of the
    requested leaf.
    """
    if len(action.generators) != fs.realized.algebra.dim:
        raise IncompatibleActionError("one generator per realized field is required")
    rng = seeded_rng(seed)
    pts = fs.realized.box.sample_many(rng, gate_points)
    res = fundamental_field_residual(action, fs.realized.fields, pts)
    if res > GATE_TOL:
        raise IncompatibleActionError(
            f"action incompatible with realization: residual {res:.3e}"
        )
    chart = fs.chart
    if chart.leaf_point is None:
        raise IncompatibleActionError("chart has no representative-point map")

    return AutomorphicSystem.from_reduction(
        kind=action.kind, generators=action.generators,
        foliated_coeffs=lambda t, k: fs.coeffs(t, chart.leaf_point(np.atleast_1d(k))),
        leaf_space_dim=chart.n_labels,
        algebra=fs.realized.algebra,
    )


def solve_abelian(asys: AutomorphicSystem, k, t0: float, t1: float,
                  h: float = DEFAULT_STEP) -> GroupCurve:
    """Quadrature of the abelian system from the identity (lambda(t0) = 0)."""
    if asys.kind != ABELIAN:
        raise ValueError("solve_abelian requires an abelian system")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    r = len(asys.generators)
    traj = integrate(TDependentVectorField(r, lambda t, lam: asys.coeffs(t, k)),
                     np.zeros(r), t0, t1, h)
    return GroupCurve(ABELIAN, traj.times, traj.states, h)


def solve_matrix(asys: AutomorphicSystem, k, t0: float, t1: float,
                 h: float = DEFAULT_STEP) -> GroupCurve:
    """RK4 on the matrix entries of g' = (sum_a c_a(t,k) A_a) g from g(t0) = I.

    The curve is not reprojected onto the group; drift is measured by the
    caller, never corrected here.  A determinant below the floor is a domain
    exit; errors carry the flattened entries so far as ``partial``.
    """
    if asys.kind != MATRIX:
        raise ValueError("solve_matrix requires a matrix system")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    gens = asys.generators
    d = gens[0].shape[0]

    def rhs(t, g):
        M = np.zeros((d, d))
        for c, A in zip(asys.coeffs(t, k), gens):
            M += c * A
        return (M @ g.reshape(d, d)).ravel()

    def domain(g):
        return abs(np.linalg.det(g.reshape(d, d))) >= _DET_FLOOR

    F = TDependentVectorField(d * d, rhs, domain=domain)
    traj = integrate(F, np.eye(d).ravel(), t0, t1, h)
    return GroupCurve(MATRIX, traj.times, traj.states.reshape(-1, d, d), h)


def solve_group(asys: AutomorphicSystem, k, t0: float, t1: float,
                h: float = DEFAULT_STEP) -> GroupCurve:
    if asys.kind == ABELIAN:
        return solve_abelian(asys, k, t0, t1, h)
    return solve_matrix(asys, k, t0, t1, h)


def reconstruct(action: GroupAction, curve: GroupCurve, x0) -> Trajectory:
    """Trajectory with states act(g(t_i), x0)."""
    x0 = np.asarray(x0, dtype=float)
    states = np.empty((len(curve), x0.size))
    for i in range(len(curve)):
        states[i] = action.act(curve.elements[i], x0)
    return Trajectory(curve.times, states, curve.step)


def group_curve_consistency(asys: AutomorphicSystem, curve: GroupCurve, k) -> float:
    """Finite-difference defect of g' g^{-1} = sum_a c_a A_a along a matrix curve."""
    if curve.kind != MATRIX:
        raise ValueError("consistency check is for matrix curves")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    worst = 0.0
    for i in range(1, len(curve) - 1):
        dt = curve.times[i + 1] - curve.times[i - 1]
        gdot = (curve.elements[i + 1] - curve.elements[i - 1]) / dt
        lhs = gdot @ np.linalg.inv(curve.elements[i])
        rhs = sum(c * A for c, A in zip(asys.coeffs(curve.times[i], k),
                                        asys.generators))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def reconstruction_error(fs: FoliatedSystem, action: GroupAction,
                         direct: Trajectory, seed: int = 42) -> float:
    """Sup-norm gap between ``direct``, an integrated flow of ``fs``, and its
    group reconstruction from ``direct.states[0]`` on the same time grid."""
    x0 = direct.states[0]
    asys = reduce_system(fs, action, seed=seed)
    k = leaf_of(fs.chart, x0)
    curve = solve_group(asys, k, direct.times[0], direct.times[-1], direct.step)
    rec = reconstruct(action, curve, x0)
    return float(np.max(np.abs(rec.states - direct.states)))
