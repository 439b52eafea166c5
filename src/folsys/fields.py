"""Vector fields on R^N: numeric brackets, prolongations, ranks.

Random sampling in this module is always driven by an explicit seed so that
"generic point" checks are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import algebra as la
from .errors import DimensionMismatchError, RankDeficiencyError
from .util import Box, grad_fd, jacobian_fd, seeded_rng

RANK_RTOL = 1e-10
DEFAULT_SEED = 42
PROLONGATION_CAP = 10


@dataclass(frozen=True)
class VectorField:
    """Autonomous vector field; ``jac`` is optional and analytic when given."""

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    def jacobian_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.jac is not None:
            return np.asarray(self.jac(x), dtype=float)
        return jacobian_fd(self.__call__, x)


@dataclass(frozen=True)
class TDependentVectorField:
    """Time-dependent vector field; ``domain`` guards integration when set."""

    dim: int
    func: Callable[[float, np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], bool] | None = None
    name: str = ""

    def __call__(self, t: float, x) -> np.ndarray:
        return np.asarray(self.func(float(t), np.asarray(x, dtype=float)), dtype=float)


def check_jacobian(X: VectorField, points: Sequence[np.ndarray], rtol: float = 1e-5) -> float:
    """Relative deviation of the attached Jacobian from central differences."""
    worst = 0.0
    for x in points:
        J = X.jacobian_at(np.asarray(x, dtype=float))
        J_fd = jacobian_fd(X, np.asarray(x, dtype=float))
        scale = max(1.0, float(np.max(np.abs(J_fd))))
        worst = max(worst, float(np.max(np.abs(J - J_fd))) / scale)
    return worst


def lie_bracket_at(X: VectorField, Y: VectorField, x) -> np.ndarray:
    """[X, Y](x) = J_Y(x) X(x) - J_X(x) Y(x)."""
    x = np.asarray(x, dtype=float)
    if not (X.dim == Y.dim == x.size):
        raise DimensionMismatchError("fields and point must share a dimension")
    return Y.jacobian_at(x) @ X(x) - X.jacobian_at(x) @ Y(x)


def directional_derivative(X: VectorField, f: Callable[[np.ndarray], float], x) -> float:
    """(X f)(x) = grad f(x) . X(x), gradient by central differences."""
    x = np.asarray(x, dtype=float)
    return float(grad_fd(f, x) @ X(x))


def diagonal_prolongation(X: VectorField, m: int) -> VectorField:
    """Copy of X acting identically on each of the m factors of R^{N*m}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = X.dim

    def func(xi):
        out = np.empty(n * m)
        for a in range(m):
            out[a * n:(a + 1) * n] = X(xi[a * n:(a + 1) * n])
        return out

    jac = None
    if X.jac is not None:
        def jac(xi):
            J = np.zeros((n * m, n * m))
            for a in range(m):
                sl = slice(a * n, (a + 1) * n)
                J[sl, sl] = X.jac(xi[sl])
            return J

    return VectorField(n * m, func, jac=jac, name=f"{X.name}^[{m}]" if X.name else "")


def diagonality_defect(Z: VectorField, n: int, samples: Sequence[np.ndarray]) -> float:
    """0 iff Z looks like a diagonal prolongation of a field on R^n over the samples.

    Measures (a) cross-slot locality: block a must not react when another slot
    moves, and (b) slot agreement: all blocks must realize the same function.
    """
    if Z.dim % n != 0:
        raise DimensionMismatchError("prolonged dimension must be divisible by n")
    samples = [np.asarray(s, dtype=float) for s in samples]
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    m = Z.dim // n
    defect = 0.0
    for idx, xi in enumerate(samples):
        other = samples[(idx + 1) % len(samples)]
        z0 = Z(xi)
        for b in range(m):
            moved = xi.copy()
            moved[b * n:(b + 1) * n] = other[b * n:(b + 1) * n]
            zb = Z(moved)
            for a in range(m):
                if a == b:
                    continue
                block = slice(a * n, (a + 1) * n)
                defect = max(defect, float(np.max(np.abs(zb[block] - z0[block]))))
        # all slots on the diagonal point must return the same block value
        diag = np.tile(xi[:n], m)
        zd = Z(diag)
        first = zd[:n]
        for a in range(1, m):
            defect = max(defect, float(np.max(np.abs(zd[a * n:(a + 1) * n] - first))))
    return defect


def rank_at(fields: Sequence[VectorField], x, rtol: float = RANK_RTOL):
    """Numerical rank of the N x r matrix of field values at x.

    ``x`` is one point ``(N,)``, which gives an int, or a block ``(..., N)``,
    which gives one rank per point from one stacked SVD.
    """
    x = np.asarray(x, dtype=float)
    M = np.stack([X(x) for X in fields], axis=-1)
    sv = np.linalg.svd(M, compute_uv=False)
    # a zero matrix has rank 0: no singular value exceeds rtol * 0
    ranks = np.sum(sv > rtol * sv[..., :1], axis=-1)
    return int(ranks) if x.ndim == 1 else ranks


@dataclass(frozen=True)
class RealizedAlgebra:
    """Vector-field realization of a Lie algebra on a common R^N with a sampling box."""

    algebra: la.LieAlgebra
    fields: tuple[VectorField, ...]
    box: Box

    def __post_init__(self):
        if len(self.fields) != self.algebra.dim:
            raise DimensionMismatchError("need one field per basis element")
        dims = {X.dim for X in self.fields}
        if len(dims) != 1:
            raise DimensionMismatchError("fields must share an ambient dimension")
        if self.box.dim != self.fields[0].dim:
            raise DimensionMismatchError("box dimension must match the fields")
        object.__setattr__(self, "fields", tuple(self.fields))

    @property
    def ambient_dim(self) -> int:
        return self.fields[0].dim


def structure_residual(ra: RealizedAlgebra, points: Sequence[np.ndarray]) -> float:
    """Max deviation of numeric brackets from the structure constants."""
    c = ra.algebra.structure
    worst = 0.0
    for x in points:
        vals = [X(x) for X in ra.fields]
        for a in range(ra.algebra.dim):
            for b in range(a + 1, ra.algebra.dim):
                lhs = lie_bracket_at(ra.fields[a], ra.fields[b], x)
                rhs = sum(c[a, b, g] * vals[g] for g in range(ra.algebra.dim))
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def minimal_particular_solutions(ra: RealizedAlgebra, trials: int = 5,
                                 seed: int = DEFAULT_SEED,
                                 cap: int = PROLONGATION_CAP) -> int:
    """Smallest m whose m-fold prolongations reach rank dim V at generic joint points.

    Genericity is a sampling surrogate: the rank test must succeed for a
    majority of seeded random joint points.
    """
    rng = seeded_rng(seed)
    target = ra.algebra.dim
    for m in range(1, cap + 1):
        prolonged = [diagonal_prolongation(X, m) for X in ra.fields]
        hits = 0
        for _ in range(trials):
            joint = np.concatenate([ra.box.sample(rng) for _ in range(m)])
            if rank_at(prolonged, joint) == target:
                hits += 1
        if hits > trials // 2:
            return m
    raise RankDeficiencyError(
        f"rank deficiency: prolongations reach rank < {target} for all m <= {cap}"
    )
