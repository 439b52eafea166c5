"""Poisson bivectors from structure constants and r-matrices.

Contraction sign fixed globally: (i_{df} Lambda)^i = sum_j Lambda^{ij} d_j f,
and the Hamiltonian field of f is X_f = -i_{df} Lambda, the sign every
shipped candidate has; a field of the opposite sign is not Hamiltonian for f.

Bivectors carry analytic coefficient derivatives and candidate functions
carry an analytic ``gradient`` (and a ``hessian`` for the Jacobiator), so
bracket and Jacobiator checks are limited by roundoff, not finite
differences.

Everything here takes one point ``(N,)`` or a block of points ``(..., N)``;
products are taken per point in the order of the one-point formulas, so a
block gives the values of a per-point loop bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import algebra as la
from .errors import DimensionMismatchError
from .fields import RealizedAlgebra, VectorField
from .foliated import FoliatedSystem, FoliationChart
from .util import (Box, FuncWithGrad, dot_last, linear_form, matvec,
                   seeded_rng, vecmat)


@dataclass(frozen=True)
class PoissonBivector:
    """Antisymmetric coefficient field Lambda^{ij}(x) and its derivative.

    ``dcoeff(x)[..., m, i, j]`` = d_m Lambda^{ij}(x).  For points
    ``(..., N)`` ``coeff`` returns ``(..., N, N)`` and ``dcoeff``
    ``(..., N, N, N)``, or ``(N, N)`` and ``(N, N, N)`` when they do not
    depend on x; ``matrix`` and ``derivative`` check these shapes.
    """

    dim: int
    coeff: Callable[[np.ndarray], np.ndarray]
    dcoeff: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def _checked(self, value, x: np.ndarray, rank: int) -> np.ndarray:
        value = np.asarray(value, dtype=float)
        per_point = (self.dim,) * rank
        if value.shape not in (x.shape[:-1] + per_point, per_point):
            raise DimensionMismatchError(
                f"bivector coefficients of shape {value.shape} for points of "
                f"shape {x.shape}; need {per_point} per point")
        return value

    def matrix(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self._checked(self.coeff(x), x, 2)

    def derivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self._checked(self.dcoeff(x), x, 3)


def _per_point(value, x: np.ndarray):
    """A float for one point ``(N,)``, an array ``(...,)`` for a block."""
    if x.ndim == 1:
        return float(value)
    return np.broadcast_to(value, x.shape[:-1])


def poisson_bracket(L: PoissonBivector, f, g, x):
    """{f, g}(x) = grad f . Lambda(x) . grad g.

    A float at one point ``(N,)``, an array ``(...,)`` on a block ``(..., N)``.
    """
    x = np.asarray(x, dtype=float)
    return _per_point(dot_last(vecmat(f.gradient(x), L.matrix(x)), g.gradient(x)), x)


def _bracket_gradient(L: PoissonBivector, g, h, x) -> np.ndarray:
    """Gradient of the function y -> {g, h}(y) at x."""
    Lam = L.matrix(x)
    dLam = L.derivative(x)
    gg = g.gradient(x)
    gh = h.gradient(x)
    Hg = g.hessian(x)
    Hh = h.hessian(x)
    term_g = matvec(Hg, matvec(Lam, gh))
    term_h = matvec(Hh, matvec(np.swapaxes(Lam, -1, -2), gg))
    term_l = np.einsum("...i,...mij,...j->...m", gg, dLam, gh)
    return term_g + term_l + term_h


def jacobiator(L: PoissonBivector, f, g, h, x):
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}} at x.

    A float at one point ``(N,)``, an array ``(...,)`` on a block ``(..., N)``.
    """
    x = np.asarray(x, dtype=float)
    Lam = L.matrix(x)
    total = 0.0
    for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
        total += dot_last(vecmat(a.gradient(x), Lam), _bracket_gradient(L, b, c, x))
    return _per_point(total, x)


def hamiltonian_residual(L: PoissonBivector, X: VectorField, f,
                         samples: np.ndarray) -> float:
    """Max deviation |X + i_{df} Lambda| of X from the Hamiltonian field of f
    over samples ``(P, N)``."""
    x = np.asarray(samples, dtype=float)
    hf = matvec(L.matrix(x), f.gradient(x))
    return float(np.max(np.abs(X(x) + hf), initial=0.0))


# ---------------------------------------------------------------------------
# Linear bivector from structure constants through an invariant metric.
# ---------------------------------------------------------------------------

def linear_coordinates(metric: la.InvariantMetric) -> list[FuncWithGrad]:
    """Coordinates f_a(v) = g(e_a, v) dual to the basis through the metric."""
    return [linear_form(metric.g[a], name=f"f_{metric.algebra.basis_labels[a]}")
            for a in range(metric.algebra.dim)]


def kirillov_bivector(alg: la.LieAlgebra, metric: la.InvariantMetric) -> PoissonBivector:
    """Linear bivector whose bracket satisfies {f_a, f_b} = sum_g c[a,b,g] f_g.

    In the ambient coordinates v the coefficient matrix is
    Lambda(v) = G^{-1} C(v) G^{-1} with C_{ab}(v) = sum_g c[a,b,g] (G v)_g,
    which is the index-raised form of the structure-constant bracket.
    """
    if metric.algebra is not alg and metric.algebra.dim != alg.dim:
        raise DimensionMismatchError("metric must live on the same algebra")
    c = alg.structure
    G = metric.g
    Ginv = metric.g_inv
    # dC[m][a,b] = sum_g c[a,b,g] G[g,m]; constant, so dLambda is constant too
    dLam = np.einsum("abg,gm->mab", c, G)
    dLam = np.einsum("ia,mab,bj->mij", Ginv, dLam, Ginv)

    def coeff(v):
        C = np.einsum("abg,...g->...ab", c, matvec(G, v))
        return Ginv @ C @ Ginv

    return PoissonBivector(alg.dim, coeff, dcoeff=lambda v: dLam,
                           name="kirillov")


# ---------------------------------------------------------------------------
# r-matrix bivector on n copies of the a > 0 affine group, chart (a_i, b_i)
# with group matrix [[a, b], [0, 1]].  Right-invariant fields:
# X^R_e = d/db, X^R_h = 2a d/da + 2b d/db.
# ---------------------------------------------------------------------------

def aff_right_invariant_fields(n: int) -> list[VectorField]:
    dim = 2 * n
    fields = []
    for i in range(n):
        bi = 2 * i + 1

        def e_func(x, _b=bi):
            out = np.zeros(x.shape)
            out[..., _b] = 1.0
            return out

        fields.append(VectorField(dim, e_func, name=f"XR_e{i + 1}"))
    for i in range(n):
        ai, bi = 2 * i, 2 * i + 1

        def h_func(x, _a=ai, _b=bi):
            out = np.zeros(x.shape)
            out[..., _a] = 2.0 * x[..., _a]
            out[..., _b] = 2.0 * x[..., _b]
            return out

        fields.append(VectorField(dim, h_func, name=f"XR_h{i + 1}"))
    return fields


def rmatrix_bivector_aff(n: int) -> PoissonBivector:
    """Wedge of the right-invariant fields, one e ^ h block per factor."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = 2 * n

    def coeff(x):
        if np.any(x[..., 0::2] <= 0.0):
            raise ValueError("domain requires a_i > 0")
        M = np.zeros(x.shape[:-1] + (dim, dim))
        for i in range(n):
            ai, bi = 2 * i, 2 * i + 1
            # X_e ^ X_h on the (a_i, b_i) block: Lambda^{a b} = -2 a_i
            M[..., ai, bi] = -2.0 * x[..., ai]
            M[..., bi, ai] = 2.0 * x[..., ai]
        return M

    def dcoeff(x):
        D = np.zeros((dim, dim, dim))
        for i in range(n):
            ai, bi = 2 * i, 2 * i + 1
            D[ai, ai, bi] = -2.0
            D[ai, bi, ai] = 2.0
        return D

    return PoissonBivector(dim, coeff, dcoeff=dcoeff, name=f"rmatrix-aff{n}")


@dataclass(frozen=True)
class HamiltonianCheck:
    hamiltonian: object
    residual: float


def check_rmatrix_hamiltonian(n: int, samples: np.ndarray) -> list[HamiltonianCheck]:
    """Verify each X^R_e factor is Hamiltonian with candidate -1/2 log a_i."""
    L = rmatrix_bivector_aff(n)
    flds = aff_right_invariant_fields(n)
    out = []
    for i in range(n):
        ai = 2 * i

        def F(x, _a=ai):
            return -0.5 * np.log(x[..., _a])

        def dF(x, _a=ai):
            g = np.zeros(x.shape)
            g[..., _a] = -0.5 / x[..., _a]
            return g

        cand = FuncWithGrad(F, dF, name=f"-log(a{i + 1})/2")
        out.append(HamiltonianCheck(
            hamiltonian=cand,
            residual=hamiltonian_residual(L, flds[i], cand, samples)))
    return out


# ---------------------------------------------------------------------------
# Coadjoint-type foliated system on the algebra: fields -ad_a acting on v,
# coefficients constant on orbits (functions of the metric Casimir).
# ---------------------------------------------------------------------------

def adjoint_foliated_system(alg: la.LieAlgebra,
                            metric: la.InvariantMetric) -> FoliatedSystem:
    """Fields -ad_a of the algebra with the coefficients (1, cos(t)/2,
    Casimir/10) of sl2 on the box [0.6, 1.4]^r, foliated by the level sets of
    the metric Casimir, of dimension r - 1.  Any algebra other than a
    three-dimensional one fails the coefficient-map contract when evaluated."""
    r = alg.dim
    ads = [la.adjoint_matrix(alg, a) for a in range(r)]
    flds = tuple(
        VectorField(r, lambda v, _A=ads[a]: -matvec(_A, v),
                    name=f"Xad_{alg.basis_labels[a]}")
        for a in range(r)
    )
    G = metric.g

    def casimir(v):
        return dot_last(vecmat(v, G), v)

    def coeffs(t, v):
        cas = casimir(v)
        out = np.empty(cas.shape + (3,))
        out[..., 0] = 1.0
        out[..., 1] = 0.5 * np.cos(t)
        out[..., 2] = 0.1 * cas
        return out

    chart = FoliationChart.from_invariants(
        dim=r, leaf_dim=r - 1, invariants=lambda v: casimir(v)[..., None],
        n_labels=1,
    )
    realized = RealizedAlgebra(alg, flds, Box(np.full(r, 0.6), np.full(r, 1.4)))
    return FoliatedSystem(realized, coeffs, chart, name="adjoint")


def is_foliated_lie_hamilton(fs: FoliatedSystem, L: PoissonBivector,
                             candidates: Sequence, trials: int = 100,
                             seed: int = 42) -> tuple[float, ...]:
    """Residual of each realized field against the Hamiltonian field of its
    candidate, at ``trials`` seeded samples of the box; the system is
    foliated Lie-Hamilton for L where all of them vanish."""
    if len(candidates) != fs.realized.algebra.dim:
        raise DimensionMismatchError("one candidate Hamiltonian per field")
    pts = fs.realized.box.sample_many(seeded_rng(seed), trials)
    return tuple(hamiltonian_residual(L, X, cand, pts)
                 for X, cand in zip(fs.realized.fields, candidates))
