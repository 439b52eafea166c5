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
from functools import cache
from typing import Callable, Sequence

import numpy as np

from . import algebra as la
from .errors import DimensionMismatchError
from .fields import VectorField
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

    def at(self, x) -> "_AtPoints":
        """This bivector at the points x, the argument of the functions below."""
        return _AtPoints(self, x)


def _per_point(value, x: np.ndarray):
    """A float for one point ``(N,)``, an array ``(...,)`` for a block."""
    if x.ndim == 1:
        return float(value)
    return np.broadcast_to(value, x.shape[:-1])


class _AtPoints:
    """A bivector at points x: Lambda(x), and once each, on first use, its derivative
    and each f's gradient, Hessian, grad f Lambda, Lambda grad f, Lambda^T grad f."""

    def __init__(self, L: PoissonBivector, x):
        self.x = x = np.asarray(x, dtype=float)
        lam = L.matrix(x)

        def once(make):
            values = {}  # one per kind: a memo keyed by make would be a cycle

            def value(f=None):
                return values[f] if f in values else values.setdefault(f, make(f))
            return value

        self.derivative = once(lambda _: L.derivative(x))
        self.grad = grad = once(lambda f: f.gradient(x))
        self.hess = once(lambda f: f.hessian(x))
        self.row = once(lambda f: vecmat(grad(f), lam))
        self.col = once(lambda f: matvec(lam, grad(f)))
        self.col_t = once(lambda f: matvec(np.swapaxes(lam, -1, -2), grad(f)))


def poisson_bracket(at: _AtPoints, f, g):
    """{f, g}(x) = grad f . Lambda(x) . grad g at the points of ``at = L.at(x)``.

    A float at one point ``(N,)``, an array ``(...,)`` on a block ``(..., N)``.
    """
    return _per_point(dot_last(at.row(f), at.grad(g)), at.x)


def jacobiator(at: _AtPoints, f, g, h):
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}} at the points of ``at = L.at(x)``.

    A float at one point ``(N,)``, an array ``(...,)`` on a block ``(..., N)``.
    """
    total = 0.0
    for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
        grad_bc = (matvec(at.hess(b), at.col(c))  # grad of y -> {b, c}(y)
                   + np.einsum("...i,...mij,...j->...m", at.grad(b), at.derivative(), at.grad(c))
                   + matvec(at.hess(c), at.col_t(b)))
        total += dot_last(at.row(a), grad_bc)
    return _per_point(total, at.x)


def hamiltonian_residual(at: _AtPoints, X: VectorField, f) -> float:
    """Max deviation |X + i_{df} Lambda| of X from the Hamiltonian field of f
    over the samples ``(P, N)`` of ``at = L.at(samples)``."""
    return float(np.max(np.abs(X(at.x) + at.col(f)), initial=0.0))


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
# X^R_e = d/db, X^R_h = 2a d/da + 2b d/db; the checks read X^R_e alone.
# ---------------------------------------------------------------------------

@cache
def aff_right_invariant_fields(n: int) -> tuple[VectorField, ...]:
    """The fields X^R_e = d/db_i of the n factors, in order; built once per n."""
    return tuple(VectorField.constant(e, name=f"XR_e{i + 1}")
                 for i, e in enumerate(np.eye(2 * n)[1::2]))


@cache
def rmatrix_bivector_aff(n: int) -> PoissonBivector:
    """Wedge of the right-invariant fields, one e ^ h block per factor;
    built once per n."""
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

    dLam = np.zeros((dim, dim, dim))  # constant, like the kirillov one
    for i in range(n):
        ai, bi = 2 * i, 2 * i + 1
        dLam[ai, ai, bi] = -2.0
        dLam[ai, bi, ai] = 2.0
    dLam.setflags(write=False)  # the cached bivector returns it to every caller
    return PoissonBivector(dim, coeff, dcoeff=lambda x: dLam, name=f"rmatrix-aff{n}")


@cache
def rmatrix_hamiltonians(n: int) -> tuple[FuncWithGrad, ...]:
    """The candidates -1/2 log a_i for the fields X^R_e, in order; built
    once per n."""
    def candidate(a):
        def dF(x):
            g = np.zeros(x.shape)
            g[..., a] = -0.5 / x[..., a]
            return g
        return FuncWithGrad(lambda x: -0.5 * np.log(x[..., a]), dF,
                            name=f"-log(a{a // 2 + 1})/2")
    return tuple(candidate(a) for a in range(0, 2 * n, 2))


def check_rmatrix_hamiltonian(n: int, samples: np.ndarray) -> tuple[float, ...]:
    """Residual of each X^R_e against the Hamiltonian field of -1/2 log a_i."""
    at = rmatrix_bivector_aff(n).at(samples)
    return tuple(hamiltonian_residual(at, X, cand) for X, cand in
                 zip(aff_right_invariant_fields(n), rmatrix_hamiltonians(n)))


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
    flds = tuple(VectorField.linear(-la.adjoint_matrix(alg, a),
                                    name=f"Xad_{alg.basis_labels[a]}")
                 for a in range(r))
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

    chart = FoliationChart(dim=r, leaf_dim=r - 1,
                           leaf_map=lambda v: casimir(v)[..., None])
    return FoliatedSystem(alg, flds, Box(np.full(r, 0.6), np.full(r, 1.4)), coeffs,
                          chart, name="adjoint")


def is_foliated_lie_hamilton(fs: FoliatedSystem, L: PoissonBivector,
                             candidates: Sequence, trials: int = 100,
                             seed: int = 42) -> tuple[float, ...]:
    """Residual of each realized field against the Hamiltonian field of its
    candidate, at ``trials`` seeded samples of the box; the system is
    foliated Lie-Hamilton for L where all of them vanish."""
    if len(candidates) != fs.algebra.dim:
        raise DimensionMismatchError("one candidate Hamiltonian per field")
    at = L.at(fs.box.sample_many(seeded_rng(seed), trials))
    return tuple(hamiltonian_residual(at, X, cand)
                 for X, cand in zip(fs.fields, candidates))
