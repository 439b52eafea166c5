"""Poisson bivectors from structure constants and r-matrices.

Contraction sign fixed globally: (i_{df} Lambda)^i = sum_j Lambda^{ij} d_j f.
Where a construction lands on the opposite sign, checks record sign = -1
instead of failing.

Shipped bivectors carry analytic coefficient derivatives so that bracket and
Jacobiator checks are limited by roundoff, not finite differences; gradients
of candidate functions are analytic whenever the callable carries a
``gradient`` attribute.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import algebra as la
from .errors import DimensionMismatchError
from .fields import RealizedAlgebra, VectorField
from .foliated import FoliatedSystem, FoliationChart
from .util import (Box, FuncWithGrad, gradient_of, jacobian_fd, linear_form,
                   seeded_rng)

# step for differentiating bivector coefficients when no analytic derivative
# is attached; central differences are exact for the polynomial coefficient
# fields shipped here
_DCOEFF_STEP = 1e-4


@dataclass(frozen=True)
class PoissonBivector:
    """Antisymmetric coefficient field Lambda^{ij}(x) with optional derivative.

    ``dcoeff(x)[m, i, j]`` = d_m Lambda^{ij}(x) when provided.
    """

    dim: int
    coeff: Callable[[np.ndarray], np.ndarray]
    dcoeff: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def matrix(self, x) -> np.ndarray:
        M = np.asarray(self.coeff(np.asarray(x, dtype=float)), dtype=float)
        if M.shape != (self.dim, self.dim):
            raise DimensionMismatchError("coefficient matrix has wrong shape")
        return M

    def derivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.dcoeff is not None:
            return np.asarray(self.dcoeff(x), dtype=float)
        out = np.empty((self.dim, self.dim, self.dim))
        h = _DCOEFF_STEP * max(1.0, float(np.max(np.abs(x))))
        for m in range(self.dim):
            xp = x.copy()
            xm = x.copy()
            xp[m] += h
            xm[m] -= h
            out[m] = (self.matrix(xp) - self.matrix(xm)) / (2.0 * h)
        return out


def poisson_bracket(L: PoissonBivector, f, g, x) -> float:
    """{f, g}(x) = grad f . Lambda(x) . grad g."""
    x = np.asarray(x, dtype=float)
    return float(gradient_of(f, x) @ L.matrix(x) @ gradient_of(g, x))


def _hessian_of(f, x) -> np.ndarray:
    h = getattr(f, "hessian", None)
    if h is not None:
        return np.asarray(h(x), dtype=float)
    return jacobian_fd(lambda y: gradient_of(f, y), x)


def _bracket_gradient(L: PoissonBivector, g, h, x) -> np.ndarray:
    """Gradient of the function y -> {g, h}(y) at x."""
    Lam = L.matrix(x)
    dLam = L.derivative(x)
    gg = gradient_of(g, x)
    gh = gradient_of(h, x)
    Hg = _hessian_of(g, x)
    Hh = _hessian_of(h, x)
    term_g = Hg @ (Lam @ gh)
    term_h = Hh @ (Lam.T @ gg)
    term_l = np.einsum("i,mij,j->m", gg, dLam, gh)
    return term_g + term_l + term_h


def jacobiator(L: PoissonBivector, f, g, h, x) -> float:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}} at x."""
    x = np.asarray(x, dtype=float)
    Lam = L.matrix(x)
    total = 0.0
    for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
        total += float(gradient_of(a, x) @ Lam @ _bracket_gradient(L, b, c, x))
    return total


def hamiltonian_field(L: PoissonBivector, f) -> VectorField:
    """Field with components sum_j Lambda^{ij}(x) d_j f(x)."""
    return VectorField(L.dim, lambda x: L.matrix(x) @ gradient_of(f, x),
                       name=getattr(f, "name", ""))


def hamiltonian_residual(L: PoissonBivector, X: VectorField, f,
                         samples: Sequence[np.ndarray]) -> tuple[float, int]:
    """Best-sign deviation of X from +-(i_{df} Lambda) over samples.

    Returns (residual, sign); sign = -1 means X matches minus the contraction.
    """
    plus = 0.0
    minus = 0.0
    for x in samples:
        x = np.asarray(x, dtype=float)
        hf = L.matrix(x) @ gradient_of(f, x)
        val = X(x)
        plus = max(plus, float(np.max(np.abs(val - hf))))
        minus = max(minus, float(np.max(np.abs(val + hf))))
    return (plus, 1) if plus <= minus else (minus, -1)


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
        C = np.einsum("abg,g->ab", c, G @ v)
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
            out = np.zeros(dim)
            out[_b] = 1.0
            return out

        fields.append(VectorField(dim, e_func,
                                  jac=lambda x: np.zeros((dim, dim)),
                                  name=f"XR_e{i + 1}"))
    for i in range(n):
        ai, bi = 2 * i, 2 * i + 1

        def h_func(x, _a=ai, _b=bi):
            out = np.zeros(dim)
            out[_a] = 2.0 * x[_a]
            out[_b] = 2.0 * x[_b]
            return out

        def h_jac(x, _a=ai, _b=bi):
            J = np.zeros((dim, dim))
            J[_a, _a] = 2.0
            J[_b, _b] = 2.0
            return J

        fields.append(VectorField(dim, h_func, jac=h_jac, name=f"XR_h{i + 1}"))
    return fields


def rmatrix_bivector_aff(n: int) -> PoissonBivector:
    """Wedge of the right-invariant fields, one e ^ h block per factor."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = 2 * n

    def coeff(x):
        if np.any(x[0::2] <= 0.0):
            raise ValueError("domain requires a_i > 0")
        M = np.zeros((dim, dim))
        for i in range(n):
            ai, bi = 2 * i, 2 * i + 1
            # X_e ^ X_h on the (a_i, b_i) block: Lambda^{a b} = -2 a_i
            M[ai, bi] = -2.0 * x[ai]
            M[bi, ai] = 2.0 * x[ai]
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
    field: VectorField
    hamiltonian: object
    residual: float
    sign: int


def check_rmatrix_hamiltonian(n: int, samples: Sequence[np.ndarray]) -> list[HamiltonianCheck]:
    """Verify each X^R_e factor is Hamiltonian with candidate -1/2 log a_i."""
    L = rmatrix_bivector_aff(n)
    flds = aff_right_invariant_fields(n)
    out = []
    for i in range(n):
        ai = 2 * i

        def F(x, _a=ai):
            return -0.5 * np.log(x[_a])

        def dF(x, _a=ai):
            g = np.zeros(2 * n)
            g[_a] = -0.5 / x[_a]
            return g

        def HF(x, _a=ai):
            H = np.zeros((2 * n, 2 * n))
            H[_a, _a] = 0.5 / x[_a] ** 2
            return H

        cand = FuncWithGrad(F, dF, hess=HF, name=f"-log(a{i + 1})/2")
        res, sign = hamiltonian_residual(L, flds[i], cand, samples)
        out.append(HamiltonianCheck(field=flds[i], hamiltonian=cand,
                                    residual=res, sign=sign))
    return out


# ---------------------------------------------------------------------------
# Coadjoint-type foliated system on the algebra: fields -ad_a acting on v,
# coefficients constant on orbits (functions of the metric Casimir).
# ---------------------------------------------------------------------------

def adjoint_foliated_system(alg: la.LieAlgebra, metric: la.InvariantMetric,
                            coeffs=None, box: Box | None = None,
                            leaf_dim: int | None = None) -> FoliatedSystem:
    r = alg.dim
    ads = [la.adjoint_matrix(alg, a) for a in range(r)]
    flds = tuple(
        VectorField(r, lambda v, _A=ads[a]: -(_A @ v),
                    jac=lambda v, _A=ads[a]: -_A,
                    name=f"Xad_{alg.basis_labels[a]}")
        for a in range(r)
    )
    G = metric.g

    def casimir(v):
        return float(v @ G @ v)

    if coeffs is None and r == 3:
        coeffs = lambda t, v: np.array([1.0, 0.5 * np.cos(t), 0.1 * casimir(v)])
    elif coeffs is None:
        coeffs = lambda t, v: np.ones(r)
    if box is None:
        box = Box(np.full(r, 0.6), np.full(r, 1.4))
    s = r - 1 if leaf_dim is None else leaf_dim
    chart = FoliationChart.from_invariants(
        dim=r, leaf_dim=s, invariants=lambda v: np.array([casimir(v)]),
        n_labels=1,
    )
    realized = RealizedAlgebra(alg, flds, box)
    return FoliatedSystem(realized, coeffs, chart, name="adjoint")


@dataclass(frozen=True)
class LieHamiltonReport:
    ok: bool
    residuals: tuple[float, ...]
    signs: tuple[int, ...]


def is_foliated_lie_hamilton(fs: FoliatedSystem, L: PoissonBivector,
                             candidates: Sequence, trials: int = 100,
                             seed: int = 42, tol: float = 1e-6) -> LieHamiltonReport:
    """True iff every realized field is (signed) Hamiltonian for its candidate."""
    if len(candidates) != fs.realized.algebra.dim:
        raise DimensionMismatchError("one candidate Hamiltonian per field")
    rng = seeded_rng(seed)
    pts = fs.realized.box.sample_many(rng, trials)
    residuals = []
    signs = []
    for X, cand in zip(fs.realized.fields, candidates):
        res, sign = hamiltonian_residual(L, X, cand, pts)
        residuals.append(res)
        signs.append(sign)
    ok = all(r <= tol for r in residuals)
    return LieHamiltonReport(ok=ok, residuals=tuple(residuals), signs=tuple(signs))
