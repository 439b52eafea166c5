"""Finite-dimensional Lie algebras given by structure constants.

Conventions: the structure array ``c`` is indexed ``c[a, b, g]`` so that
``[e_a, e_b] = sum_g c[a, b, g] e_g``.  Basis order is declaration order and
part of the data contract.  Basis indices in the API are 0-based.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, MetricError

ANTISYMMETRY_ATOL = 1e-12
METRIC_COND_CUTOFF = 1e-10


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis_labels: tuple[str, ...]
    structure: np.ndarray

    def __post_init__(self):
        c = np.array(self.structure, dtype=float)
        r = self.dim
        if r < 1:
            raise ValueError("dim must be >= 1")
        if c.shape != (r, r, r):
            raise ValueError(f"structure array must have shape {(r, r, r)}, got {c.shape}")
        if len(self.basis_labels) != r:
            raise ValueError("need one basis label per dimension")
        if np.max(np.abs(c + c.transpose(1, 0, 2))) > ANTISYMMETRY_ATOL:
            raise ValueError("structure constants must be antisymmetric in the lower indices")
        c.setflags(write=False)
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))

    @property
    def is_abelian(self) -> bool:
        return bool(np.max(np.abs(self.structure)) == 0.0)


def bracket(alg: LieAlgebra, u: Sequence[float], v: Sequence[float]) -> np.ndarray:
    """w^g = sum_{a,b} c[a,b,g] u^a v^b."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (alg.dim,) or v.shape != (alg.dim,):
        raise DimensionMismatchError(
            f"coordinate vectors must have length {alg.dim}"
        )
    return np.einsum("abg,a,b->g", alg.structure, u, v)


def adjoint_matrix(alg: LieAlgebra, index: int) -> np.ndarray:
    """Matrix of ad_{e_index} acting on coordinates: (ad)_{g,b} = c[index,b,g]."""
    if not 0 <= index < alg.dim:
        raise IndexError(f"basis index out of range: {index}")
    return alg.structure[index].T.copy()


def jacobi_residual(alg: LieAlgebra) -> float:
    """Max absolute Jacobi sum over all index tuples; 0 for a valid Lie algebra."""
    c = alg.structure
    term = np.einsum("abm,mgn->abgn", c, c)
    total = term + term.transpose(1, 2, 0, 3) + term.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(total)))


def killing_form(alg: LieAlgebra) -> np.ndarray:
    """K[a,b] = trace(ad_a ad_b).  May be degenerate; callers must check."""
    ads = [adjoint_matrix(alg, a) for a in range(alg.dim)]
    K = np.empty((alg.dim, alg.dim))
    for a in range(alg.dim):
        for b in range(alg.dim):
            K[a, b] = np.trace(ads[a] @ ads[b])
    return K


def ad_invariance_residual(alg: LieAlgebra, g: np.ndarray) -> float:
    """Max over basis triples of |g([x,y],z) + g(y,[x,z])|."""
    c = alg.structure
    # g([e_a, e_b], e_c) = sum_d c[a,b,d] g[d,c]
    first = np.einsum("abd,dc->abc", c, g)
    second = np.einsum("acd,bd->abc", c, g)
    return float(np.max(np.abs(first + second)))


@dataclass(frozen=True)
class MatrixRealization:
    """Homomorphic image of the algebra inside d x d real matrices."""

    algebra: LieAlgebra
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(A, dtype=float) for A in self.matrices)
        if len(mats) != self.algebra.dim:
            raise DimensionMismatchError("need one matrix per basis element")
        d = mats[0].shape[0]
        for A in mats:
            if A.shape != (d, d):
                raise DimensionMismatchError("all matrices must be square of equal size")
        object.__setattr__(self, "matrices", mats)

    @property
    def size(self) -> int:
        return self.matrices[0].shape[0]

    def element(self, coords: Sequence[float]) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        return sum(c * A for c, A in zip(coords, self.matrices))


def realization_residual(real: MatrixRealization) -> float:
    """Max entrywise defect of A_a A_b - A_b A_a - sum_g c[a,b,g] A_g."""
    c = real.algebra.structure
    mats = real.matrices
    worst = 0.0
    for a in range(real.algebra.dim):
        for b in range(real.algebra.dim):
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            expected = sum(c[a, b, g] * mats[g] for g in range(real.algebra.dim))
            worst = max(worst, float(np.max(np.abs(comm - expected))))
    return worst


@dataclass(frozen=True)
class InvariantMetric:
    """Symmetric nondegenerate ad-invariant bilinear form on the algebra."""

    algebra: LieAlgebra
    g: np.ndarray
    g_inv: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        r = self.algebra.dim
        if g.shape != (r, r):
            raise MetricError(f"metric must be {r} x {r}")
        if np.max(np.abs(g - g.T)) > 1e-12:
            raise MetricError("metric must be symmetric")
        sv = np.linalg.svd(g, compute_uv=False)
        if sv[-1] < METRIC_COND_CUTOFF * sv[0]:
            raise MetricError(
                f"metric is degenerate: singular value ratio {sv[-1] / sv[0]:.3e}"
            )
        res = ad_invariance_residual(self.algebra, g)
        if res > 1e-12:
            raise MetricError(f"metric is not ad-invariant: residual {res:.3e}")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g_inv", np.linalg.inv(g))


# ---------------------------------------------------------------------------
# Built-in algebras.  "sl2" in the (e, h, f) basis, "abelian:<n>", and
# "glp:<n>" = R^n |x R^n with [h_i, e_j] = 2 delta_ij e_j.
# ---------------------------------------------------------------------------

def _sl2() -> LieAlgebra:
    c = np.zeros((3, 3, 3))
    e, h, f = 0, 1, 2
    c[h, e, e] = 2.0   # [h, e] = 2e
    c[e, h, e] = -2.0
    c[h, f, f] = -2.0  # [h, f] = -2f
    c[f, h, f] = 2.0
    c[e, f, h] = 1.0   # [e, f] = h
    c[f, e, h] = -1.0
    return LieAlgebra(3, ("e", "h", "f"), c)


def _abelian(n: int) -> LieAlgebra:
    labels = tuple(f"a{i + 1}" for i in range(n))
    return LieAlgebra(n, labels, np.zeros((n, n, n)))


def _glp(n: int) -> LieAlgebra:
    r = 2 * n
    c = np.zeros((r, r, r))
    for i in range(n):
        c[n + i, i, i] = 2.0   # [h_i, e_i] = 2 e_i
        c[i, n + i, i] = -2.0
    labels = tuple(f"e{i + 1}" for i in range(n)) + tuple(f"h{i + 1}" for i in range(n))
    return LieAlgebra(r, labels, c)


def builtin_algebra(name: str) -> LieAlgebra:
    if name == "sl2":
        return _sl2()
    if name.startswith("abelian:"):
        return _abelian(int(name.split(":", 1)[1]))
    if name.startswith("glp:"):
        return _glp(int(name.split(":", 1)[1]))
    raise KeyError(f"unknown algebra name: {name!r}")


def builtin_realization(name: str) -> MatrixRealization:
    if name.startswith("abelian:"):
        n = int(name.split(":", 1)[1])
        # zero matrices commute, matching the vanishing structure constants
        return MatrixRealization(_abelian(n), tuple(np.zeros((1, 1)) for _ in range(n)))
    if name == "sl2":
        e = np.array([[0.0, 1.0], [0.0, 0.0]])
        h = np.array([[1.0, 0.0], [0.0, -1.0]])
        f = np.array([[0.0, 0.0], [1.0, 0.0]])
        return MatrixRealization(_sl2(), (e, h, f))
    if name.startswith("glp:"):
        n = int(name.split(":", 1)[1])
        eb = np.array([[0.0, 1.0], [0.0, 0.0]])
        hb = np.array([[2.0, 0.0], [0.0, 0.0]])
        mats = []
        for base in (eb, hb):
            for i in range(n):
                A = np.zeros((2 * n, 2 * n))
                A[2 * i:2 * i + 2, 2 * i:2 * i + 2] = base
                mats.append(A)
        return MatrixRealization(_glp(n), tuple(mats))
    raise KeyError(f"no built-in matrix realization for {name!r}")
