"""Finite-dimensional Lie algebras given by structure constants.

Conventions: the structure array ``c`` is indexed ``c[a, b, g]`` so that
``[e_a, e_b] = sum_g c[a, b, g] e_g``.  Basis order is declaration order and
part of the data contract.  Basis indices in the API are 0-based.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MetricError

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


def adjoint_matrix(alg: LieAlgebra, index: int) -> np.ndarray:
    """Matrix of ad_{e_index} acting on coordinates: (ad)_{g,b} = c[index,b,g]."""
    if not 0 <= index < alg.dim:
        raise IndexError(f"basis index out of range: {index}")
    return alg.structure[index].T.copy()


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
        # a zero form passes the ratio test as 0 < 0, and has no ratio
        if sv[0] == 0.0 or sv[-1] < METRIC_COND_CUTOFF * sv[0]:
            raise MetricError(f"metric is degenerate: singular values "
                              f"{sv[-1]:.3e} (smallest) and {sv[0]:.3e} (largest)")
        res = ad_invariance_residual(self.algebra, g)
        if res > 1e-12:
            raise MetricError(f"metric is not ad-invariant: residual {res:.3e}")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g_inv", np.linalg.inv(g))


# ---------------------------------------------------------------------------
# Built-in algebras: "sl2" in the (e, h, f) basis and "abelian:<n>".
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


def builtin_algebra(name: str) -> LieAlgebra:
    if name == "sl2":
        return _sl2()
    if name.startswith("abelian:"):
        return _abelian(int(name.split(":", 1)[1]))
    raise KeyError(f"unknown algebra name: {name!r}")

