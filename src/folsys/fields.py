"""Vector fields on R^N: numeric brackets, ranks, realized algebras.

A field acts on the last axis, so its values on a block ``(..., m, N)`` of
m points are the values of its m-fold diagonal prolongation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import algebra as la
from .errors import DimensionMismatchError
from .util import FD_SCALE, Box, grad_fd

RANK_RTOL = 1e-10


class _Constant:
    """The map from a block of points ``(..., N)`` to ``value`` ``(N,)`` at each."""

    def __init__(self, value):
        self.value = np.array(value, dtype=float)
        self.value.setflags(write=False)

    def __call__(self, x):
        return np.broadcast_to(self.value, x.shape).copy()


class _Linear:
    """The map from a block of points ``(..., N)`` to ``matrix @ x`` at each."""

    def __init__(self, matrix):
        self.matrix = np.array(matrix, dtype=float)
        self.matrix.setflags(write=False)

    def __call__(self, x):
        return x @ self.matrix.T


class _StageMatrices:
    """A right-hand side ``func(t, x)`` that is linear along a solution,
    carrying ``matrices(steps, times, x0)``: its matrices A with
    ``func(t, x) = A x`` at a block's stage times (see TDependentVectorField)."""

    def __init__(self, func, matrices):
        self.func = func
        self.matrices = matrices

    def __call__(self, t, x):
        return self.func(t, x)


@dataclass(frozen=True)
class VectorField:
    """Autonomous vector field.

    A field built by ``VectorField.constant`` declares itself constant: its
    ``value`` is set, and its ``func`` is derived from that value, so the
    two cannot disagree; any other field has ``value`` None.  Likewise a
    field built by ``VectorField.linear`` declares itself linear, x -> M x:
    its ``matrix`` M is set and its ``func`` derived from it; any other
    field has ``matrix`` None."""

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    @classmethod
    def constant(cls, value, name: str = "") -> "VectorField":
        """The field whose value is ``value`` ``(N,)`` at every point."""
        func = _Constant(value)
        return cls(func.value.size, func, name=name)

    @classmethod
    def linear(cls, matrix, name: str = "") -> "VectorField":
        """The field whose value at x is ``matrix @ x``, ``matrix`` ``(N, N)``."""
        func = _Linear(matrix)
        return cls(func.matrix.shape[0], func, name=name)

    @property
    def value(self) -> np.ndarray | None:
        return self.func.value if isinstance(self.func, _Constant) else None

    @property
    def matrix(self) -> np.ndarray | None:
        return self.func.matrix if isinstance(self.func, _Linear) else None

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class TDependentVectorField:
    """Time-dependent vector field; ``domain`` guards integration when set.

    ``t`` is a float, or an array of times, one per state of a batch, which
    is passed through as it is.

    ``table`` and ``combine``, when set, split the field along a solution
    into values that depend on time alone and a function of the state: at
    stage s of step k of a solution from x0, ``func(t, x)`` equals
    ``combine(table(steps, times, x0)[s, k'], x)``, where ``steps`` is a
    slice of the steps of the solution's grid, k = steps.start + k', and
    ``times`` ``(3, K, ...)`` are the start, midpoint and end times of those
    steps, broadcasting against ``x0.shape[:-1]``.  ``integrate`` then builds
    the values a block of steps at a time.

    A field with a ``table`` and no ``combine`` is time-only: along a
    solution its value depends on time alone, and the table rows
    ``(3, K, ..., N)`` are its values, so ``func(t, x)`` equals
    ``table(steps, times, x0)[s, k']`` at every stage state x.  ``integrate``
    then sums each block of steps at once (Simpson's rule).

    A field built by ``TDependentVectorField.linear`` is linear along a
    solution: at stage s of step k, ``func(t, x)`` equals ``A x`` with A
    ``matrices(steps, times, x0)[s, k']`` ``(..., N, N)``, and ``integrate``
    steps it by the RK4 step matrices of a block of steps.  The matrices
    are carried by ``func`` itself, so a copy of the field rebuilt from
    ``(dim, func, domain, name)`` takes the same route to the same bits;
    ``matrices`` reads them back, None for any other field."""

    dim: int
    func: Callable[[float, np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], bool] | None = None
    name: str = ""
    table: Callable[[slice, np.ndarray, np.ndarray], np.ndarray] | None = None
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    @classmethod
    def linear(cls, dim: int, func, matrices, domain=None,
               name: str = "") -> "TDependentVectorField":
        """The field ``func``, declared linear along a solution with the
        stage matrices ``matrices(steps, times, x0)``."""
        return cls(dim, _StageMatrices(func, matrices), domain=domain, name=name)

    @property
    def matrices(self) -> Callable[[slice, np.ndarray, np.ndarray], np.ndarray] | None:
        return self.func.matrices if isinstance(self.func, _StageMatrices) else None

    def __call__(self, t, x) -> np.ndarray:
        if type(t) is not float and not isinstance(t, np.ndarray):
            t = float(t)
        return np.asarray(self.func(t, np.asarray(x, dtype=float)), dtype=float)


def lie_bracket_at(X: VectorField, Y: VectorField, x, values=None) -> np.ndarray:
    """[X, Y](x) = DY(x) X(x) - DX(x) Y(x) from field values only.

    ``x`` is one point ``(N,)`` or a block ``(..., N)``.  Each derivative is a
    central difference along the other field,
    (Y(x + hX) - Y(x - hX) - X(x + hY) + X(x - hY)) / 2h, with the step
    h = FD_SCALE * max(1, max|x|) of each point; the fields must take blocks
    when x is one.  ``values`` is the pair (X(x), Y(x)) when the caller has
    it, which leaves the four shifted evaluations.
    """
    x = np.asarray(x, dtype=float)
    if not (X.dim == Y.dim and x.shape[-1:] == (X.dim,)):
        raise DimensionMismatchError("fields and point must share a dimension")
    h = FD_SCALE * np.maximum(1.0, np.abs(x).max(axis=-1, keepdims=True))
    vx, vy = (X(x), Y(x)) if values is None else values
    hX = h * vx
    hY = h * vy
    return (Y(x + hX) - Y(x - hX) - X(x + hY) + X(x - hY)) / (2.0 * h)


def directional_derivative(X: VectorField, f: Callable[[np.ndarray], float], x) -> float:
    """(X f)(x) = grad f(x) . X(x), gradient by central differences."""
    x = np.asarray(x, dtype=float)
    return float(grad_fd(f, x) @ X(x))


def rank_at(fields: Sequence[VectorField], x, rtol: float = RANK_RTOL,
            values=None):
    """Numerical rank of the N x r matrix of field values at x.

    ``x`` is one point ``(N,)``, which gives an int, or a block ``(..., N)``,
    which gives one rank per point from one stacked SVD.  A point where a
    field value is not finite has rank 0.  ``values`` is the list of the
    field values at x when the caller has them.
    """
    x = np.asarray(x, dtype=float)
    M = np.stack([X(x) for X in fields] if values is None else values, axis=-1)
    finite = np.isfinite(M).all(axis=(-2, -1), keepdims=True)
    sv = np.linalg.svd(np.where(finite, M, 0.0), compute_uv=False)
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


def structure_residual(ra: RealizedAlgebra, x, values=None) -> float:
    """Max deviation of the brackets [X_a, X_b] from sum_g c[a,b,g] X_g.

    ``x`` is one point ``(N,)`` or a block ``(..., N)``; the fields are called
    once on it for their values, unless ``values`` lists them, and
    ``lie_bracket_at`` once per pair a < b with those values.  A NaN
    deviation is kept, so the value then fails any tolerance.
    """
    x = np.asarray(x, dtype=float)
    c = ra.algebra.structure
    vals = [X(x) for X in ra.fields] if values is None else values
    r = len(vals)
    worst = []
    for a in range(r):
        for b in range(a + 1, r):
            lhs = lie_bracket_at(ra.fields[a], ra.fields[b], x, (vals[a], vals[b]))
            rhs = sum(c[a, b, g] * vals[g] for g in range(r))
            worst.append(np.abs(lhs - rhs).max(initial=0.0))
    # ndarray.max, unlike the builtin max, keeps a NaN deviation
    return float(np.max(worst, initial=0.0))

