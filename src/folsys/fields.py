"""Vector fields on R^N: numeric brackets, ranks, structure residuals.

A field acts on the last axis, so its values on a block ``(..., m, N)`` of
m points are the values of its m-fold diagonal prolongation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import algebra as la
from .errors import DimensionMismatchError
from .util import FD_SCALE, grad_fd

RANK_RTOL = 1e-10


class _Declared:
    """Points ``(..., N)`` to the constant ``value`` ``(N,)`` or to
    ``matrix @ x``, ``matrix`` ``(N, N)``: the func of a field that carries
    the one it is built from, read-only."""

    def __init__(self, value=None, matrix=None):
        self.value, self.matrix = value, matrix
        (value if matrix is None else matrix).setflags(write=False)

    def __call__(self, x):
        if self.matrix is not None:
            return x @ self.matrix.T
        out = np.empty(x.shape)
        out[...] = self.value  # a fill: the bytes of value, -0.0 and nan too
        return out


class _Along:
    """A right-hand side ``func(t, x)`` carrying how ``integrate`` steps it a
    block of steps at a time: its ``table`` and its ``route`` (see
    TDependentVectorField)."""

    def __init__(self, func, table, route):
        self.func, self.table, self.route = func, table, route

    def __call__(self, t, x):
        return self.func(t, x)


@dataclass(frozen=True)
class VectorField:
    """Autonomous vector field; ``VectorField.constant`` and ``.linear``
    declare one whose ``value`` or ``matrix`` gives its ``func``, so the two
    cannot disagree (both are None for any other field)."""

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    @classmethod
    def constant(cls, value, name: str = "") -> "VectorField":
        """The field whose value is ``value`` ``(N,)`` at every point."""
        value = np.array(value, dtype=float)
        return cls(value.size, _Declared(value=value), name)

    @classmethod
    def linear(cls, matrix, name: str = "") -> "VectorField":
        """The field whose value at x is ``matrix @ x``, ``matrix`` ``(N, N)``."""
        matrix = np.array(matrix, dtype=float)
        return cls(len(matrix), _Declared(matrix=matrix), name)

    value = property(lambda s: s.func.value if isinstance(s.func, _Declared) else None)
    matrix = property(lambda s: s.func.matrix if isinstance(s.func, _Declared) else None)

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class TDependentVectorField:
    """Time-dependent vector field; ``domain``, when set, guards integration:
    it maps states ``(..., N)`` to bools ``(...)``, so one call checks a block.

    ``t`` is a numpy time, passed through as it is: an array of times, one
    per state of a batch, or the numpy scalar of one time.

    A field built by ``TDependentVectorField.tabled`` (in the package only
    ``foliated.lie_system`` builds one) is a Lie system tabulated along a
    solution from x0: ``table(times, x0)`` holds its rows at the stage times
    ``(3, K, ...)`` of a block of K steps, and ``route`` steps them: the
    block routes ``integrate._sum_block`` (stage values) and
    ``integrate._product_block`` (stage matrices), or a stage
    ``route(rows, x)``, which ``integrate`` calls per batch stage through a
    copy of the field with ``func = route``.  Stage rows are the coefficients
    laid out by field, ahead of the rows of a batch, and summed from 0.0.
    ``func(t, x)`` is the Lie system at its own t and x; ``integrate``
    never calls it.  ``table`` and ``route`` are carried by ``func``, so a
    copy rebuilt from ``(dim, func, domain, name)`` takes the same route to
    the same bits; they read None for any other field."""

    dim: int
    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    @classmethod
    def tabled(cls, dim: int, func, table, route, domain=None,
               name: str = "") -> "TDependentVectorField":
        """The field ``func``, declared to be stepped along a solution by
        ``route`` on the values ``table(times, x0)``."""
        return cls(dim, _Along(func, table, route), domain=domain, name=name)

    table = property(lambda s: s.func.table if isinstance(s.func, _Along) else None)
    route = property(lambda s: s.func.route if isinstance(s.func, _Along) else None)

    def __call__(self, t, x) -> np.ndarray:
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


def rank_at(fields: Sequence[VectorField], x, values=None):
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
    # a zero matrix has rank 0: no singular value exceeds RANK_RTOL * 0
    ranks = np.sum(sv > RANK_RTOL * sv[..., :1], axis=-1)
    return int(ranks) if x.ndim == 1 else ranks


def structure_residual(algebra: la.LieAlgebra, fields: Sequence[VectorField], x,
                       values=None) -> float:
    """Max deviation of the brackets [X_a, X_b] of ``fields`` from
    sum_g c[a,b,g] X_g, c the structure constants of ``algebra``.

    ``x`` is one point ``(N,)`` or a block ``(..., N)``; the fields are called
    once on it for their values, unless ``values`` lists them, and
    ``lie_bracket_at`` once per pair a < b with those values.  A NaN
    deviation is kept, so the value then fails any tolerance.
    """
    x = np.asarray(x, dtype=float)
    c = algebra.structure
    vals = [X(x) for X in fields] if values is None else values
    r = len(vals)
    worst = []
    for a in range(r):
        for b in range(a + 1, r):
            lhs = lie_bracket_at(fields[a], fields[b], x, (vals[a], vals[b]))
            rhs = sum(c[a, b, g] * vals[g] for g in range(r))
            worst.append(np.abs(lhs - rhs).max(initial=0.0))
    # ndarray.max, unlike the builtin max, keeps a NaN deviation
    return float(np.max(worst, initial=0.0))

