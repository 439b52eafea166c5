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


class _Polynomial:
    """Points ``(..., N)`` to sum_d terms[d] x^d: each term None, a vector
    ``(N,)`` scaling x^d coordinatewise (x^0 = 1) or a matrix ``(N, N)``; x^2
    is libm's ``np.float_power(x, 2)``, not numpy's square (a last-bit gap)."""

    def __init__(self, terms):
        self.terms = tuple(None if c is None else np.array(c, dtype=float) for c in terms)
        for c in filter(lambda c: c is not None, self.terms):
            c.setflags(write=False)

    def __call__(self, x):
        powers = (np.ones(x.shape), x, np.float_power(x, 2) if len(self.terms) > 2 else None)
        parts = [p @ c.T if c.ndim == 2 else p * c
                 for p, c in zip(powers, self.terms) if c is not None]
        return sum(parts[1:], parts[0])


class _Along:
    """A right-hand side ``func(t, x)`` carrying how ``integrate`` builds it a
    block of steps at a time: a ``table`` and a ``combine``, or the stage
    ``matrices`` of a field linear along a solution (see TDependentVectorField)."""

    def __init__(self, func, table=None, combine=None, matrices=None):
        self.func, self.table, self.combine, self.matrices = func, table, combine, matrices

    def __call__(self, t, x):
        return self.func(t, x)


@dataclass(frozen=True)
class VectorField:
    """Autonomous vector field; ``VectorField.polynomial`` declares one of
    degree at most 2, whose ``terms`` (see ``_Polynomial``) give its ``func``,
    so the two cannot disagree (``terms`` is None for any other field):
    ``value`` is b for terms (b,), ``matrix`` M for terms (None, M), else None."""

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    @classmethod
    def polynomial(cls, terms, name: str = "") -> "VectorField":
        """The field sum_d ``terms[d]`` x^d, d = 0, 1, 2 (see ``_Polynomial``)."""
        return cls(len(next(c for c in terms if c is not None)), _Polynomial(terms), name)

    @classmethod
    def constant(cls, value, name: str = "") -> "VectorField":
        """The field whose value is ``value`` ``(N,)`` at every point."""
        return cls.polynomial([value], name=name)

    @classmethod
    def linear(cls, matrix, name: str = "") -> "VectorField":
        """The field whose value at x is ``matrix @ x``, ``matrix`` ``(N, N)``."""
        return cls.polynomial([None, matrix], name=name)

    @property
    def terms(self) -> tuple | None:
        return self.func.terms if isinstance(self.func, _Polynomial) else None

    @property
    def value(self) -> np.ndarray | None:
        return self.terms[0] if len(self.terms or ()) == 1 else None

    @property
    def matrix(self) -> np.ndarray | None:
        t = self.terms or ()
        return t[1] if len(t) == 2 and t[0] is None and t[1].ndim == 2 else None

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class TDependentVectorField:
    """Time-dependent vector field; ``domain``, when set, guards integration:
    it maps states ``(..., N)`` to bools ``(...)``, so one call checks a block.

    ``t`` is a float, or an array of times, one per state of a batch, which
    is passed through as it is; the copy with ``func = combine`` that
    ``integrate`` calls per stage takes the table rows in its place.

    A field built by ``TDependentVectorField.tabled`` splits along a
    solution into values that depend on time alone and a function of the
    state: at stage s of step k' of a block of steps of a solution from x0,
    ``integrate`` steps ``combine(table(times, x0)[s, k'], x)``, building
    the values a block at a time: ``times`` ``(3, K, ...)`` are the start,
    midpoint and end times of the block's steps, broadcasting against
    ``x0.shape[:-1]``.  That is ``func(t, x)`` where the table reads all
    ``func`` reads of x (a split chart's labels); else (Ermakov's invariant)
    the table freezes the field at x0's leaf, and ``func``, the full field,
    runs where a table raises a ConfigError.

    A field with a ``table`` and no ``combine`` is time-only: along a
    solution its value depends on time alone, and the table rows
    ``(3, K, ..., N)`` are its values, so ``func(t, x)`` equals
    ``table(times, x0)[s, k']`` at every stage state x.  ``integrate``
    then sums each block of steps at once (Simpson's rule).

    A field built by ``TDependentVectorField.linear`` is linear along a
    solution: at stage s of step k', ``func(t, x)`` equals ``A x`` with A
    ``matrices(times, x0)[s, k']`` ``(..., N, N)``, and ``integrate``
    steps it by the RK4 step matrices of a block of steps.

    ``table``, ``combine`` and ``matrices`` are carried by ``func`` itself,
    so a copy of the field rebuilt from ``(dim, func, domain, name)`` takes
    the same route to the same bits; they read None for any other field."""

    dim: int
    func: Callable[[float, np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    @classmethod
    def tabled(cls, dim: int, func, table, combine=None, domain=None,
               name: str = "") -> "TDependentVectorField":
        """The field ``func``, declared to split along a solution into
        ``table(times, x0)`` and ``combine`` (time-only without one)."""
        return cls(dim, _Along(func, table=table, combine=combine), domain=domain, name=name)

    @classmethod
    def linear(cls, dim: int, func, matrices, domain=None,
               name: str = "") -> "TDependentVectorField":
        """The field ``func``, declared linear along a solution with the
        stage matrices ``matrices(times, x0)``."""
        return cls(dim, _Along(func, matrices=matrices), domain=domain, name=name)

    table = property(lambda s: s.func.table if isinstance(s.func, _Along) else None)
    combine = property(lambda s: s.func.combine if isinstance(s.func, _Along) else None)
    matrices = property(lambda s: s.func.matrices if isinstance(s.func, _Along) else None)

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

