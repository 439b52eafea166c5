"""Numerics helpers: finite differences, sampling boxes, callable wrappers."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError

# Central-difference step; balances truncation and roundoff in double precision.
FD_SCALE = 1e-6


def fd_step(x: np.ndarray) -> float:
    return FD_SCALE * max(1.0, float(np.max(np.abs(x))))


def grad_fd(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Gradient of a scalar map by central differences."""
    x = np.asarray(x, dtype=float)
    h = fd_step(x)
    g = np.empty(x.size)
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def jacobian_fd(F: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Jacobian of a vector map by central differences, columns = coordinates."""
    x = np.asarray(x, dtype=float)
    h = fd_step(x)
    cols = []
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((np.asarray(F(xp), float) - np.asarray(F(xm), float)) / (2.0 * h))
    return np.column_stack(cols)


@functools.cache
def _unit_mask(n: int, ndim: int) -> np.ndarray:
    """e_j for copy j, shaped to broadcast over ``(n,) + (..., n)`` blocks."""
    mask = np.eye(n, dtype=bool).reshape((n,) + (1,) * (ndim - 1) + (n,))
    mask.setflags(write=False)
    return mask


def central_differences(F: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                        tail: tuple[int, ...]) -> np.ndarray:
    """Central differences of a map that takes blocks, from one call of F.

    ``x`` is one point ``(N,)`` or a block ``(..., N)``.  F is called once on
    the 2N perturbed copies of x stacked on a new leading axis and returns
    ``tail`` per point, ``(2N,) + x.shape[:-1] + tail``, or an x-independent
    ``tail`` once; any other shape raises DimensionMismatchError.  Entry j of
    the result, shape ``(N,) + x.shape[:-1] + tail``, is
    (F(x + h e_j) - F(x - h e_j)) / (2h) with the step
    h = FD_SCALE * max(1, max|x|) of each point: the values ``jacobian_fd``
    gives one point at a time.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    h = FD_SCALE * np.maximum(1.0, np.abs(x).max(axis=-1))
    pts = np.empty((2 * n,) + x.shape)
    pts[...] = x
    # only the perturbed coordinate of each copy is written, as x[j] += h
    along = _unit_mask(n, x.ndim)
    np.add(pts[:n], h[..., None], out=pts[:n], where=along)
    np.subtract(pts[n:], h[..., None], out=pts[n:], where=along)
    vals = np.asarray(F(pts), dtype=float)
    if vals.shape == tail:
        vals = np.broadcast_to(vals, pts.shape[:-1] + tail)
    elif vals.shape != pts.shape[:-1] + tail:
        raise DimensionMismatchError(
            f"map returned shape {vals.shape} for points of shape {pts.shape}; "
            f"need {tail} per point")
    two_h = (2.0 * h).reshape(h.shape + (1,) * len(tail))
    return (vals[:n] - vals[n:]) / two_h


def dot_last(u, v) -> np.ndarray:
    """Dot product over the last axis, broadcast over the leading axes.

    Each product is the BLAS dot of ``u @ v`` for two 1-D arrays, so a block
    gives the values of a per-point loop bit for bit (``u @ v`` with a 2-D
    ``u`` is a matrix-vector product and need not).
    """
    return (np.asarray(u)[..., None, :] @ np.asarray(v)[..., :, None])[..., 0, 0]


def matvec(M, v) -> np.ndarray:
    """``M @ v`` for matrices ``(..., N, N)`` and vectors ``(..., N)``."""
    return (M @ np.asarray(v)[..., None])[..., 0]


def vecmat(v, M) -> np.ndarray:
    """``v @ M`` for vectors ``(..., N)`` and matrices ``(..., N, N)``."""
    return (np.asarray(v)[..., None, :] @ M)[..., 0, :]


class FuncWithGrad:
    """Scalar map bundled with its analytic gradient (and optional Hessian).

    ``gradient`` returns ``(..., N)`` for points ``(..., N)``, or an
    x-independent ``(N,)``.  ``hessian`` is present only when one was
    attached; the Jacobiator of ``folsys.poisson`` reads it.
    """

    def __init__(self, func, grad, hess=None, name: str = ""):
        self._func = func
        self._grad = grad
        self.name = name
        if hess is not None:
            self.hessian = lambda x: np.asarray(hess(np.asarray(x, dtype=float)),
                                                dtype=float)

    def __call__(self, x):
        """A float at one point, an array ``(...,)`` on a block ``(..., N)``."""
        value = np.asarray(self._func(np.asarray(x, dtype=float)), dtype=float)
        return float(value) if value.ndim == 0 else value

    def gradient(self, x):
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)


def linear_form(weights: np.ndarray, name: str = "") -> FuncWithGrad:
    w = np.asarray(weights, dtype=float)
    return FuncWithGrad(
        lambda x: dot_last(x, w),
        lambda x: w.copy(),
        hess=lambda x: np.zeros((w.size, w.size)),
        name=name,
    )


def coordinate_function(i: int, dim: int) -> FuncWithGrad:
    w = np.zeros(dim)
    w[i] = 1.0
    return linear_form(w, name=f"x{i + 1}")


@dataclass(frozen=True)
class Box:
    """Axis-aligned sampling box; also the declared domain of a model."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.hi <= self.lo):
            raise ValueError("box bounds must satisfy lo < hi componentwise")

    @property
    def dim(self) -> int:
        return self.lo.size

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
