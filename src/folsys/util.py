"""Numerics helpers: finite differences, sampling boxes, callable wrappers."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Central-difference step; balances truncation and roundoff in double precision.
FD_SCALE = 1e-6


def fd_step(x: np.ndarray) -> float:
    return FD_SCALE * max(1.0, float(np.max(np.abs(x))))


def grad_fd(f: Callable[[np.ndarray], float], x: np.ndarray,
            step: float | None = None) -> np.ndarray:
    """Gradient of a scalar map by central differences."""
    x = np.asarray(x, dtype=float)
    h = fd_step(x) if step is None else step
    g = np.empty(x.size)
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def jacobian_fd(F: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                step: float | None = None) -> np.ndarray:
    """Jacobian of a vector map by central differences, columns = coordinates."""
    x = np.asarray(x, dtype=float)
    h = fd_step(x) if step is None else step
    cols = []
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((np.asarray(F(xp), float) - np.asarray(F(xm), float)) / (2.0 * h))
    return np.column_stack(cols)


def gradient_of(f: Callable, x: np.ndarray, step: float | None = None) -> np.ndarray:
    """Use an attached analytic gradient when the callable carries one."""
    g = getattr(f, "gradient", None)
    if g is not None:
        return np.asarray(g(x), dtype=float)
    return grad_fd(f, x, step=step)


class FuncWithGrad:
    """Scalar map bundled with its analytic gradient (and optional Hessian).

    ``hessian`` is only present when one was attached, so consumers can probe
    with getattr and fall back to finite differences.
    """

    def __init__(self, func, grad, hess=None, name: str = ""):
        self._func = func
        self._grad = grad
        self.name = name
        if hess is not None:
            self.hessian = lambda x: np.asarray(hess(np.asarray(x, dtype=float)),
                                                dtype=float)

    def __call__(self, x):
        return float(self._func(np.asarray(x, dtype=float)))

    def gradient(self, x):
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)


def linear_form(weights: np.ndarray, name: str = "") -> FuncWithGrad:
    w = np.asarray(weights, dtype=float)
    return FuncWithGrad(
        lambda x: float(w @ x),
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
