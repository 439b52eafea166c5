"""Foliated decompositions X = sum_a g_a(t,x) X_a and their verification.

The coefficient functions must be constants of motion of every realized
field and the realized fields must span a constant-rank distribution; both
conditions are checked statistically at seeded sample points, never
symbolically, since coefficient functions are arbitrary numeric callables.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegeneratePointError, DimensionMismatchError
from .fields import (RealizedAlgebra, TDependentVectorField,
                     directional_derivative, rank_at)
from .integrate import Trajectory
from .util import seeded_rng

DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class FoliationChart:
    """Coordinates adapted to a foliation.

    ``leaf_map`` extracts the transverse labels and is always present.  The
    full adapted chart (``to_adapted`` / ``from_adapted``) is optional: a
    model may expose fewer labels than its true codimension (e.g. a single
    conserved quantity) and then only drift checks are available.
    """

    dim: int
    leaf_dim: int
    n_labels: int
    leaf_map: Callable[[np.ndarray], np.ndarray]
    to_adapted: Callable[[np.ndarray], np.ndarray] | None = None
    from_adapted: Callable[[np.ndarray], np.ndarray] | None = None
    leaf_point: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def has_full_chart(self) -> bool:
        return self.to_adapted is not None and self.from_adapted is not None

    @classmethod
    def split(cls, dim: int, leaf_dim: int) -> "FoliationChart":
        """Identity chart: the first ``leaf_dim`` coordinates run along the leaf."""
        s = leaf_dim

        def leaf_point(labels):
            return np.concatenate([np.zeros(s), np.asarray(labels, dtype=float)])

        return cls(
            dim=dim,
            leaf_dim=s,
            n_labels=dim - s,
            leaf_map=lambda x: np.asarray(x, dtype=float)[s:].copy(),
            to_adapted=lambda x: np.asarray(x, dtype=float).copy(),
            from_adapted=lambda a: np.asarray(a, dtype=float).copy(),
            leaf_point=leaf_point,
        )

    @classmethod
    def from_invariants(cls, dim: int, leaf_dim: int,
                        invariants: Callable[[np.ndarray], np.ndarray],
                        n_labels: int,
                        leaf_point: Callable[[np.ndarray], np.ndarray] | None = None,
                        ) -> "FoliationChart":
        """Chart exposing only conserved labels, without adapted coordinates."""
        return cls(dim=dim, leaf_dim=leaf_dim, n_labels=n_labels,
                   leaf_map=invariants, leaf_point=leaf_point)


def leaf_of(chart: FoliationChart, x) -> np.ndarray:
    """Transverse label block identifying the leaf through x."""
    x = np.asarray(x, dtype=float)
    if x.size != chart.dim:
        raise DimensionMismatchError(f"point must have dimension {chart.dim}")
    return np.atleast_1d(np.asarray(chart.leaf_map(x), dtype=float))


def chart_roundtrip_residual(chart: FoliationChart, points: Sequence[np.ndarray]) -> float:
    if not chart.has_full_chart:
        raise ValueError("chart does not carry adapted coordinates")
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        back = chart.from_adapted(chart.to_adapted(x))
        worst = max(worst, float(np.max(np.abs(back - x))))
    return worst


@dataclass(frozen=True)
class FoliatedSystem:
    """Decomposition X(t,x) = sum_a g_a(t,x) X_a(x) over a realized algebra."""

    realized: RealizedAlgebra
    coeffs: tuple[Callable[[float, np.ndarray], float], ...]
    chart: FoliationChart
    name: str = ""
    domain: Callable[[np.ndarray], bool] | None = None

    def __post_init__(self):
        if len(self.coeffs) != self.realized.algebra.dim:
            raise DimensionMismatchError("need one coefficient per basis field")
        if self.chart.dim != self.realized.ambient_dim:
            raise DimensionMismatchError("chart dimension must match the realization")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def dim(self) -> int:
        return self.realized.ambient_dim


def assemble(fs: FoliatedSystem) -> TDependentVectorField:
    """Time-dependent field eval(t,x) = sum_a g_a(t,x) X_a(x).

    ``x`` is one state ``(N,)`` or a batch ``(B, N)``.  Each field is called
    once on the whole array and must return an array of its shape; each
    coefficient is called once per row with that row's state, so a
    coefficient that is not constant on leaves still shows in every row.
    """
    flds = fs.realized.fields
    coeffs = fs.coeffs

    def func(t, x):
        out = np.zeros(x.shape)
        batch = x.ndim == 2
        for g, X in zip(coeffs, flds):
            c = np.array([g(t, row) for row in x])[:, None] if batch else g(t, x)
            v = X(x)
            if v.shape != x.shape:
                raise DimensionMismatchError(
                    f"field {X.name!r} returned shape {v.shape} for states "
                    f"of shape {x.shape}")
            out += c * v
        return out

    return TDependentVectorField(fs.dim, func, domain=fs.domain, name=fs.name)


@dataclass(frozen=True)
class FoliationReport:
    com_residual: float
    rank_ok: bool
    chart_residual: float

    def passed(self, tol: float = DEFAULT_TOL) -> bool:
        return self.rank_ok and self.com_residual <= tol and self.chart_residual <= tol


def verify_foliated(fs: FoliatedSystem, trials: int = 100, seed: int = 42,
                    t_range: tuple[float, float] = (0.0, 2.0)) -> FoliationReport:
    """Check the constants-of-motion, regularity and chart conditions at samples.

    A sampled point where the realized fields drop below the leaf rank aborts
    with DegeneratePointError instead of silently resampling.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = seeded_rng(seed)
    ra = fs.realized
    r = ra.algebra.dim
    com = 0.0
    chart_res = 0.0
    for _ in range(trials):
        x = ra.box.sample(rng)
        t = float(rng.uniform(*t_range))
        rank = rank_at(ra.fields, x)
        if rank < fs.chart.leaf_dim:
            raise DegeneratePointError(x, rank, fs.chart.leaf_dim)
        for b in range(r):
            g_b = fs.coeffs[b]
            frozen = lambda y, _t=t, _g=g_b: float(_g(_t, y))
            for a in range(r):
                com = max(com, abs(directional_derivative(ra.fields[a], frozen, x)))
        for j in range(fs.chart.n_labels):
            label_j = lambda y, _j=j: float(leaf_of(fs.chart, y)[_j])
            for a in range(r):
                chart_res = max(chart_res, abs(directional_derivative(ra.fields[a], label_j, x)))
    return FoliationReport(com_residual=com, rank_ok=True, chart_residual=chart_res)


def sup_drift(observable: Callable[[np.ndarray], object], states) -> float:
    """Max sup-norm deviation of ``observable`` along ``states`` from its
    value at ``states[0]``; the observable may return a scalar or an array."""
    ref = observable(states[0])
    worst = 0.0
    for row in states:
        worst = max(worst, float(np.max(np.abs(observable(row) - ref))))
    return worst


def leaf_drift(traj: Trajectory, chart: FoliationChart) -> float:
    """Max sup-norm displacement of the leaf label along a trajectory."""
    if chart.n_labels == 0:
        return 0.0
    return sup_drift(lambda x: leaf_of(chart, x), traj.states)
