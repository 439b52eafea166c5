"""Foliated decompositions X = sum_a g_a(t,x) X_a and their verification.

The coefficient functions must be constants of motion of every realized
field and the realized fields must span a constant-rank distribution; both
conditions are checked statistically at seeded sample points, never
symbolically, since coefficient functions are arbitrary numeric callables.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegeneratePointError, DimensionMismatchError
from .fields import RealizedAlgebra, TDependentVectorField, rank_at
from .integrate import Trajectory
from .util import central_differences, dot_last, seeded_rng


@dataclass(frozen=True)
class FoliationChart:
    """Coordinates adapted to a foliation.

    ``leaf_map`` extracts the transverse labels and is always present.  A
    split chart (``is_split``, set only by ``FoliationChart.split``) runs along
    the leaf in the first ``leaf_dim`` coordinates and is labelled by the
    rest; a model may instead expose fewer labels than its true codimension
    (e.g. a single conserved quantity) and then only drift checks are
    available.
    """

    dim: int
    leaf_dim: int
    n_labels: int
    leaf_map: Callable[[np.ndarray], np.ndarray]
    leaf_point: Callable[[np.ndarray], np.ndarray] | None = None
    is_split: bool = False

    @classmethod
    def split(cls, dim: int, leaf_dim: int) -> "FoliationChart":
        """Split chart: the first ``leaf_dim`` coordinates run along the leaf."""
        s = leaf_dim

        def leaf_point(labels):
            return np.concatenate([np.zeros(s), np.asarray(labels, dtype=float)])

        return cls(
            dim=dim,
            leaf_dim=s,
            n_labels=dim - s,
            leaf_map=lambda x: np.asarray(x, dtype=float)[..., s:].copy(),
            leaf_point=leaf_point,
            is_split=True,
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
    """Transverse label block identifying the leaf through x.

    ``x`` is one point ``(N,)`` or a block ``(..., N)``; the labels then have
    shape ``(..., n_labels)``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (chart.dim,):
        raise DimensionMismatchError(f"point must have dimension {chart.dim}")
    return np.atleast_1d(np.asarray(chart.leaf_map(x), dtype=float))


@dataclass(frozen=True)
class FoliatedSystem:
    """Decomposition X(t,x) = sum_a g_a(t,x) X_a(x) over a realized algebra.

    ``coeffs(t, x)`` maps states ``(..., N)`` to all r coefficients as one
    array ``(..., r)``, or ``(r,)`` when they do not depend on x, so values they
    share (a gradient, an invariant) are computed once per call.
    """

    realized: RealizedAlgebra
    coeffs: Callable[[float, np.ndarray], np.ndarray]
    chart: FoliationChart
    name: str = ""
    domain: Callable[[np.ndarray], bool] | None = None

    def __post_init__(self):
        if self.chart.dim != self.realized.ambient_dim:
            raise DimensionMismatchError("chart dimension must match the realization")

    @property
    def dim(self) -> int:
        return self.realized.ambient_dim


def assemble(fs: FoliatedSystem) -> TDependentVectorField:
    """Time-dependent field eval(t,x) = sum_a g_a(t,x) X_a(x).

    ``x`` is one state ``(N,)`` or a batch ``(B, N)``.  Each field and the
    coefficient map are called once on the whole array; a field must return
    an array of the shape of ``x``, the map ``x.shape[:-1] + (r,)`` or an
    x-independent ``(r,)``, which is broadcast over the batch.
    """
    flds = fs.realized.fields
    coeffs = fs.coeffs
    r = len(flds)

    def func(t, x):
        c = np.asarray(coeffs(t, x))
        if c.shape not in (x.shape[:-1] + (r,), (r,)):
            raise DimensionMismatchError(
                f"coefficient map returned shape {c.shape} for states of shape "
                f"{x.shape}; need {r} coefficients per state")
        out = np.zeros(x.shape)
        for a, X in enumerate(flds):
            v = X(x)
            if v.shape != x.shape:
                raise DimensionMismatchError(
                    f"field {X.name!r} returned shape {v.shape} for states "
                    f"of shape {x.shape}")
            out += c[..., a, None] * v
        return out

    return TDependentVectorField(fs.dim, func, domain=fs.domain, name=fs.name)


@dataclass(frozen=True)
class FoliationReport:
    com_residual: float
    rank_ok: bool
    chart_residual: float


def _worst_rate(F, k: int, x: np.ndarray, values: np.ndarray) -> float:
    """Max |grad F_j(x) . X_a(x)| over the k components of F and the field
    values ``(r, N)``, with one call of F on the block of perturbed points."""
    # rows are the gradients of the components, contiguous like 1-D points
    grads = central_differences(F, x, (k,)).T.copy()
    return float(np.abs(dot_last(grads[:, None, :], values)).max(initial=0.0))


def verify_foliated(fs: FoliatedSystem, trials: int = 100, seed: int = 42,
                    t_range: tuple[float, float] = (0.0, 2.0)) -> FoliationReport:
    """Check the constants-of-motion, regularity and chart conditions at samples.

    A sampled point where the realized fields drop below the leaf rank aborts
    with DegeneratePointError instead of silently resampling.  Per sample the
    coefficient map and the leaf labels are each called once, on the block
    of the 2N points of a central-difference Jacobian.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = seeded_rng(seed)
    ra = fs.realized
    com = 0.0
    chart_res = 0.0
    for _ in range(trials):
        x = ra.box.sample(rng)
        t = float(rng.uniform(*t_range))
        rank = rank_at(ra.fields, x)
        if rank < fs.chart.leaf_dim:
            raise DegeneratePointError(x, rank, fs.chart.leaf_dim)
        values = np.array([X(x) for X in ra.fields])
        com = max(com, _worst_rate(lambda y: fs.coeffs(t, y), len(ra.fields), x, values))
        chart_res = max(chart_res, _worst_rate(lambda y: leaf_of(fs.chart, y),
                                               fs.chart.n_labels, x, values))
    return FoliationReport(com_residual=com, rank_ok=True, chart_residual=chart_res)


def sup_drift(observable: Callable[[np.ndarray], object], states) -> float:
    """Max sup-norm deviation of ``observable`` along ``states`` from its
    value at ``states[0]``.  The observable is evaluated once on the whole
    ``(T, N)`` block and returns ``(T,)`` or ``(T, ...)``."""
    values = np.asarray(observable(states))
    return float(np.max(np.abs(values - values[0])))


def leaf_drift(traj: Trajectory, chart: FoliationChart) -> float:
    """Max sup-norm displacement of the leaf label along a trajectory."""
    if chart.n_labels == 0:
        return 0.0
    return sup_drift(lambda x: leaf_of(chart, x), traj.states)
