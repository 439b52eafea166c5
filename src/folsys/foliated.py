"""Foliated decompositions X = sum_a g_a(t,x) X_a and their verification.

The coefficient functions must be constants of motion of every realized
field, and the realized fields must close their Lie algebra and span a
constant-rank distribution; these conditions are checked statistically at
seeded sample points, never symbolically, since coefficient functions are
arbitrary numeric callables.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError
from .fields import (RealizedAlgebra, TDependentVectorField, rank_at,
                     structure_residual)
from .integrate import Trajectory, _product_block, _sum_block
from .util import central_differences, dot_last, seeded_rng


@dataclass(frozen=True)
class FoliationChart:
    """Coordinates adapted to a foliation.

    ``leaf_map`` extracts the transverse labels and is always present.  A
    split chart (``is_split``, set only by ``FoliationChart.split``) runs along
    the leaf in the first ``leaf_dim`` coordinates and is labelled by the
    rest.  A chart has ``n_labels = dim - leaf_dim`` labels.
    """

    dim: int
    leaf_dim: int
    leaf_map: Callable[[np.ndarray], np.ndarray]
    leaf_point: Callable[[np.ndarray], np.ndarray] | None = None
    is_split: bool = False

    n_labels = property(lambda s: s.dim - s.leaf_dim)

    @classmethod
    def split(cls, dim: int, leaf_dim: int) -> "FoliationChart":
        """Split chart: the first ``leaf_dim`` coordinates run along the leaf."""
        s = leaf_dim

        def leaf_point(labels):
            return np.concatenate([np.zeros(s), np.asarray(labels, dtype=float)])

        return cls(
            dim=dim,
            leaf_dim=s,
            leaf_map=lambda x: np.asarray(x, dtype=float)[..., s:].copy(),
            leaf_point=leaf_point,
            is_split=True,
        )


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
    array ``(..., r)``, so values they share (a gradient, an invariant) are
    computed once per call.  ``t`` is an array of times, one per point,
    broadcasting against ``x.shape[:-1]``.  A map whose values do not
    depend on x may return ``np.shape(t) + (r,)`` instead, or ``(r,)`` when
    they depend on neither; see ``coefficient_values``.

    The coefficients are constants of motion (``verify_foliated`` checks
    it), so along a solution from x0 they are those at x0's labels:
    ``assemble`` tabulates them there, which integrates the leafwise Lie
    system sum_a g_a(t, x0) X_a(x).  On a split chart the map reads x only
    through the labels ``x[..., leaf_dim:]``, which RK4 leaves unchanged
    (realized fields have zero label components; only a zero label may
    change sign), so the table is the coefficients at every stage state; on
    another chart (Ermakov's invariant) it differs from them by the drift
    of the labels.

    ``domain``, when set, maps states ``(..., N)`` to bools ``(...)``, True
    inside the domain; ``integrate`` checks a block of states in one call.
    ``combine``, when set, is sum_a c_a X_a(x) in one function
    ``combine(c, x)`` of the coefficients and states, bit for bit the
    per-field sum of ``assemble``: ``c`` holds them laid out by field and
    summed from 0.0 (``c[a]`` is 0.0 + c_a, one number, or a column
    ``(B, 1)`` against a batch ``(B, N)``).  Its float form, the N values
    ``combine.floats(*c, *x)`` on Python floats, steps one state (see
    ``integrate``), so a subclass of the field sees batch stages only.
    """

    realized: RealizedAlgebra
    coeffs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    chart: FoliationChart
    name: str = ""
    domain: Callable[[np.ndarray], np.ndarray] | None = None
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.chart.dim != self.realized.ambient_dim:
            raise DimensionMismatchError("chart dimension must match the realization")

    @property
    def dim(self) -> int:
        return self.realized.ambient_dim


def coefficient_values(coeffs, r: int, t, x: np.ndarray) -> np.ndarray:
    """``coeffs(t, x)`` as an array, checked against the coefficient-map contract.

    ``t`` is an array of times broadcasting against ``x.shape[:-1]``.  The
    value has shape ``x.shape[:-1] + (r,)``, or, when it does not depend on
    x, ``np.shape(t) + (r,)`` or ``(r,)``; any other shape raises
    DimensionMismatchError.
    """
    c = np.asarray(coeffs(t, x))
    if (c.shape != x.shape[:-1] + (r,) and c.shape != (r,)
            and c.shape != np.shape(t) + (r,)):
        raise DimensionMismatchError(
            f"coefficient map returned shape {c.shape} for states of shape "
            f"{x.shape} at times of shape {np.shape(t)}; need {r} coefficients "
            f"per state")
    return c


def assemble(fs: FoliatedSystem) -> TDependentVectorField:
    """Time-dependent field eval(t,x) = sum_a g_a(t,x) X_a(x), the
    ``lie_system`` of the realized fields and the system's other parts."""
    return lie_system(fs.realized.fields, fs.coeffs, fs.domain, fs.combine, fs.name)


def _coefficient_sum(c, terms, shape):
    """sum_a c[..., a] terms[a], of shape ``c.shape[:-1] + shape``: from
    zeros, in field order."""
    out = np.zeros(c.shape[:-1] + shape)
    axes = (None,) * len(shape)
    for a, term in enumerate(terms):
        out += c[(..., a) + axes] * term
    return out


def _field_rows(c, lead):
    """Coefficients ``(lead axes, [rows,] r)`` as a stage reads them: 0.0 + c,
    the field axis moved ahead of the rows of a batch, which gain a trailing
    state axis, so that entry a is one number or a column against states
    ``(B, N)``.  Contiguous: a stage on strided rows runs slower."""
    c = 0.0 + c
    if c.ndim > lead + 1:
        c = np.moveaxis(c, -1, lead)[..., None]
    return np.ascontiguousarray(c)


def lie_system(fields, coeffs, domain=None, combine=None,
               name: str = "") -> TDependentVectorField:
    """The Lie system eval(t,x) = sum_a c_a(t,x) X_a(x) of the fields X_a
    and the coefficient map ``coeffs`` (see FoliatedSystem).

    ``x`` is one state ``(N,)`` or a batch ``(B, N)``.  Each field and the
    coefficient map are called once on the whole array; a field must return
    an array of the shape of ``x``, the map ``x.shape[:-1] + (r,)`` or an
    x-independent ``(r,)``, which is broadcast over the batch.

    The field is tabled (see ``TDependentVectorField``): one call of the map
    on a block's stage times ``(3, K[, B])`` and x0 broadcast to
    ``(3, K[, B], N)`` gives the coefficients of every stage of the block at
    x0's labels (see FoliatedSystem).  Its route is chosen here, once:

    - all fields constant (a ``value``: the translations of hamilton_jacobi
      and lax, the abelian group curves): ``integrate._sum_block`` on the
      stage values sum_a c_a X_a;
    - all linear (a ``matrix`` M_a: the uncoupled Ermakov fields, the matrix
      group curves): ``integrate._product_block`` on the stage matrices
      sum_a c_a M_a;
    - otherwise a stage on the coefficient rows (``_field_rows``): the
      declared ``combine`` (Riccati, coupled Ermakov; one state on its float
      form), or else the per-field sum ``out = 0.0; out += c_a X_a(x)``.

    Both sums start from zeros and go in field order.  ``func`` runs the
    same Lie system on the coefficients at its own t and x.
    """
    fields = tuple(fields)
    dim, r = fields[0].dim, len(fields)

    def per_field(c, x):
        out = np.zeros(x.shape)
        for a, X in enumerate(fields):
            v = np.asarray(X.func(x), dtype=float)
            if v.shape != x.shape:
                raise DimensionMismatchError(
                    f"field {X.name!r} returned shape {v.shape} for states "
                    f"of shape {x.shape}")
            out += c[a] * v
        return out

    stage = combine or per_field

    def func(t, x):
        return stage(_field_rows(coefficient_values(coeffs, r, t, x), 0), x)

    values, matrices = [X.value for X in fields], [X.matrix for X in fields]
    if all(v is not None for v in values):
        terms, shape, route = values, (dim,), _sum_block
    elif all(m is not None for m in matrices):
        terms, shape, route = matrices, (dim, dim), _product_block
    else:
        terms, shape, route = None, None, stage

    def table(times, x0):
        # the coefficients at the labels of x0, all a map reads of x
        c = coefficient_values(coeffs, r, times,
                               np.broadcast_to(x0, times.shape[:2] + x0.shape).copy())
        c = np.broadcast_to(c, times.shape + c.shape) if c.ndim == 1 else c
        return _field_rows(c, 2) if terms is None else _coefficient_sum(c, terms, shape)

    return TDependentVectorField.tabled(dim, func, table, route, domain=domain, name=name)


@dataclass(frozen=True)
class FoliationReport:
    com_residual: float
    rank_shortfall: float
    chart_residual: float
    structure_residual: float


def _rates(grads: np.ndarray, values: np.ndarray) -> np.ndarray:
    """|grad F_j(x) . X_a(x)| ``(..., k, r)`` from the central differences
    ``(N, ..., k)`` of the k components of F and the field values ``(..., r, N)``."""
    # rows are the gradients of the components, contiguous like 1-D points
    rows = grads.transpose((*range(1, grads.ndim), 0)).copy()
    return np.abs(dot_last(rows[..., :, None, :], values[..., None, :, :]))


def verify_foliated(fs: FoliatedSystem, trials: int = 100, seed: int = 42,
                    t_range: tuple[float, float] = (0.0, 2.0)) -> FoliationReport:
    """Check the constants-of-motion, regularity, chart and structure-constant
    conditions at samples.

    The rank shortfall is ``leaf_dim`` minus the least rank of the realized
    fields over the samples, or 0.0 when no sample drops below the leaf
    rank.  The samples, a point and then its time per trial, come from one
    draw of the generator.  Each field is evaluated once on the
    ``(trials, N)`` block of all samples, and its values serve the ranks (one
    stacked SVD), the rates and the structure residual.  The central
    differences of the leaf labels and those of the coefficient map (with the
    ``(trials,)`` sample times) and the shifted evaluations of the brackets
    are block evaluations too.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = seeded_rng(seed)
    ra = fs.realized
    lo, hi = np.append(ra.box.lo, t_range[0]), np.append(ra.box.hi, t_range[1])
    draws = rng.uniform(lo, hi, size=(trials, lo.size))
    xs, ts = np.ascontiguousarray(draws[:, :-1]), draws[:, -1].copy()
    vals = [X(xs) for X in ra.fields]
    shortfall = float(max(0, fs.chart.leaf_dim
                          - int(rank_at(ra.fields, xs, values=vals).min())))
    # (trials, r, N): the values at each sample are contiguous rows
    values = np.stack(vals, axis=1)
    r = len(ra.fields)

    def coeffs(y):
        # y is (2N, trials, N); a value of one row per time is spread over 2N
        return np.broadcast_to(coefficient_values(fs.coeffs, r, ts, y),
                               y.shape[:-1] + (r,))

    # ndarray.max, unlike the builtin max, keeps a NaN rate
    com = float(_rates(central_differences(coeffs, xs, (r,)), values).max(initial=0.0))
    labels = central_differences(lambda y: leaf_of(fs.chart, y), xs,
                                 (fs.chart.n_labels,))
    chart_res = float(_rates(labels, values).max(initial=0.0))
    return FoliationReport(com_residual=com, rank_shortfall=shortfall,
                           chart_residual=chart_res,
                           structure_residual=structure_residual(ra, xs, vals))


def sup_drift(observable: Callable[[np.ndarray], object], states,
              block: int | None = None) -> float:
    """Max sup-norm deviation of ``observable`` along ``states`` from its
    value at ``states[0]``.  The observable is evaluated once on the whole
    ``(T, N)`` block, or on consecutive blocks of at most ``block`` samples,
    and returns ``(T,)`` or ``(T, ...)``; a per-sample observable gives the
    same value either way."""
    size = len(states) if block is None else block
    worst, ref = [], None
    for i in range(0, len(states), size):
        values = np.asarray(observable(states[i:i + size]))
        if ref is None:
            ref = values[0].copy()
        worst.append(np.max(np.abs(values - ref)))
    return float(np.max(worst))  # np.max keeps a NaN


def leaf_drift(traj: Trajectory, chart: FoliationChart) -> float:
    """Max sup-norm displacement of the leaf label along a trajectory."""
    if chart.n_labels == 0:
        return 0.0
    return sup_drift(lambda x: leaf_of(chart, x), traj.states)
