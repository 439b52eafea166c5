"""Reduction of a foliated system to a group-valued system and reconstruction.

Sign bookkeeping, fixed once and used everywhere: the fundamental vector
field of a generator v is X_v(x) = d/ds|_{s=0} act(exp(-s v), x), so the
compatibility gate checks d/ds|_0 act(exp(+s A_a), x) = -X_a(x).  The
reduced group system carries coefficients c_a(t,k) = -g_a(t,k); solving
lambda' = sum_a c_a A_a (abelian) or g' = (sum_a c_a A_a) g (matrix), the
Lie system of the group's fields, from the identity and mapping
x(t) = act(g(t), x0) reproduces the original flow.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IncompatibleActionError
from .fields import VectorField
from .foliated import FoliatedSystem, coefficient_values, leaf_of, lie_system
from .integrate import DEFAULT_STEP, Trajectory, integrate
from .util import seeded_rng

GATE_TOL = 1e-6
GATE_POINTS = 100
_FD_EPS = 1e-6
_DET_FLOOR = 1e-12

ABELIAN = "abelian"
MATRIX = "matrix"


@dataclass(frozen=True)
class GroupAction:
    """Left action of an abelian or matrix group on R^N.

    ``act(g, x)`` moves one point ``(N,)`` or a block ``(..., N)`` of points
    by one element or by a stack of them (``(..., r)`` or ``(..., d, d)``)
    whose leading axes broadcast against the points', each item bit for bit
    as that element alone.  ``generators`` pairs with the realized fields of
    the system being reduced: generators[a] corresponds to field X_a.  For
    abelian groups a generator is a vector in the group's R^r; for matrix
    groups a d x d algebra matrix A_a with right-invariant field A_a g.
    """

    kind: str
    act: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity: np.ndarray
    generators: tuple[np.ndarray, ...]
    name: str = ""

    def __post_init__(self):
        if self.kind not in (ABELIAN, MATRIX):
            raise ValueError(f"unknown group kind: {self.kind!r}")
        gens = tuple(np.asarray(g, dtype=float) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "identity", np.asarray(self.identity, dtype=float))

    def exp(self, coeff: float, index: int) -> np.ndarray:
        """Group element exp(coeff * A_index)."""
        A = self.generators[index]
        if self.kind == ABELIAN:
            return coeff * A
        return _expm(coeff * A)


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the degree-18 Taylor
    polynomial (Moler and Van Loan, SIAM Review 45 (2003), Secs. 3 and 6).

    A is scaled by 2**-s to a 1-norm below 1, where the remainder of the
    series is of order 1/19!; the polynomial is evaluated in Horner form and
    squared s times.  A non-finite entry gives a non-finite result, without a warning.
    """
    _, s = np.frexp(np.abs(A).sum(axis=0).max(initial=0.0))
    s = max(int(s), 0)  # frexp gives exponent 0 for inf and NaN
    B = np.ldexp(A, -s)
    eye = np.eye(A.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        E = eye
        for k in range(18, 0, -1):
            E = eye + B @ E / k
        for _ in range(s):
            E = E @ E
    return E


def fundamental_field_residual(action: GroupAction, fields: Sequence[VectorField],
                               points: Sequence[np.ndarray]) -> float:
    """Max deviation of d/ds|_0 act(exp(s A_a), x) from -X_a(x).

    ``points`` is a block ``(P, N)``: the two group elements exp(+-eps A_a)
    of each generator are computed once and act on the whole block, and each
    field is evaluated once on it.
    """
    pts = np.asarray(points, dtype=float)
    worst = []
    for a, X in enumerate(fields):
        gp, gm = action.exp(_FD_EPS, a), action.exp(-_FD_EPS, a)
        d = (action.act(gp, pts) - action.act(gm, pts)) / (2.0 * _FD_EPS)
        worst.append(np.max(np.abs(d + X(pts))))
    return float(np.max(worst, initial=0.0))  # np.max keeps a NaN


def reduce_system(fs: FoliatedSystem, action: GroupAction,
                  seed: int = 42) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Reduce a foliated system through a compatible group action to the
    coefficient map ``coeffs(t, k)`` of its group system on the action's group.

    The action's generator flows are compared against the realized fields at
    seeded sample points before anything else; mismatch beyond 1e-6 raises.
    The map evaluates ``fs.coeffs`` at the chart's representative point of
    the leaf k, repeated once per time, and returns c = -g as one row per
    time, ``np.shape(t) + (r,)``.
    """
    if len(action.generators) != fs.algebra.dim:
        raise IncompatibleActionError("one generator per realized field is required")
    rng = seeded_rng(seed)
    pts = fs.box.sample_many(rng, GATE_POINTS)
    res = fundamental_field_residual(action, fs.fields, pts)
    if not res <= GATE_TOL:  # a NaN residual fails too
        raise IncompatibleActionError(
            f"action incompatible with realization: residual {res:.3e}"
        )
    chart = fs.chart
    if chart.leaf_point is None:
        raise IncompatibleActionError("chart has no representative-point map")
    r = len(action.generators)

    def coeffs(t, k):
        x = chart.leaf_point(np.atleast_1d(k))
        c = coefficient_values(fs.coeffs, r, t, np.broadcast_to(x, np.shape(t) + x.shape))
        return np.broadcast_to(-np.asarray(c, dtype=float), np.shape(t) + (r,))

    return coeffs


def _group_curve(action: GroupAction, fields, coeffs, k, t0: float, t1: float,
                 h: float, domain=None) -> Trajectory:
    """RK4 from the action's identity of the ``lie_system`` of the group's
    fields on the flattened elements, with the coefficients at the leaf k."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    F = lie_system(fields, lambda t, g: coeffs(t, k), domain=domain)
    return integrate(F, action.identity.ravel(), t0, t1, h)


def solve_abelian(action: GroupAction, coeffs, k, t0: float, t1: float,
                  h: float = DEFAULT_STEP) -> Trajectory:
    """RK4 of lambda' = sum_a c_a(t, k) A_a on the abelian group of ``action``
    from its identity, c the map of ``reduce_system``: the curve ``(T, r)``
    that ``integrate`` returns.

    The constant fields A_a make it time-only, so ``integrate`` sums it by
    Simpson's rule a block of steps at a time, bit for bit its RK4 loop.  A
    non-finite node raises BlowUpError with the curve before it as
    ``partial``.
    """
    if action.kind != ABELIAN:
        raise ValueError("solve_abelian requires an abelian action")
    return _group_curve(action, [VectorField.constant(A) for A in action.generators],
                        coeffs, k, t0, t1, h)


def solve_matrix(action: GroupAction, coeffs, k, t0: float, t1: float,
                 h: float = DEFAULT_STEP) -> Trajectory:
    """RK4 on the matrix entries of g' = (sum_a c_a(t,k) A_a) g on the matrix
    group of ``action`` from its identity, c the map of ``reduce_system``:
    the curve of row-major entries ``(T, d*d)`` that ``integrate`` returns.

    On those entries the fields are the linear fields A_a kron I, stepped
    by the RK4 step matrices a block of steps at a time: each block's
    elements come from the scanned cumulative products of its step
    matrices, and a block that is not all finite re-runs step by step
    (within max(1e-12, K 2^-52) max(1, max|g|) of the per-stage loop after
    K steps).  The curve is not reprojected onto the group; drift is
    measured by the caller.  A determinant below the floor is a domain
    exit; errors carry the entries so far as ``partial``, in the same
    layout.
    """
    if action.kind != MATRIX:
        raise ValueError("solve_matrix requires a matrix action")
    d = action.identity.shape[0]
    return _group_curve(action, [VectorField.linear(np.kron(A, np.eye(d)))
                                 for A in action.generators],
                        coeffs, k, t0, t1, h, domain=_det_guard(d))


def _det_guard(d: int) -> Callable[[np.ndarray], np.ndarray]:
    """The domain guard of a d x d curve on the row-major entries ``(..., d*d)``
    of its elements: |det g| at least the floor, one bool per element.  For
    d = 2 the determinant is written out, as ``np.linalg.det`` would cost
    more than the rest of a step."""
    if d == 2:
        return lambda g: np.abs(g[..., 0] * g[..., 3] - g[..., 1] * g[..., 2]) >= _DET_FLOOR
    return lambda g: np.abs(np.linalg.det(g.reshape(g.shape[:-1] + (d, d)))) >= _DET_FLOOR


def reconstruct(action: GroupAction, curve: Trajectory, x0) -> Trajectory:
    """Trajectory with states act(g(t_i), x0), one act call on the curve of
    ``solve_abelian`` or ``solve_matrix``, read as elements of the
    identity's shape."""
    elements = curve.states.reshape((-1,) + action.identity.shape)
    states = action.act(elements, np.asarray(x0, dtype=float))
    return Trajectory(curve.times, states, curve.step)


def reconstruction_error(fs: FoliatedSystem, action: GroupAction,
                         direct: Trajectory, seed: int = 42) -> float:
    """Sup-norm gap between ``direct``, an integrated flow of ``fs``, and its
    group reconstruction from ``direct.states[0]`` on the same time grid."""
    x0 = direct.states[0]
    coeffs = reduce_system(fs, action, seed=seed)
    k = leaf_of(fs.chart, x0)
    solve = solve_abelian if action.kind == ABELIAN else solve_matrix
    curve = solve(action, coeffs, k, direct.times[0], direct.times[-1], direct.step)
    rec = reconstruct(action, curve, x0)
    return float(np.max(np.abs(rec.states - direct.states)))
