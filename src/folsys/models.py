"""Built-in model families: Riccati, momentum-conserving Hamiltonian flows,
isospectral block systems, and a generalized Ermakov system.

Conventions worth pinning down once:

* Hamiltonian model on (Q, P): dQ^i/dt = -dH/dP^i(t, P), dP/dt = 0.  The
  translation fields d/dQ^i carry coefficients -dH/dP^i.

* Block ("Lax") model on v = (v^1..v^n, I = v^{n+1}..v^{2n}), built from the
  gradient dh/dI(t, I) of a Hamiltonian: the dynamics are generated from the
  matrix commutator dv/dt = [v, m] with m = -sum_a f_a(t, I) e_a and
  f_a = (dh/dI_a) / I_a, which in components gives dv^a/dt = -2 dh/dI_a.
  The commutator is the structural definition and fixes every sign
  downstream; the translation fields 2 d/dv^a carry coefficients -dh/dI_a,
  and f, defined only where every I_a is nonzero, enters the matrix m alone.

* Ermakov model on (x, y, vx, vy): second-order system
  x'' = -w2(t, I) x + c2/(x^2 y), y'' = -w2(t, I) y + c1/(x y^2) with the
  conserved quantity I = (x vy - y vx)^2 / 2 + c1 x/y + c2 y/x (constant
  coupling functions only, so the invariant stays closed form).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import algebra as la
from .automorphic import ABELIAN, GroupAction
from .errors import DimensionMismatchError, SingularCombinationError
from .fields import VectorField
from .foliated import FoliatedSystem, FoliationChart
from .superposition import SuperpositionRule
from .util import Box, central_differences

ERMAKOV_GUARD = 1e-6
_TWO = np.array(2.0)  # x^2's exponent: float_power converts a 0-d array faster than 2


@dataclass(frozen=True)
class ModelBundle:
    """Everything a scenario needs: system, rule, action, defaults, observables."""

    system: FoliatedSystem
    rule: SuperpositionRule | None
    action: GroupAction | None
    default_state: np.ndarray
    observables: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Riccati: dx/dt = a0(t) + a1(t) x + a2(t) x^2
# ---------------------------------------------------------------------------

def _sl2_algebra(names: tuple[str, str, str]) -> la.LieAlgebra:
    # basis (A, B, C) with [A,B] = A, [A,C] = 2 B, [B,C] = C: the Riccati
    # fields (d/dx, x d/dx, x^2 d/dx) and the Ermakov fields (X1, X2, X3)
    c = np.zeros((3, 3, 3))
    c[0, 1, 0] = 1.0
    c[1, 0, 0] = -1.0
    c[0, 2, 1] = 2.0
    c[2, 0, 1] = -2.0
    c[1, 2, 2] = 1.0
    c[2, 1, 2] = -1.0
    return la.LieAlgebra(3, names, c)


def _distinct_scale(pairs) -> np.ndarray:
    """max(1, largest |value|) of each sample; raises SingularCombinationError
    where the two values of a pair agree to 1e-12 of it."""
    scale = np.maximum(1.0, np.max(np.abs(pairs), axis=(0, 1)))
    if np.any(np.min(np.abs([a - b for a, b in pairs]), axis=0) < 1e-12 * scale):
        raise SingularCombinationError("coincident points in the cross ratio")
    return scale


def riccati_rule() -> SuperpositionRule:
    """Cross-ratio rule in three particular solutions and one constant; its
    first integral is the cross ratio k = (x-u1)(u3-u2) / ((u2-x)(u3-u1)).
    Its trial points are drawn at least 0.15 apart, away from the coincident
    solutions where it is singular, and its rational combination, which
    amplifies the rounding of the solutions, reconstructs them to 1e-6."""

    def psi(sols, k):
        u1, u2, u3 = (s[..., 0] for s in sols)
        kk = float(k[0])
        scale = _distinct_scale([(u1, u2), (u1, u3), (u2, u3)])
        den = (u3 - u2) + kk * (u3 - u1)
        if np.any(np.abs(den) < 1e-12 * scale * max(1.0, abs(kk))):
            raise SingularCombinationError("vanishing denominator")
        num = u1 * (u3 - u2) + kk * u2 * (u3 - u1)
        return (num / den)[..., None]

    def F(x, sols):
        u1, u2, u3 = (s[..., 0] for s in sols)
        u = x[..., 0]
        # x = u2 is the pole of k
        _distinct_scale([(u1, u2), (u1, u3), (u2, u3), (u2, u)])
        return ((u - u1) * (u3 - u2) / ((u2 - u) * (u3 - u1)))[..., None]

    return SuperpositionRule(m=3, state_dim=1, param_dim=1, psi=psi, F=F,
                             min_separation=0.15, tolerance=1e-6)


def translation_rule(n: int) -> SuperpositionRule:
    """Rule of the translations along the leaves P = const of R^{2n} = (Q, P)
    in one particular solution and n constants: x = x_(1) + (k, 0), whose
    first integral is k = Q - Q_(1)."""

    def psi(sols, k):
        out = np.array(sols[0], dtype=float)
        out[..., :n] += k
        return out

    def F(x, sols):
        return x[..., :n] - sols[0][..., :n]

    return SuperpositionRule(m=1, state_dim=2 * n, param_dim=n, psi=psi, F=F)


def _riccati_stage(c, x):
    """c0 + c1 x + c2 x^2 on the coefficient rows of ``lie_system``, each
    from 0.0: the per-field sum ((0.0 + c0) + c1 x) + c2 x^2 bit for bit,
    with x^2 as the field X2 computes it.  Its float form takes math.pow,
    float_power bit for bit, where x * x and numpy's x ** 2.0 are not."""
    out = c[1] * x
    out += c[0]
    out += c[2] * np.float_power(x, _TWO)
    return out


_riccati_stage.floats = lambda c0, c1, c2, x: ((c1 * x + c0) + c2 * math.pow(x, 2.0),)


def riccati_system(a0: Callable[[np.ndarray], np.ndarray],
                   a1: Callable[[np.ndarray], np.ndarray],
                   a2: Callable[[np.ndarray], np.ndarray]) -> ModelBundle:
    """dx/dt = a0(t) + a1(t) x + a2(t) x^2; each a_i maps an array of times
    to one value per time or to one constant value."""
    # 1, x and x^2, stepped by the declared stage, which calls no field;
    # x^2 is libm's float_power, not numpy's square (a last-bit gap)
    x0f = VectorField.constant([1.0], name="X0")
    x1f = VectorField(1, lambda x: x.copy(), name="X1")
    x2f = VectorField(1, lambda x: np.float_power(x, _TWO), name="X2")
    chart = FoliationChart.split(1, 1)  # single leaf: no transverse labels

    def coeffs(t, x):
        out = np.empty(np.shape(t) + (3,))  # one row per time
        for a, a_i in enumerate((a0, a1, a2)):
            out[..., a] = a_i(t)
        return out

    system = FoliatedSystem(_sl2_algebra(("X0", "X1", "X2")), (x0f, x1f, x2f),
                            Box([-0.9], [0.9]), coeffs, chart, name="riccati",
                            combine=_riccati_stage)
    return ModelBundle(system=system, rule=riccati_rule(), action=None,
                       default_state=np.array([0.0]))


# ---------------------------------------------------------------------------
# Momentum-conserving Hamiltonian flow on (Q, P).
# ---------------------------------------------------------------------------

def sum_cos_gradient(t, P) -> np.ndarray:
    """dH/dP = -t sin(t P_i) of H(t, P) = sum_i cos(t P_i), at momenta
    ``(..., n)`` and an array of times ``(...)``, one per point."""
    t = np.asarray(t)[..., None]  # times (...) against momenta (..., n)
    return -t * np.sin(t * P)


def hamiltonian_gradient(H: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    """dH/dP(t, P) of an H(t, P) that maps momenta ``(..., n)`` and an array
    of times ``(...)`` to one value per point ``(...)``: central differences
    from one call of H on the ``(2n, ..., n)`` block of perturbed momenta."""
    def gradient(t, P):
        def values(pts):
            v = np.asarray(H(t, pts), dtype=float)
            if v.shape != pts.shape[:-1]:
                raise DimensionMismatchError(
                    f"H returned shape {v.shape} for momenta of shape {pts.shape}; "
                    f"need one value per point")
            return v

        g = central_differences(values, np.asarray(P, dtype=float), ())
        return g.transpose((*range(1, g.ndim), 0))  # (n, ...) -> (..., n)

    return gradient


def _translation_model(name: str, n: int, dH, scale: float, q0,
                       labels: tuple[str, str], observables=None) -> ModelBundle:
    """Leaves P = const of R^{2n} = (Q, P), fields ``scale`` d/dQ^i with
    coefficients -dH/dP^i(t, P).

    The abelian action moves Q by -scale * lambda; ``labels`` are the field
    name prefix and the action name.  The default state is (q0, P) with P
    spread over [1, 1.5].
    """
    dim = 2 * n
    coeffs = lambda t, x: -dH(t, x[..., n:])

    # constant fields, so along a solution the system depends on time alone
    flds = tuple(VectorField.constant(scale * np.eye(dim)[i], name=f"{labels[0]}{i + 1}")
                 for i in range(n))
    box = Box([-2.0] * n + [0.5] * n, [2.0] * n + [2.0] * n)
    system = FoliatedSystem(la.builtin_algebra(f"abelian:{n}"), flds, box, coeffs,
                            FoliationChart.split(dim, n), name=name)

    def act(lam, x):
        lam = np.asarray(lam, dtype=float)
        x = np.asarray(x, dtype=float)
        lead = np.broadcast_shapes(lam.shape[:-1], x.shape[:-1])
        out = np.broadcast_to(x, lead + x.shape[-1:]).copy()
        out[..., :n] = out[..., :n] - scale * lam
        return out

    action = GroupAction(kind=ABELIAN, act=act, identity=np.zeros(n),
                         generators=tuple(np.eye(n)), name=labels[1])
    default_state = np.concatenate([q0, np.linspace(1.0, 1.5, n)])
    return ModelBundle(system=system, rule=translation_rule(n),
                       action=action, default_state=default_state,
                       observables=observables or {})


def hj_system(n: int, dH) -> ModelBundle:
    """Flow of dQ/dt = -dH(t, P), dP/dt = 0 on R^{2n} as a decomposed system,
    the gradient map ``dH`` taking momenta ``(..., n)`` to ``(..., n)``.

    For a generic H the time-slice fields -dH/dP(t, P) d/dQ span an
    infinite-dimensional function space, so no finite basis captures the
    system globally; restricted to any single leaf P = const they all fall
    into the n coordinate translations, which is exactly what the
    decomposition (and everything built on it) exploits.
    """
    return _translation_model("hamilton_jacobi", n, dH, 1.0, np.zeros(n),
                              ("dQ", "Q-translation"))


# ---------------------------------------------------------------------------
# Isospectral block model.
# ---------------------------------------------------------------------------

def lax_matrix(n: int, v) -> np.ndarray:
    """Block-diagonal matrix with 2x2 blocks [[2 v^{n+a}, v^a], [0, 0]], per state."""
    v = np.asarray(v, dtype=float)
    M = np.zeros(v.shape[:-1] + (2 * n, 2 * n))
    for a in range(n):
        M[..., 2 * a, 2 * a] = 2.0 * v[..., n + a]
        M[..., 2 * a, 2 * a + 1] = v[..., a]
    return M


@np.errstate(divide="ignore", invalid="ignore")
def lax_pair_rhs(dH, t, v) -> np.ndarray:
    """Component derivatives read off the commutator [V, M], where
    M = -sum_a f_a(t, I) e_a, f_a = dH(t, I)_a / I_a and I = (v^{n+1}..v^{2n}).

    ``v`` is one state ``(2n,)`` or a block ``(..., 2n)``; ``t`` is an
    array of times broadcasting against ``v.shape[:-1]``.  Where an
    I_a is zero the Lax form does not exist, and the derivatives are NaN or
    infinite, without a warning.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[-1] // 2
    V = lax_matrix(n, v)
    M = np.zeros(V.shape)
    f = dH(t, v[..., n:]) / v[..., n:]
    for a in range(n):
        M[..., 2 * a, 2 * a + 1] = -f[..., a]
    C = V @ M - M @ V
    out = np.empty(v.shape)
    for a in range(n):
        out[..., a] = C[..., 2 * a, 2 * a + 1]
        out[..., n + a] = 0.5 * C[..., 2 * a, 2 * a]
    return out


def lax_spectrum(n: int, v) -> np.ndarray:
    """Sorted eigenvalues of the block matrix, {2 v^{n+a}, 0} per block, per state."""
    eig = np.linalg.eigvals(lax_matrix(n, v))
    return np.sort(eig.real, axis=-1)


def lax_system(n: int, dH) -> ModelBundle:
    """The block model of the gradient ``dH(t, I)`` of h: fields 2 d/dv^a
    with coefficients -dh/dI_a, from dv^a/dt = -2 f_a I_a.  Its observables
    are the spectrum and the Lax-pair form ``(t, v) -> [V, M]``."""
    return _translation_model("lax", n, dH, 2.0, np.linspace(0.5, -0.3, n),
                              ("2dv", "block-translation"),
                              observables={"spectrum": lambda x: lax_spectrum(n, x),
                                           "lax_pair": lambda t, v: lax_pair_rhs(dH, t, v)})


# ---------------------------------------------------------------------------
# Generalized Ermakov system.
# ---------------------------------------------------------------------------

def lewis_invariant(c1: float, c2: float, state):
    # .T splits off the last axis and puts the result back: (..., 4) -> (...)
    x, y, vx, vy = np.asarray(state, dtype=float).T
    w = x * vy - y * vx
    return (0.5 * w * w + c1 * x / y + c2 * y / x).T


def ermakov_fields(c1: float, c2: float) -> tuple[VectorField, VectorField, VectorField]:
    """X1 = (vx, vy, c2/(x^2 y), c1/(x y^2)), X2 = (x, y, -vx, -vy)/2 and
    X3 = (0, 0, -x, -y); with c1 = c2 = 0 all three are linear and built by
    ``VectorField.linear``, so the uncoupled flow is linear."""
    half = np.array([0.5, 0.5, -0.5, -0.5])
    if c1 == 0.0 and c2 == 0.0:
        return (VectorField.linear(np.eye(4, k=2), name="X1"),
                VectorField.linear(np.diag(half), name="X2"),
                VectorField.linear(-np.eye(4, k=-2), name="X3"))

    # fields act on the last axis: s.T unpacks a (B, 4) batch into (B,) columns
    def f1(s):
        x, y, vx, vy = s.T
        return np.array([vx, vy, c2 / (x * x * y), c1 / (x * y * y)]).T

    def f2(s):
        return s * half  # (x, y, -vx, -vy) / 2

    def f3(s):
        out = np.zeros(s.shape)
        out[..., 2:] = -s[..., :2]
        return out

    return (VectorField(4, f1, name="X1"),
            VectorField(4, f2, name="X2"),
            VectorField(4, f3, name="X3"))


def _ermakov_combine(c1: float, c2: float):
    """g1 X1 + g2 X2 + g3 X3 of the coupled fields, on the coefficient rows
    of ``lie_system`` (``c[a]`` one number, or a column against states
    ``(B, 4)``), in the order of operations of ``assemble``'s per-field sum
    (from 0.0), so bit for bit that sum.  ``terms`` on Python floats steps
    one state; numpy columns serve batches, ``func`` and where Python raises."""
    def terms(g1, g2, g3, x, y, vx, vy):
        return (0.0 + g1 * vx + g2 * (x * 0.5) + g3 * 0.0,
                0.0 + g1 * vy + g2 * (y * 0.5) + g3 * 0.0,
                0.0 + g1 * (c2 / (x * x * y)) + g2 * (vx * -0.5) + g3 * -x,
                0.0 + g1 * (c1 / (x * y * y)) + g2 * (vy * -0.5) + g3 * -y)

    def combine(c, s):
        # the state's columns (..., 1), against the rows of c
        return np.concatenate(terms(*c, *np.moveaxis(s, -1, 0)[..., None]), axis=-1)

    combine.floats = terms
    return combine


def ermakov_system(omega2: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   c1: float, c2: float) -> ModelBundle:
    """The Ermakov model with coupling constants c1, c2; omega2(t, I) takes
    invariant values ``(...)`` and an array of times broadcasting against
    them, and returns one frequency per value, or one I-independent
    frequency."""
    flds = ermakov_fields(c1, c2)
    # box keeps x, y away from the axes so finite differences of the
    # invariant stay well below the verification tolerances
    box = Box([0.8, 0.8, -0.6, -0.6], [1.6, 1.6, 0.6, 0.6])

    def leaf_point(labels):
        k = float(np.atleast_1d(labels)[0])
        w2 = 2.0 * (k - c1 - c2)
        if w2 < 0.0:
            raise ValueError(f"no representative point for invariant value {k}")
        return np.array([1.0, 1.0, 0.0, np.sqrt(w2)])

    chart = FoliationChart(4, 3, lambda s: lewis_invariant(c1, c2, s)[..., None],
                           leaf_point=leaf_point)

    def coeffs(t, s):
        out = np.zeros(s.shape[:-1] + (3,))
        out[..., 0] = 1.0
        out[..., 2] = omega2(t, lewis_invariant(c1, c2, s))
        return out

    def domain(s):
        return (np.abs(s[..., 0]) >= ERMAKOV_GUARD) & (np.abs(s[..., 1]) >= ERMAKOV_GUARD)

    # the uncoupled fields are linear: assemble steps them by step matrices
    combine = None if flds[0].matrix is not None else _ermakov_combine(c1, c2)
    system = FoliatedSystem(_sl2_algebra(("X1", "X2", "X3")), flds, box, coeffs,
                            chart, name="ermakov", domain=domain, combine=combine)
    observables = {"lewis": lambda s: lewis_invariant(c1, c2, s)}
    # only the uncoupled member admits the linear group action
    action = ermakov_matrix_action() if c1 == 0.0 and c2 == 0.0 else None
    return ModelBundle(system=system, rule=None,
                       action=action, default_state=np.array([1.0, 1.0, 0.0, 1.0]),
                       observables=observables)


def ermakov_matrix_action() -> GroupAction:
    """Linear 2x2 action on the (x, vx) and (y, vy) pairs simultaneously.

    Only the uncoupled c1 = c2 = 0 member is linear, so the action (and the
    group reconstruction built on it) is restricted to that case.
    Experimental: the leafwise group structure of the coupled system is not
    modeled here.
    """
    A1 = np.array([[0.0, -1.0], [0.0, 0.0]])
    A2 = np.array([[-0.5, 0.0], [0.0, 0.5]])
    A3 = np.array([[0.0, 0.0], [1.0, 0.0]])

    def act(g, s):
        g = np.asarray(g, dtype=float)
        s = np.asarray(s, dtype=float)
        # contiguous (x, vx), (y, vy) columns: one BLAS product per item, as
        # g @ pair; the products written out elementwise would round otherwise
        pairs = np.ascontiguousarray(
            np.swapaxes(s.reshape(s.shape[:-1] + (2, 2)), -1, -2)[..., None])
        moved = g[..., None, :, :] @ pairs
        return np.swapaxes(moved[..., 0], -1, -2).reshape(moved.shape[:-3] + (4,))

    return GroupAction(kind="matrix", act=act, identity=np.eye(2),
                       generators=(A1, A2, A3), name="pairwise-linear")
