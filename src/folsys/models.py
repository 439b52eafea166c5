"""Built-in model families: Riccati, momentum-conserving Hamiltonian flows,
isospectral block systems, and a generalized Ermakov system.

Conventions worth pinning down once:

* Hamiltonian model on (Q, P): dQ^i/dt = -dH/dP^i(t, P), dP/dt = 0.  The
  translation fields d/dQ^i carry coefficients -dH/dP^i.

* Block ("Lax") model on v = (v^1..v^n, v^{n+1}..v^{2n}): the dynamics are
  generated from the matrix commutator dv/dt = [v, m] with
  m = -sum_a f_a(t, v) e_a, which in components gives
  dv^a/dt = -2 f_a(t, v) v^{n+a}.  The commutator is the structural
  definition and fixes every sign downstream; the translation fields
  2 d/dv^a then carry coefficients -f_a(t, v) v^{n+a}.

* Ermakov model on (x, y, vx, vy): second-order system
  x'' = -w2(t, I) x + c2/(x^2 y), y'' = -w2(t, I) y + c1/(x y^2) with the
  conserved quantity I = (x vy - y vx)^2 / 2 + c1 x/y + c2 y/x (constant
  coupling functions only, so the invariant stays closed form).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import algebra as la
from .automorphic import (ABELIAN, GroupAction, GroupCurve, reduce_system,
                          solve_abelian, reconstruct)
from .errors import DimensionMismatchError, SingularCombinationError
from .fields import RealizedAlgebra, VectorField
from .foliated import FoliatedSystem, FoliationChart, assemble
from .integrate import DEFAULT_STEP, integrate
from .superposition import SuperpositionRule, derive_abelian_rule
from .util import Box, central_differences, grad_fd, seeded_rng

ERMAKOV_GUARD = 1e-6


@dataclass(frozen=True)
class ModelBundle:
    """Everything a scenario needs: system, rule, action, defaults, observables."""

    name: str
    system: FoliatedSystem
    rule: SuperpositionRule | None
    action: GroupAction | None
    default_state: np.ndarray
    horizon: tuple[float, float]
    observables: dict = field(default_factory=dict)
    spec: object = None
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Riccati: dx/dt = a0(t) + a1(t) x + a2(t) x^2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiccatiSpec:
    a0: Callable[[float], float]
    a1: Callable[[float], float]
    a2: Callable[[float], float]

    @classmethod
    def constant(cls, a0: float, a1: float, a2: float) -> "RiccatiSpec":
        return cls(lambda t: a0, lambda t: a1, lambda t: a2)


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


def riccati_rule() -> SuperpositionRule:
    """Cross-ratio rule in three particular solutions and one constant."""

    def psi(sols, k):
        u1, u2, u3 = (s[..., 0] for s in sols)
        kk = float(k[0])
        scale = np.maximum(1.0, np.max(np.abs([u1, u2, u3]), axis=0))
        if np.any(np.min(np.abs([u1 - u2, u1 - u3, u2 - u3]), axis=0) < 1e-12 * scale):
            raise SingularCombinationError("coincident particular solutions")
        den = (u3 - u2) + kk * (u3 - u1)
        if np.any(np.abs(den) < 1e-12 * scale * max(1.0, abs(kk))):
            raise SingularCombinationError("vanishing denominator")
        num = u1 * (u3 - u2) + kk * u2 * (u3 - u1)
        return (num / den)[..., None]

    return SuperpositionRule(m=3, state_dim=1, param_dim=1, psi=psi,
                             leaf_preserving=False, vg_dim=3, name="riccati")


def riccati_system(spec: RiccatiSpec) -> ModelBundle:
    zero_jac = lambda x: np.zeros((1, 1))
    # fields act on the last axis, so one call serves a batch of states;
    # float_power rounds through libm pow like the scalar x ** 2, where
    # array ** 2 takes numpy's square shortcut and can differ in the last bit
    x0f = VectorField(1, lambda x: np.ones(x.shape), jac=zero_jac, name="X0")
    x1f = VectorField(1, lambda x: x.copy(),
                      jac=lambda x: np.array([[1.0]]), name="X1")
    x2f = VectorField(1, lambda x: np.float_power(x, 2),
                      jac=lambda x: np.array([[2.0 * x[0]]]), name="X2")
    realized = RealizedAlgebra(_sl2_algebra(("X0", "X1", "X2")), (x0f, x1f, x2f),
                               Box([-0.9], [0.9]))
    chart = FoliationChart.split(1, 1)  # single leaf: no transverse labels
    coeffs = lambda t, x: np.array([spec.a0(t), spec.a1(t), spec.a2(t)], dtype=float)
    system = FoliatedSystem(realized, coeffs, chart, name="riccati")
    return ModelBundle(
        name="riccati", system=system, rule=riccati_rule(), action=None,
        default_state=np.array([0.0]), horizon=(0.0, 2.0), spec=spec,
        extras={"rule_min_separation": 0.15},
    )


# ---------------------------------------------------------------------------
# Momentum-conserving Hamiltonian flow on (Q, P).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonJacobiSpec:
    """H(t, P) maps momenta ``(..., n)`` to one value per point ``(...)``;
    ``dH`` maps them to ``(..., n)``."""

    n: int
    H: Callable[[float, np.ndarray], np.ndarray]
    dH: Callable[[float, np.ndarray], np.ndarray] | None = None

    def gradient(self, t: float, P: np.ndarray) -> np.ndarray:
        """dH/dP at momenta ``(..., n)``: the analytic ``dH``, else central
        differences from one call of H on the ``(2n, ..., n)`` block of
        perturbed momenta, where H must return one value per point."""
        P = np.asarray(P, dtype=float)
        if self.dH is not None:
            return np.asarray(self.dH(t, P), dtype=float)

        def values(pts):
            v = np.asarray(self.H(t, pts), dtype=float)
            if v.shape != pts.shape[:-1]:
                raise DimensionMismatchError(
                    f"H returned shape {v.shape} for momenta of shape {pts.shape}; "
                    f"need one value per point")
            return v

        g = central_differences(values, P, ())
        return g.transpose((*range(1, g.ndim), 0))  # (n, ...) -> (..., n)

    def gradient_consistency(self, seed: int = 42, trials: int = 10) -> float:
        """Relative deviation of the declared gradient from central differences."""
        if self.dH is None:
            return 0.0
        rng = seeded_rng(seed)
        worst = 0.0
        for _ in range(trials):
            t = float(rng.uniform(0.0, 2.0))
            P = rng.uniform(0.5, 2.0, size=self.n)
            fd = grad_fd(lambda p: self.H(t, p), P)
            scale = max(1.0, float(np.max(np.abs(fd))))
            worst = max(worst, float(np.max(np.abs(self.dH(t, P) - fd))) / scale)
        return worst


def sum_cos_spec(n: int) -> HamiltonJacobiSpec:
    """H(t, P) = sum_i cos(t P_i) with analytic gradient -t sin(t P_i)."""
    return HamiltonJacobiSpec(
        n=n,
        H=lambda t, P: np.sum(np.cos(t * P), axis=-1),
        dH=lambda t, P: -t * np.sin(t * P),
    )


def _translation_model(name: str, spec, scale: float, coeffs, q0,
                       labels: tuple[str, str], observables=None) -> ModelBundle:
    """Leaves P = const of R^{2n} = (Q, P), fields ``scale`` d/dQ^i.

    The abelian action moves Q by -scale * lambda; ``labels`` are the field
    name prefix and the action name.  The default state is (q0, P) with P
    spread over [1, 1.5].
    """
    n = spec.n
    dim = 2 * n

    def make_field(i):
        def func(x):
            out = np.zeros(x.shape)
            out[..., i] = scale
            return out
        return VectorField(dim, func, jac=lambda x: np.zeros((dim, dim)),
                           name=f"{labels[0]}{i + 1}")

    flds = tuple(make_field(i) for i in range(n))
    box = Box([-2.0] * n + [0.5] * n, [2.0] * n + [2.0] * n)
    realized = RealizedAlgebra(la.builtin_algebra(f"abelian:{n}"), flds, box)
    system = FoliatedSystem(realized, coeffs, FoliationChart.split(dim, n),
                            name=name)

    def act(lam, x):
        out = np.asarray(x, dtype=float).copy()
        out[:n] = out[:n] - scale * np.asarray(lam, dtype=float)
        return out

    action = GroupAction(kind=ABELIAN, act=act, identity=np.zeros(n),
                         generators=tuple(np.eye(n)), name=labels[1])
    default_state = np.concatenate([q0, np.linspace(1.0, 1.5, n)])
    return ModelBundle(name=name, system=system, rule=derive_abelian_rule(system),
                       action=action, default_state=default_state,
                       horizon=(0.0, 2.0), observables=observables or {}, spec=spec)


def hj_system(spec: HamiltonJacobiSpec) -> ModelBundle:
    """Flow of dQ/dt = -dH/dP(t, P), dP/dt = 0 as a decomposed system.

    For a generic H the time-slice fields -dH/dP(t, P) d/dQ span an
    infinite-dimensional function space, so no finite basis captures the
    system globally; restricted to any single leaf P = const they all fall
    into the n coordinate translations, which is exactly what the
    decomposition (and everything built on it) exploits.
    """
    n = spec.n
    res = spec.gradient_consistency()
    if res > 1e-5:
        raise ValueError(f"declared gradient disagrees with H: residual {res:.3e}")
    coeffs = lambda t, x: -spec.gradient(t, x[..., n:])
    return _translation_model("hamilton_jacobi", spec, 1.0, coeffs, np.zeros(n),
                              ("dQ", "Q-translation"))


# ---------------------------------------------------------------------------
# Isospectral block model.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaxSpec:
    """Coefficients f(t, I) = (f_1, ..., f_n)(t, I), one array of shape
    ``(n,)``, depending only on time and the leaf coordinates I."""

    n: int
    f: Callable[[float, np.ndarray], np.ndarray]


def lax_from_hamiltonian(n: int,
                         dh: Callable[[float, np.ndarray], np.ndarray]) -> LaxSpec:
    """Coefficients f_a = (dh/dI_a) / I_a, defined where the leaf coordinates
    are nonzero; the reduced group system then has coefficients dh/dI_a."""
    return LaxSpec(n=n, f=lambda t, I: dh(t, I) / I)


def lax_matrix(n: int, v) -> np.ndarray:
    """Block-diagonal matrix with 2x2 blocks [[2 v^{n+a}, v^a], [0, 0]], per state."""
    v = np.asarray(v, dtype=float)
    M = np.zeros(v.shape[:-1] + (2 * n, 2 * n))
    for a in range(n):
        M[..., 2 * a, 2 * a] = 2.0 * v[..., n + a]
        M[..., 2 * a, 2 * a + 1] = v[..., a]
    return M


def lax_m_matrix(spec: LaxSpec, t: float, v) -> np.ndarray:
    """m(t, v) = -sum_a f_a(t, v) e_a in the same block layout."""
    v = np.asarray(v, dtype=float)
    n = spec.n
    M = np.zeros((2 * n, 2 * n))
    f = spec.f(t, v[n:])
    for a in range(n):
        M[2 * a, 2 * a + 1] = -f[a]
    return M


def lax_matrix_rhs(spec: LaxSpec, t: float, v) -> np.ndarray:
    """Component derivatives read off the commutator [v, m]."""
    v = np.asarray(v, dtype=float)
    n = spec.n
    V = lax_matrix(n, v)
    M = lax_m_matrix(spec, t, v)
    C = V @ M - M @ V
    out = np.empty(2 * n)
    for a in range(n):
        out[a] = C[2 * a, 2 * a + 1]
        out[n + a] = 0.5 * C[2 * a, 2 * a]
    return out


def lax_spectrum(n: int, v) -> np.ndarray:
    """Sorted eigenvalues of the block matrix, {2 v^{n+a}, 0} per block, per state."""
    eig = np.linalg.eigvals(lax_matrix(n, v))
    return np.sort(eig.real, axis=-1)


def lax_system(spec: LaxSpec) -> ModelBundle:
    n = spec.n
    # coefficients relative to 2 d/dv^a, from dv^a/dt = -2 f_a v^{n+a}
    coeffs = lambda t, x: -spec.f(t, x[..., n:]) * x[..., n:]
    return _translation_model("lax", spec, 2.0, coeffs, np.linspace(0.5, -0.3, n),
                              ("2dv", "block-translation"),
                              observables={"spectrum": lambda x: lax_spectrum(n, x)})


# ---------------------------------------------------------------------------
# Generalized Ermakov system.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErmakovSpec:
    """omega2(t, I) takes invariant values ``(...)`` and returns one frequency
    per value, or one I-independent frequency."""

    omega2: Callable[[float, np.ndarray], np.ndarray]
    c1: float = 1.0
    c2: float = 1.0


def lewis_invariant(spec: ErmakovSpec, state):
    # .T splits off the last axis and puts the result back: (..., 4) -> (...)
    x, y, vx, vy = np.asarray(state, dtype=float).T
    w = x * vy - y * vx
    return (0.5 * w * w + spec.c1 * x / y + spec.c2 * y / x).T


def ermakov_fields(spec: ErmakovSpec) -> tuple[VectorField, VectorField, VectorField]:
    c1, c2 = spec.c1, spec.c2
    half = np.array([0.5, 0.5, -0.5, -0.5])

    # fields act on the last axis: s.T unpacks a (B, 4) batch into (B,) columns
    def f1(s):
        x, y, vx, vy = s.T
        return np.array([vx, vy, c2 / (x * x * y), c1 / (x * y * y)]).T

    def j1(s):
        x, y, vx, vy = s
        return np.array([
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-2.0 * c2 / (x ** 3 * y), -c2 / (x * y) ** 2, 0.0, 0.0],
            [-c1 / (x * y) ** 2, -2.0 * c1 / (x * y ** 3), 0.0, 0.0],
        ])

    def f2(s):
        return s * half  # (x, y, -vx, -vy) / 2

    def f3(s):
        out = np.zeros(s.shape)
        out[..., 2:] = -s[..., :2]
        return out

    j2 = lambda s: 0.5 * np.diag([1.0, 1.0, -1.0, -1.0])

    def j3(s):
        J = np.zeros((4, 4))
        J[2, 0] = -1.0
        J[3, 1] = -1.0
        return J

    return (VectorField(4, f1, jac=j1, name="X1"),
            VectorField(4, f2, jac=j2, name="X2"),
            VectorField(4, f3, jac=j3, name="X3"))


def ermakov_system(spec: ErmakovSpec) -> ModelBundle:
    flds = ermakov_fields(spec)
    # box keeps x, y away from the axes so finite differences of the
    # invariant stay well below the verification tolerances
    box = Box([0.8, 0.8, -0.6, -0.6], [1.6, 1.6, 0.6, 0.6])
    realized = RealizedAlgebra(_sl2_algebra(("X1", "X2", "X3")), flds, box)

    def leaf_point(labels):
        k = float(np.atleast_1d(labels)[0])
        w2 = 2.0 * (k - spec.c1 - spec.c2)
        if w2 < 0.0:
            raise ValueError(f"no representative point for invariant value {k}")
        return np.array([1.0, 1.0, 0.0, np.sqrt(w2)])

    chart = FoliationChart.from_invariants(
        4, 3, lambda s: lewis_invariant(spec, s)[..., None], 1, leaf_point=leaf_point)

    def coeffs(t, s):
        out = np.zeros(s.shape[:-1] + (3,))
        out[..., 0] = 1.0
        out[..., 2] = spec.omega2(t, lewis_invariant(spec, s))
        return out

    def domain(s):
        return abs(s[0]) >= ERMAKOV_GUARD and abs(s[1]) >= ERMAKOV_GUARD

    system = FoliatedSystem(realized, coeffs, chart, name="ermakov",
                            domain=domain)
    observables = {"lewis": lambda s: lewis_invariant(spec, s)}
    return ModelBundle(name="ermakov", system=system, rule=None,
                       action=None, default_state=np.array([1.0, 1.0, 0.0, 1.0]),
                       horizon=(0.0, 5.0), observables=observables, spec=spec)


def ermakov_matrix_action(spec: ErmakovSpec) -> GroupAction:
    """Linear 2x2 action on the (x, vx) and (y, vy) pairs simultaneously.

    Only the uncoupled c1 = c2 = 0 member is linear, so the action (and the
    group reconstruction built on it) is restricted to that case.
    Experimental: the leafwise group structure of the coupled system is not
    modeled here.
    """
    if spec.c1 != 0.0 or spec.c2 != 0.0:
        raise ValueError("matrix action requires c1 = c2 = 0")
    A1 = np.array([[0.0, -1.0], [0.0, 0.0]])
    A2 = np.array([[-0.5, 0.0], [0.0, 0.5]])
    A3 = np.array([[0.0, 0.0], [1.0, 0.0]])

    def act(g, s):
        g = np.asarray(g, dtype=float)
        x, y, vx, vy = np.asarray(s, dtype=float)
        px = g @ np.array([x, vx])
        py = g @ np.array([y, vy])
        return np.array([px[0], py[0], px[1], py[1]])

    return GroupAction(kind="matrix", act=act, identity=np.eye(2),
                       generators=(A1, A2, A3), name="pairwise-linear")


# ---------------------------------------------------------------------------
# Shared reduction of the Hamiltonian and block models.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    shared_coeff_residual: float
    hj_error: float
    lax_error: float
    doubled_gradient_residual: float


def hj_lax_equivalence(spec: HamiltonJacobiSpec, x0_hj, v0_lax,
                       horizon: tuple[float, float], h: float = DEFAULT_STEP,
                       seed: int = 42, samples: int = 50) -> EquivalenceReport:
    """One quadrature, two reconstructions.

    The block model is built with f_a = (dH/dI_a) / (2 I_a), which makes its
    component equations coincide with dQ^a/dt = -dH/dP^a under the identity
    identification v^a = Q^a, v^{n+a} = P^a.  Both models then reduce to the
    translation system lambda' = dH/dP(t, k); the actions differ by a factor
    2 in the group coordinate, which is normalized away before comparing
    coefficients and when reusing the single quadrature for both
    reconstructions.

    Also reported: the component-equation mismatch of the alternative
    generator matrix m = sum_a 2 (dH/dP^a) e_a, which is measured rather than
    asserted to vanish.
    """
    n = spec.n
    x0_hj = np.asarray(x0_hj, dtype=float)
    v0_lax = np.asarray(v0_lax, dtype=float)
    if np.max(np.abs(x0_hj[n:] - v0_lax[n:])) > 1e-12:
        raise ValueError("leaf mismatch: initial states must share leaf labels")
    t0, t1 = horizon

    hj = hj_system(spec)
    lax = lax_system(LaxSpec(n=n, f=lambda t, I: spec.gradient(t, I) / (2.0 * I)))

    hj_red = reduce_system(hj.system, hj.action, seed=seed)
    lax_red = reduce_system(lax.system, lax.action, seed=seed)

    rng = seeded_rng(seed)
    shared = 0.0
    for _ in range(samples):
        t = float(rng.uniform(t0, t1))
        k = rng.uniform(0.5, 2.0, size=n)
        # the block action moves v^a by -2 lambda_a per unit lambda
        gap = 2.0 * lax_red.coeffs(t, k) - hj_red.coeffs(t, k)
        shared = max(shared, float(np.max(np.abs(gap))))

    mu = solve_abelian(hj_red, x0_hj[n:], t0, t1, h)
    rec_hj = reconstruct(hj.action, mu, x0_hj)
    direct_hj = integrate(assemble(hj.system), x0_hj, t0, t1, h)
    hj_error = float(np.max(np.abs(rec_hj.states - direct_hj.states)))

    half_curve = GroupCurve(ABELIAN, mu.times, 0.5 * mu.elements, mu.step)
    rec_lax = reconstruct(lax.action, half_curve, v0_lax)
    direct_lax = integrate(assemble(lax.system), v0_lax, t0, t1, h)
    lax_error = float(np.max(np.abs(rec_lax.states - direct_lax.states)))

    doubled = 0.0
    for _ in range(samples):
        t = float(rng.uniform(t0, t1))
        k = rng.uniform(0.5, 2.0, size=n)
        g = spec.gradient(t, k)
        # m = sum 2 (dH/dP^a) e_a means f_a = -2 dH/dP^a, hence
        # dv^a/dt = 4 (dH/dP^a) v^{n+a}; compare with -dH/dP^a
        doubled = max(doubled, float(np.max(np.abs(4.0 * g * k + g))))

    return EquivalenceReport(shared_coeff_residual=shared, hj_error=hj_error,
                             lax_error=lax_error, doubled_gradient_residual=doubled)


# ---------------------------------------------------------------------------
# Registry used by the command line.
# ---------------------------------------------------------------------------

MODEL_NAMES = ("riccati", "hamilton_jacobi", "lax", "ermakov")


def default_model(name: str) -> ModelBundle:
    if name == "riccati":
        return riccati_system(RiccatiSpec.constant(1.0, 0.0, -1.0))
    if name == "hamilton_jacobi":
        return hj_system(sum_cos_spec(2))
    if name == "lax":
        spec = sum_cos_spec(2)
        return lax_system(lax_from_hamiltonian(2, spec.dH))
    if name == "ermakov":
        return ermakov_system(ErmakovSpec(
            omega2=lambda t, I: 1.0 + 0.1 * np.sin(t), c1=1.0, c2=1.0))
    raise KeyError(f"unknown model name: {name!r}")
