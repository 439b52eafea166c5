import numpy as np
import pytest
import scipy.linalg

from folsys.algebra import builtin_realization
from folsys.automorphic import (ABELIAN, MATRIX, AutomorphicSystem,
                                GroupAction, GroupCurve,
                                action_consistency_residual,
                                fundamental_field_residual,
                                group_curve_consistency, reconstruct,
                                reconstruction_error, reduce_system,
                                solve_abelian, solve_matrix)
from folsys.errors import (BlowUpError, DimensionMismatchError, DomainExitError,
                           IncompatibleActionError)
from folsys.foliated import assemble
from folsys.integrate import integrate
from folsys.models import (ErmakovSpec, HamiltonJacobiSpec, default_model,
                           ermakov_matrix_action, ermakov_system, hj_system,
                           lax_from_hamiltonian, lax_system, sum_cos_spec)
from folsys.util import seeded_rng


def test_action_axioms_hold_for_models():
    for name in ("hamilton_jacobi", "lax"):
        bundle = default_model(name)
        pts = bundle.system.realized.box.sample_many(seeded_rng(1), 10)
        assert action_consistency_residual(bundle.action, pts) <= 1e-10
        x = pts[0]
        assert np.array_equal(bundle.action.act(bundle.action.identity, x), x)


def test_fundamental_field_gate_matches_models():
    for name in ("hamilton_jacobi", "lax"):
        bundle = default_model(name)
        pts = bundle.system.realized.box.sample_many(seeded_rng(2), 20)
        res = fundamental_field_residual(bundle.action,
                                         bundle.system.realized.fields, pts)
        assert res <= 1e-8


def test_reduce_rejects_sign_flipped_action():
    bundle = default_model("hamilton_jacobi")
    n = 2

    def flipped(lam, x):
        out = np.asarray(x, dtype=float).copy()
        out[:n] = out[:n] + np.asarray(lam, dtype=float)
        return out

    bad = GroupAction(kind=ABELIAN, act=flipped, identity=np.zeros(n),
                      generators=tuple(np.eye(n)))
    with pytest.raises(IncompatibleActionError):
        reduce_system(bundle.system, bad)


def test_reduce_hj_coefficients_are_hamiltonian_gradient():
    hj = hj_system(sum_cos_spec(2))
    asys = reduce_system(hj.system, hj.action)
    assert asys.kind == ABELIAN
    assert asys.leaf_space_dim == 2
    rng = seeded_rng(3)
    for _ in range(20):
        t = float(rng.uniform(0, 2))
        k = rng.uniform(0.5, 2.0, size=2)
        expected = -t * np.sin(t * k)  # dH/dP for H = sum cos(t P)
        got = asys.coeffs(t, k)
        assert np.allclose(got, expected, atol=1e-12)


def test_reduce_lax_coefficients_are_leaf_gradient():
    spec = sum_cos_spec(2)
    lax = lax_system(lax_from_hamiltonian(2, spec.dH))
    asys = reduce_system(lax.system, lax.action)
    rng = seeded_rng(3)
    for _ in range(20):
        t = float(rng.uniform(0, 2))
        k = rng.uniform(0.5, 2.0, size=2)
        got = asys.coeffs(t, k)
        assert np.allclose(got, -t * np.sin(t * k), atol=1e-12)


def test_shared_reduction_coefficients_pointwise_equal():
    # the Hamiltonian and block models with matched data reduce to the same
    # translation coefficients under the leaf identification
    spec = sum_cos_spec(2)
    hj = hj_system(spec)
    lax = lax_system(lax_from_hamiltonian(2, spec.dH))
    hj_red = reduce_system(hj.system, hj.action)
    lax_red = reduce_system(lax.system, lax.action)
    rng = seeded_rng(13)
    for _ in range(30):
        t = float(rng.uniform(0, 2))
        k = rng.uniform(0.5, 2.0, size=2)
        assert np.max(np.abs(hj_red.coeffs(t, k) - lax_red.coeffs(t, k))) <= 1e-12


def test_solve_abelian_quadrature_cos_hamiltonian():
    hj = hj_system(sum_cos_spec(1))
    asys = reduce_system(hj.system, hj.action)
    curve = solve_abelian(asys, np.array([1.0]), 0.0, np.pi, 1e-3)
    # closed form: integral of -t sin t over [0, pi] is -pi
    assert curve.elements[-1, 0] == pytest.approx(-np.pi, abs=1e-10)
    rec = reconstruct(hj.action, curve, np.array([0.0, 1.0]))
    assert rec.final_state[0] == pytest.approx(np.pi, abs=1e-8)


def test_solve_abelian_zero_coefficients_identity():
    asys = AutomorphicSystem.from_reduction(ABELIAN, tuple(np.eye(2)),
                                            lambda t, k: np.zeros(2), 0)
    curve = solve_abelian(asys, np.zeros(0), 0.0, 1.0, 1e-2)
    assert np.all(curve.elements == 0.0)


def test_reduced_coefficient_map_of_wrong_shape_raises():
    for kind, gens, solve in ((ABELIAN, tuple(np.eye(2)), solve_abelian),
                              (MATRIX, (np.eye(2), np.eye(2)), solve_matrix)):
        asys = AutomorphicSystem.from_reduction(kind, gens, lambda t, k: np.ones(1), 0)
        with pytest.raises(DimensionMismatchError):
            solve(asys, np.zeros(0), 0.0, 1.0, 1e-2)


def test_solve_abelian_constant_gradient():
    # H = P^2/2 at P = 3: lambda(1) = 3, reconstruction Q(1) = Q(0) - 3
    spec = HamiltonJacobiSpec(1, H=lambda t, P: float(P[0] ** 2) / 2.0,
                              dH=lambda t, P: P.copy())
    hj = hj_system(spec)
    asys = reduce_system(hj.system, hj.action)
    curve = solve_abelian(asys, np.array([3.0]), 0.0, 1.0, 1e-3)
    assert curve.elements[-1, 0] == pytest.approx(3.0, abs=1e-12)
    rec = reconstruct(hj.action, curve, np.array([0.0, 3.0]))
    assert rec.final_state[0] == pytest.approx(-3.0, abs=1e-10)
    direct = integrate(assemble(hj.system), np.array([0.0, 3.0]), 0.0, 1.0, 1e-3)
    assert np.max(np.abs(rec.states - direct.states)) <= 1e-10


def test_solve_matrix_affine_exponentials():
    real = builtin_realization("glp:1")
    e1, h1 = real.matrices
    sys_e = AutomorphicSystem.from_reduction(MATRIX, (e1,), lambda t, k: np.ones(1),
                                             0, algebra=real.algebra)
    curve = solve_matrix(sys_e, np.zeros(0), 0.0, 1.0, 1e-3)
    # nilpotent generator: RK4 step polynomial equals the exponential exactly
    assert np.array_equal(curve.elements[-1], np.array([[1.0, -1.0], [0.0, 1.0]]))

    sys_h = AutomorphicSystem.from_reduction(MATRIX, (h1,), lambda t, k: np.ones(1), 0)
    curve_h = solve_matrix(sys_h, np.zeros(0), 0.0, 1.0, 1e-3)
    expected = scipy.linalg.expm(-h1)
    assert np.max(np.abs(curve_h.elements[-1] - expected)) <= 1e-10
    assert np.max(np.abs(curve_h.elements[-1] - np.diag([np.exp(-2.0), 1.0]))) <= 1e-10


def test_solve_matrix_zero_coefficients_identity():
    real = builtin_realization("glp:1")
    asys = AutomorphicSystem.from_reduction(MATRIX, real.matrices,
                                            lambda t, k: np.zeros(2), 0)
    curve = solve_matrix(asys, np.zeros(0), 0.0, 1.0, 1e-2)
    assert np.all(curve.elements == np.eye(2))


def test_solve_matrix_errors_carry_partial():
    # g' = -c g: c < 0 overflows the entries, c > 0 collapses the determinant
    for coeff, error in ((-1e3, BlowUpError), (100.0, DomainExitError)):
        asys = AutomorphicSystem.from_reduction(
            MATRIX, (np.eye(2),), lambda t, k, _c=coeff: np.array([_c]), 0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error) as exc:
                solve_matrix(asys, np.zeros(0), 0.0, 1.0, 1e-3)
        partial = exc.value.partial
        assert partial is not None
        assert partial.states.shape[1:] == (4,)
        assert np.all(np.isfinite(partial.states))


def test_reconstruct_identity_curve_is_constant():
    bundle = default_model("hamilton_jacobi")
    times = np.linspace(0.0, 1.0, 11)
    curve = GroupCurve(ABELIAN, times, np.zeros((11, 2)), 0.1)
    x0 = np.array([0.3, -0.4, 1.0, 1.5])
    rec = reconstruct(bundle.action, curve, x0)
    assert np.all(rec.states == x0)


def test_reconstruct_lax_hand_value():
    # n = 1, v(0) = (5, 3), f chosen so the reduced coefficient is dH/dI = I
    spec = lax_from_hamiltonian(1, lambda t, I: I.copy())  # H = I^2/2
    lax = lax_system(spec)
    asys = reduce_system(lax.system, lax.action)
    curve = solve_abelian(asys, np.array([3.0]), 0.0, 1.0, 1e-3)
    assert curve.elements[-1, 0] == pytest.approx(3.0, abs=1e-12)
    rec = reconstruct(lax.action, curve, np.array([5.0, 3.0]))
    assert rec.final_state[0] == pytest.approx(-1.0, abs=1e-10)  # 5 - 2*3
    direct = integrate(assemble(lax.system), np.array([5.0, 3.0]), 0.0, 1.0, 1e-3)
    assert np.max(np.abs(rec.states - direct.states)) <= 1e-10


def test_reconstruction_error_hj_lax():
    rng = seeded_rng(10)
    hj = default_model("hamilton_jacobi")
    x0 = hj.system.realized.box.sample(rng)
    direct = integrate(assemble(hj.system), x0, 0.0, 2.0, 1e-3)
    assert reconstruction_error(hj.system, hj.action, direct) <= 1e-8
    lax = default_model("lax")
    v0 = lax.system.realized.box.sample(rng)
    direct = integrate(assemble(lax.system), v0, 0.0, 2.0, 1e-3)
    assert reconstruction_error(lax.system, lax.action, direct) <= 1e-8


def test_reconstruction_error_ermakov_matrix_case():
    spec = ErmakovSpec(omega2=lambda t, I: 1.0 + 0.1 * np.sin(t), c1=0.0, c2=0.0)
    bundle = ermakov_system(spec)
    action = ermakov_matrix_action(spec)
    x0 = np.array([1.0, 1.2, 0.3, -0.2])
    direct = integrate(assemble(bundle.system), x0, 0.0, 2.0, 1e-3)
    err = reconstruction_error(bundle.system, action, direct)
    assert err <= 1e-6


def test_ermakov_matrix_action_requires_uncoupled():
    with pytest.raises(ValueError):
        ermakov_matrix_action(ErmakovSpec(omega2=lambda t, I: 1.0, c1=1.0, c2=1.0))


def test_matrix_generator_commutators():
    spec = ErmakovSpec(omega2=lambda t, I: 1.0, c1=0.0, c2=0.0)
    bundle = ermakov_system(spec)
    action = ermakov_matrix_action(spec)
    asys = AutomorphicSystem.from_reduction(
        MATRIX, action.generators, bundle.system.coeffs, 1,
        algebra=bundle.system.realized.algebra)
    assert asys.generator_commutator_residual() <= 1e-12


def test_group_curve_consistency_second_order():
    spec = ErmakovSpec(omega2=lambda t, I: 1.0 + 0.1 * np.sin(t), c1=0.0, c2=0.0)
    bundle = ermakov_system(spec)
    action = ermakov_matrix_action(spec)
    asys = reduce_system(bundle.system, action)
    k = np.array([0.5])
    h = 1e-3
    curve = solve_matrix(asys, k, 0.0, 1.0, h)
    # central differences of the stored curve estimate g' to O(h^2)
    assert group_curve_consistency(asys, curve, k) <= 10.0 * h ** 2
