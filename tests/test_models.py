import numpy as np
import pytest
from scipy.integrate import quad

from folsys.errors import DimensionMismatchError
from folsys.fields import lie_bracket_at, directional_derivative
from folsys.foliated import assemble, leaf_drift
from folsys.integrate import integrate
from folsys.models import (ErmakovSpec, HamiltonJacobiSpec, LaxSpec,
                           RiccatiSpec, default_model, ermakov_fields,
                           ermakov_system, hj_lax_equivalence, hj_system,
                           lax_from_hamiltonian, lax_m_matrix, lax_matrix,
                           lax_matrix_rhs, lax_spectrum, lax_system,
                           lewis_invariant, riccati_system, sum_cos_spec)
from folsys.util import grad_fd, seeded_rng


# --- coefficient maps ----------------------------------------------------------

def test_translation_models_take_one_gradient_per_rhs_evaluation():
    # interpreted H (no analytic gradient): every coefficient of the map comes
    # from one central-difference gradient, one call of H on the 2n perturbed
    # copies of the momenta
    shapes = []

    def H(t, P):
        shapes.append(P.shape)
        return np.sum(np.cos(t * P), axis=-1)

    spec = HamiltonJacobiSpec(3, H=H)
    bundles = (hj_system(spec), lax_system(lax_from_hamiltonian(3, spec.gradient)))
    x = np.array([0.1, -0.2, 0.3, 1.0, 1.2, 1.4])
    for bundle in bundles:
        for states in (x, np.stack([x, 2.0 * x])):
            shapes.clear()
            assemble(bundle.system)(0.7, states)
            assert shapes == [(6,) + states.shape[:-1] + (3,)]


def test_hj_block_gradient_equals_grad_fd_per_point_bitwise():
    spec = HamiltonJacobiSpec(2, H=lambda t, P: np.sum(np.cos(t * P), axis=-1))
    P = seeded_rng(4).uniform(0.5, 2.0, size=(3, 5, 2))
    block = spec.gradient(0.9, P)
    assert block.shape == P.shape
    for idx in np.ndindex(P.shape[:-1]):
        ref = grad_fd(lambda p: spec.H(0.9, p), P[idx])
        assert block[idx].tobytes() == ref.tobytes()


def test_hj_gradient_needs_one_value_of_H_per_point():
    # a scalar-collapsing H would be broadcast as P-independent and give a
    # zero gradient; the fallback rejects it instead
    spec = HamiltonJacobiSpec(2, H=lambda t, P: float(np.sum(np.cos(t * P))))
    with pytest.raises(DimensionMismatchError, match="one value per point"):
        spec.gradient(0.5, np.array([1.0, 1.5]))
    with pytest.raises(DimensionMismatchError):
        hj_system(spec).system.coeffs(0.5, np.array([0.0, 0.0, 1.0, 1.5]))


# --- Riccati -----------------------------------------------------------------

def test_riccati_commutation_relations():
    bundle = riccati_system(RiccatiSpec.constant(1.0, 0.0, -1.0))
    x0f, x1f, x2f = bundle.system.realized.fields
    pt = np.array([1.0])
    assert lie_bracket_at(x0f, x2f, pt)[0] == pytest.approx(2.0 * x1f(pt)[0], abs=1e-8)
    rng = seeded_rng(6)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=1)
        assert abs(lie_bracket_at(x0f, x1f, x)[0] - x0f(x)[0]) <= 1e-8
        assert abs(lie_bracket_at(x1f, x2f, x)[0] - x2f(x)[0]) <= 1e-8


def test_riccati_tanh_solution():
    bundle = riccati_system(RiccatiSpec.constant(1.0, 0.0, -1.0))
    traj = integrate(assemble(bundle.system), np.array([0.0]), 0.0, 2.0, 1e-3)
    assert np.max(np.abs(traj.states[:, 0] - np.tanh(traj.times))) <= 1e-10


def test_riccati_time_dependent_coefficients():
    spec = RiccatiSpec(a0=lambda t: np.cos(t), a1=lambda t: 0.1,
                       a2=lambda t: -1.0)
    F = assemble(riccati_system(spec).system)
    x = np.array([0.5])
    assert F(0.3, x)[0] == pytest.approx(np.cos(0.3) + 0.1 * 0.5 - 0.25, abs=1e-14)


# --- momentum-conserving Hamiltonian model -----------------------------------

def test_hj_assembled_field_closed_form():
    hj = hj_system(sum_cos_spec(1))
    F = assemble(hj.system)
    val = F(1.2, np.array([0.4, 0.9]))
    assert np.allclose(val, [1.2 * np.sin(1.2 * 0.9), 0.0], atol=1e-14)


def test_hj_momenta_exactly_constant():
    hj = default_model("hamilton_jacobi")
    traj = integrate(assemble(hj.system), hj.default_state, 0.0, 2.0, 1e-3)
    assert np.all(traj.states[:, 2:] == hj.default_state[2:])


def test_hj_quadrature_endpoint():
    hj = hj_system(sum_cos_spec(1))
    traj = integrate(assemble(hj.system), np.array([0.0, 1.0]), 0.0, np.pi, 1e-3)
    oracle, _ = quad(lambda s: s * np.sin(s), 0.0, np.pi)
    assert traj.final_state[0] == pytest.approx(oracle, abs=1e-8)
    assert oracle == pytest.approx(np.pi, abs=1e-10)


def test_hj_gradient_consistency_guard():
    bad = HamiltonJacobiSpec(1, H=lambda t, P: float(P[0] ** 2),
                             dH=lambda t, P: 3.0 * P)
    with pytest.raises(ValueError):
        hj_system(bad)


def test_hj_finite_difference_gradient_fallback():
    spec = HamiltonJacobiSpec(2, H=lambda t, P: np.sum(np.cos(t * P), axis=-1))
    ref = sum_cos_spec(2)
    rng = seeded_rng(9)
    for _ in range(10):
        t = float(rng.uniform(0, 2))
        P = rng.uniform(0.5, 2, size=2)
        assert np.allclose(spec.gradient(t, P), ref.dH(t, P), atol=1e-7)


# --- isospectral block model ---------------------------------------------------

def test_lax_block_matrix_and_spectrum():
    v = np.array([5.0, 3.0])
    M = lax_matrix(1, v)
    assert np.array_equal(M, np.array([[6.0, 5.0], [0.0, 0.0]]))
    # upper-triangular: eigenvalues are the diagonal entries
    assert np.allclose(lax_spectrum(1, v), [0.0, 6.0], atol=1e-12)
    assert np.allclose(lax_spectrum(1, np.zeros(2)), [0.0, 0.0])


def test_lax_commutator_rhs_hand_value():
    spec = LaxSpec(n=1, f=lambda t, I: np.ones(1))
    v = np.array([5.0, 3.0])
    # oracle: 2x2 blocks [[6,5],[0,0]] and [[0,-1],[0,0]] by hand
    V = np.array([[6.0, 5.0], [0.0, 0.0]])
    M = np.array([[0.0, -1.0], [0.0, 0.0]])
    C = V @ M - M @ V
    assert np.array_equal(C, np.array([[0.0, -6.0], [0.0, 0.0]]))
    assert np.allclose(lax_matrix_rhs(spec, 0.0, v), [-6.0, 0.0])
    assert np.allclose(lax_m_matrix(spec, 0.0, v), M)


def test_lax_assembled_equals_commutator_rhs():
    spec = lax_from_hamiltonian(2, sum_cos_spec(2).dH)
    bundle = lax_system(spec)
    F = assemble(bundle.system)
    rng = seeded_rng(12)
    for _ in range(25):
        t = float(rng.uniform(0, 2))
        v = bundle.system.realized.box.sample(rng)
        assert np.allclose(F(t, v), lax_matrix_rhs(spec, t, v), atol=1e-13)


def test_lax_leaf_drift_and_spectrum_drift():
    bundle = default_model("lax")
    traj = integrate(assemble(bundle.system), bundle.default_state, 0.0, 2.0, 1e-3)
    assert leaf_drift(traj, bundle.system.chart) == 0.0
    ref = lax_spectrum(2, traj.states[0])
    drift = max(float(np.max(np.abs(lax_spectrum(2, s) - ref))) for s in traj.states)
    assert drift <= 1e-12


# --- Ermakov model -------------------------------------------------------------

def test_lewis_invariant_closed_form_values():
    spec = ErmakovSpec(omega2=lambda t, I: 1.0, c1=1.0, c2=1.0)
    assert lewis_invariant(spec, [1.0, 1.0, 0.0, 1.0]) == pytest.approx(2.5, abs=1e-14)
    assert lewis_invariant(spec, [1.0, 1.0, 1.0, 1.0]) == pytest.approx(2.0, abs=1e-14)


def test_lewis_invariant_quadrature_oracle():
    c1, c2 = 0.7, 1.3
    spec = ErmakovSpec(omega2=lambda t, I: 1.0, c1=c1, c2=c2)
    rng = seeded_rng(2)
    for _ in range(10):
        x, y = rng.uniform(0.8, 1.6, size=2)
        vx, vy = rng.uniform(-0.6, 0.6, size=2)
        w = x * vy - y * vx
        integral, _ = quad(lambda u: c1 - c2 * u ** -2, 1.0, x / y)
        oracle = 0.5 * w * w + integral + (c1 + c2)
        assert lewis_invariant(spec, [x, y, vx, vy]) == pytest.approx(oracle, abs=1e-10)


def test_ermakov_commutation_relations_at_seeded_points():
    spec = ErmakovSpec(omega2=lambda t, I: 1.0, c1=1.0, c2=1.0)
    X1, X2, X3 = ermakov_fields(spec)
    rng = seeded_rng(3)
    for _ in range(100):
        s = np.concatenate([rng.uniform(0.8, 1.6, 2), rng.uniform(-0.6, 0.6, 2)])
        assert np.max(np.abs(lie_bracket_at(X1, X2, s) - X1(s))) <= 1e-6
        assert np.max(np.abs(lie_bracket_at(X1, X3, s) - 2.0 * X2(s))) <= 1e-6
        assert np.max(np.abs(lie_bracket_at(X2, X3, s) - X3(s))) <= 1e-6


def test_ermakov_fields_annihilate_invariant():
    bundle = default_model("ermakov")
    lw = bundle.observables["lewis"]
    rng = seeded_rng(4)
    worst = 0.0
    for _ in range(100):
        s = bundle.system.realized.box.sample(rng)
        for X in bundle.system.realized.fields:
            worst = max(worst, abs(directional_derivative(X, lw, s)))
    assert worst <= 1e-8


def test_ermakov_frequency_coefficient_is_leafwise_constant():
    spec = ErmakovSpec(omega2=lambda t, I: 1.0 + 0.1 * np.sin(t) + 0.2 * I,
                       c1=1.0, c2=1.0)
    bundle = ermakov_system(spec)
    g3 = lambda t, y: bundle.system.coeffs(t, y)[2]
    rng = seeded_rng(5)
    worst = 0.0
    for _ in range(100):
        s = bundle.system.realized.box.sample(rng)
        frozen = lambda y: g3(0.7, y)
        for X in bundle.system.realized.fields:
            worst = max(worst, abs(directional_derivative(X, frozen, s)))
    assert worst <= 1e-8


def test_ermakov_lewis_drift_along_flow():
    bundle = default_model("ermakov")
    traj = integrate(assemble(bundle.system), bundle.default_state, 0.0, 5.0, 1e-3)
    lw = bundle.observables["lewis"]
    ref = lw(traj.states[0])
    drift = max(abs(lw(s) - ref) for s in traj.states)
    assert drift / abs(ref) <= 1e-6


def test_ermakov_convergence_order():
    from folsys.integrate import convergence_order
    bundle = default_model("ermakov")
    order = convergence_order(assemble(bundle.system), bundle.default_state,
                              0.0, 2.0, 0.01)
    assert 3.5 <= order <= 4.5


def test_ermakov_domain_guard():
    from folsys.errors import DomainExitError
    spec = ErmakovSpec(omega2=lambda t, I: 1.0, c1=1.0, c2=1.0)
    bundle = ermakov_system(spec)
    with pytest.raises(DomainExitError):
        integrate(assemble(bundle.system), np.array([1e-9, 1.0, 0.0, 0.0]),
                  0.0, 1.0, 1e-2)


# --- shared reduction ----------------------------------------------------------

def test_equivalence_constant_gradient():
    spec = HamiltonJacobiSpec(1, H=lambda t, P: float(P[0] ** 2) / 2.0,
                              dH=lambda t, P: P.copy())
    rep = hj_lax_equivalence(spec, np.array([0.0, 3.0]), np.array([0.0, 3.0]),
                             (0.0, 1.0))
    assert rep.shared_coeff_residual <= 1e-12
    assert rep.hj_error <= 1e-8
    assert rep.lax_error <= 1e-8


def test_equivalence_sum_cos_two_dof():
    rep = hj_lax_equivalence(sum_cos_spec(2), np.array([0.0, 0.0, 1.0, 1.5]),
                             np.array([0.5, -0.3, 1.0, 1.5]), (0.0, 2.0))
    assert rep.shared_coeff_residual <= 1e-12
    assert rep.hj_error <= 1e-8
    assert rep.lax_error <= 1e-8
    # the doubled-gradient generator matrix does not reproduce the component
    # equations; the mismatch is reported, not asserted away
    assert rep.doubled_gradient_residual > 0.1


def test_equivalence_constant_hamiltonian_trivial():
    spec = HamiltonJacobiSpec(1, H=lambda t, P: 1.0,
                              dH=lambda t, P: np.zeros(1))
    rep = hj_lax_equivalence(spec, np.array([0.3, 1.0]), np.array([0.7, 1.0]),
                             (0.0, 2.0))
    assert rep.hj_error == 0.0
    assert rep.lax_error == 0.0


def test_equivalence_leaf_mismatch_rejected():
    with pytest.raises(ValueError):
        hj_lax_equivalence(sum_cos_spec(1), np.array([0.0, 1.0]),
                           np.array([0.0, 2.0]), (0.0, 1.0))


def test_equivalence_q_pi_case():
    # H = cos(t P) at P = 1: both routes land on Q(pi) = pi
    spec = sum_cos_spec(1)
    rep = hj_lax_equivalence(spec, np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                             (0.0, np.pi))
    assert rep.hj_error <= 1e-8
    hj = hj_system(spec)
    traj = integrate(assemble(hj.system), np.array([0.0, 1.0]), 0.0, np.pi, 1e-3)
    assert traj.final_state[0] == pytest.approx(np.pi, abs=1e-8)
