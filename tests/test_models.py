import numpy as np
import pytest
from scipy.integrate import quad

from folsys.automorphic import MATRIX, reconstruction_error
from folsys.errors import DimensionMismatchError
from folsys.fields import lie_bracket_at, directional_derivative
from folsys.foliated import assemble, leaf_drift
from folsys.integrate import integrate
from folsys.models import (ermakov_fields, ermakov_system, hamiltonian_gradient,
                           hj_system, lax_matrix, lax_pair_rhs, lax_spectrum,
                           lax_system, lewis_invariant, riccati_system,
                           sum_cos_gradient)
from folsys.util import grad_fd, seeded_rng

from .conftest import model_bundle


# --- coefficient maps ----------------------------------------------------------

def test_translation_models_take_one_gradient_per_rhs_evaluation():
    # interpreted H (no analytic gradient): every coefficient of the map comes
    # from one central-difference gradient, one call of H on the 2n perturbed
    # copies of the momenta
    shapes = []

    def H(t, P):
        shapes.append(P.shape)
        return np.sum(np.cos(t * P), axis=-1)

    dH = hamiltonian_gradient(H)
    bundles = (hj_system(3, dH), lax_system(3, dH))
    x = np.array([0.1, -0.2, 0.3, 1.0, 1.2, 1.4])
    for bundle in bundles:
        for states in (x, np.stack([x, 2.0 * x])):
            shapes.clear()
            assemble(bundle.system)(0.7, states)
            assert shapes == [(6,) + states.shape[:-1] + (3,)]


def test_hj_block_gradient_equals_grad_fd_per_point_bitwise():
    H = lambda t, P: np.sum(np.cos(t * P), axis=-1)  # noqa: E731
    P = seeded_rng(4).uniform(0.5, 2.0, size=(3, 5, 2))
    block = hamiltonian_gradient(H)(0.9, P)
    assert block.shape == P.shape
    for idx in np.ndindex(P.shape[:-1]):
        ref = grad_fd(lambda p: H(0.9, p), P[idx])
        assert block[idx].tobytes() == ref.tobytes()


def test_hj_gradient_needs_one_value_of_H_per_point():
    # a scalar-collapsing H would be broadcast as P-independent and give a
    # zero gradient; the fallback rejects it instead
    dH = hamiltonian_gradient(lambda t, P: float(np.sum(np.cos(t * P))))
    with pytest.raises(DimensionMismatchError, match="one value per point"):
        dH(0.5, np.array([1.0, 1.5]))
    with pytest.raises(DimensionMismatchError):
        hj_system(2, dH).system.coeffs(0.5, np.array([0.0, 0.0, 1.0, 1.5]))


# --- Riccati -----------------------------------------------------------------

def test_riccati_commutation_relations():
    bundle = model_bundle("riccati")
    x0f, x1f, x2f = bundle.system.fields
    pt = np.array([1.0])
    assert lie_bracket_at(x0f, x2f, pt)[0] == pytest.approx(2.0 * x1f(pt)[0], abs=1e-8)
    rng = seeded_rng(6)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=1)
        assert abs(lie_bracket_at(x0f, x1f, x)[0] - x0f(x)[0]) <= 1e-8
        assert abs(lie_bracket_at(x1f, x2f, x)[0] - x2f(x)[0]) <= 1e-8


def test_riccati_tanh_solution():
    bundle = model_bundle("riccati")
    traj = integrate(assemble(bundle.system), np.array([0.0]), 0.0, 2.0, 1e-3)
    assert np.max(np.abs(traj.states[:, 0] - np.tanh(traj.times))) <= 1e-10


def test_riccati_time_dependent_coefficients():
    F = assemble(riccati_system(a0=lambda t: np.cos(t), a1=lambda t: 0.1,
                                a2=lambda t: -1.0).system)
    x = np.array([0.5])
    assert F(0.3, x)[0] == pytest.approx(np.cos(0.3) + 0.1 * 0.5 - 0.25, abs=1e-14)


def test_riccati_square_equals_float_power_of_two_bitwise():
    # the stage and X2 pass float_power a 0-d exponent 2.0 in place of the
    # int 2: the same libm pow, so the same bytes, at every magnitude
    special = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]
    rng = seeded_rng(7)
    n = 10 ** 6 - len(special)
    mags = 10.0 ** rng.uniform(-300.0, 300.0, n) * rng.choice([-1.0, 1.0], n)
    x = np.concatenate([special, mags])[:, None]
    system = model_bundle("riccati").system
    with np.errstate(over="ignore", invalid="ignore"):
        square = np.float_power(x, 2)
        stage = system.combine(np.array([0.0, 0.0, 1.0]), x)
        assert stage.tobytes() == ((0.0 * x + 0.0) + 1.0 * square).tobytes()
        assert system.fields[2](x).tobytes() == square.tobytes()


# --- momentum-conserving Hamiltonian model -----------------------------------

def test_hj_assembled_field_closed_form():
    hj = hj_system(1, sum_cos_gradient)
    F = assemble(hj.system)
    val = F(1.2, np.array([0.4, 0.9]))
    assert np.allclose(val, [1.2 * np.sin(1.2 * 0.9), 0.0], atol=1e-14)


def test_hj_momenta_exactly_constant():
    hj = model_bundle("hamilton_jacobi")
    traj = integrate(assemble(hj.system), hj.default_state, 0.0, 2.0, 1e-3)
    assert np.all(traj.states[:, 2:] == hj.default_state[2:])


def test_hj_quadrature_endpoint():
    hj = hj_system(1, sum_cos_gradient)
    traj = integrate(assemble(hj.system), np.array([0.0, 1.0]), 0.0, np.pi, 1e-3)
    oracle, _ = quad(lambda s: s * np.sin(s), 0.0, np.pi)
    assert traj.final_state[0] == pytest.approx(oracle, abs=1e-8)
    assert oracle == pytest.approx(np.pi, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sum_cos_gradient_matches_central_differences(n):
    # the only analytic gradient a config can select, against its H
    def H(t, P):
        return np.sum(np.cos(t * P), axis=-1)

    rng = seeded_rng(42)
    for _ in range(10):
        t = rng.uniform(0.0, 2.0, size=1)[0]
        P = rng.uniform(0.5, 2.0, size=n)
        fd = grad_fd(lambda p: H(t, p), P)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(sum_cos_gradient(t, P) - fd)) <= 1e-5 * scale


def test_hj_finite_difference_gradient_fallback():
    dH = hamiltonian_gradient(lambda t, P: np.sum(np.cos(t * P), axis=-1))
    rng = seeded_rng(9)
    for _ in range(10):
        t = float(rng.uniform(0, 2))
        P = rng.uniform(0.5, 2, size=2)
        assert np.allclose(dH(t, P), sum_cos_gradient(t, P), atol=1e-7)


# --- isospectral block model ---------------------------------------------------

def test_lax_block_matrix_and_spectrum():
    v = np.array([5.0, 3.0])
    M = lax_matrix(1, v)
    assert np.array_equal(M, np.array([[6.0, 5.0], [0.0, 0.0]]))
    # upper-triangular: eigenvalues are the diagonal entries
    assert np.allclose(lax_spectrum(1, v), [0.0, 6.0], atol=1e-12)
    assert np.allclose(lax_spectrum(1, np.zeros(2)), [0.0, 0.0])


def test_lax_commutator_rhs_hand_value():
    # H = I^2/2, so dH = I and f = dH/I = 1
    v = np.array([5.0, 3.0])
    # oracle: 2x2 blocks [[6,5],[0,0]] and [[0,-1],[0,0]] by hand
    V = np.array([[6.0, 5.0], [0.0, 0.0]])
    M = np.array([[0.0, -1.0], [0.0, 0.0]])
    C = V @ M - M @ V
    assert np.array_equal(C, np.array([[0.0, -6.0], [0.0, 0.0]]))
    assert np.array_equal(lax_pair_rhs(lambda t, I: I, 0.0, v), [-6.0, 0.0])


def test_lax_assembled_equals_commutator_rhs():
    bundle = lax_system(2, sum_cos_gradient)
    F = assemble(bundle.system)
    rng = seeded_rng(12)
    for _ in range(25):
        t = float(rng.uniform(0, 2))
        v = bundle.system.box.sample(rng)
        assert np.allclose(F(t, v), lax_pair_rhs(sum_cos_gradient, t, v), atol=1e-13)


def test_lax_pair_on_a_block_equals_the_loop_bitwise():
    bundle = model_bundle("lax")
    traj = integrate(assemble(bundle.system), bundle.default_state, 0.0, 2.0, 1e-2)
    lax_pair = bundle.observables["lax_pair"]
    block = lax_pair(traj.times, traj.states)
    loop = np.array([lax_pair(float(t), v)
                     for t, v in zip(traj.times, traj.states)])
    assert block.shape == traj.states.shape
    assert block.tobytes() == loop.tobytes()


def test_lax_leaf_drift_and_spectrum_drift():
    bundle = model_bundle("lax")
    traj = integrate(assemble(bundle.system), bundle.default_state, 0.0, 2.0, 1e-3)
    assert leaf_drift(traj, bundle.system.chart) == 0.0
    ref = lax_spectrum(2, traj.states[0])
    drift = max(float(np.max(np.abs(lax_spectrum(2, s) - ref))) for s in traj.states)
    assert drift <= 1e-12


# --- Ermakov model -------------------------------------------------------------

def test_lewis_invariant_closed_form_values():
    assert lewis_invariant(1.0, 1.0, [1.0, 1.0, 0.0, 1.0]) == pytest.approx(2.5, abs=1e-14)
    assert lewis_invariant(1.0, 1.0, [1.0, 1.0, 1.0, 1.0]) == pytest.approx(2.0, abs=1e-14)


def test_lewis_invariant_quadrature_oracle():
    c1, c2 = 0.7, 1.3
    rng = seeded_rng(2)
    for _ in range(10):
        x, y = rng.uniform(0.8, 1.6, size=2)
        vx, vy = rng.uniform(-0.6, 0.6, size=2)
        w = x * vy - y * vx
        integral, _ = quad(lambda u: c1 - c2 * u ** -2, 1.0, x / y)
        oracle = 0.5 * w * w + integral + (c1 + c2)
        assert lewis_invariant(c1, c2, [x, y, vx, vy]) == pytest.approx(oracle, abs=1e-10)


def test_ermakov_commutation_relations_at_seeded_points():
    X1, X2, X3 = ermakov_fields(1.0, 1.0)
    rng = seeded_rng(3)
    for _ in range(100):
        s = np.concatenate([rng.uniform(0.8, 1.6, 2), rng.uniform(-0.6, 0.6, 2)])
        assert np.max(np.abs(lie_bracket_at(X1, X2, s) - X1(s))) <= 1e-6
        assert np.max(np.abs(lie_bracket_at(X1, X3, s) - 2.0 * X2(s))) <= 1e-6
        assert np.max(np.abs(lie_bracket_at(X2, X3, s) - X3(s))) <= 1e-6


def test_ermakov_fields_annihilate_invariant():
    bundle = model_bundle("ermakov")
    lw = bundle.observables["lewis"]
    rng = seeded_rng(4)
    worst = 0.0
    for _ in range(100):
        s = bundle.system.box.sample(rng)
        for X in bundle.system.fields:
            worst = max(worst, abs(directional_derivative(X, lw, s)))
    assert worst <= 1e-8


def test_ermakov_frequency_coefficient_is_leafwise_constant():
    bundle = ermakov_system(lambda t, I: 1.0 + 0.1 * np.sin(t) + 0.2 * I, 1.0, 1.0)
    g3 = lambda t, y: bundle.system.coeffs(t, y)[2]
    rng = seeded_rng(5)
    worst = 0.0
    for _ in range(100):
        s = bundle.system.box.sample(rng)
        frozen = lambda y: g3(0.7, y)
        for X in bundle.system.fields:
            worst = max(worst, abs(directional_derivative(X, frozen, s)))
    assert worst <= 1e-8


def test_ermakov_lewis_drift_along_flow():
    bundle = model_bundle("ermakov")
    traj = integrate(assemble(bundle.system), bundle.default_state, 0.0, 5.0, 1e-3)
    lw = bundle.observables["lewis"]
    ref = lw(traj.states[0])
    drift = max(abs(lw(s) - ref) for s in traj.states)
    assert drift / abs(ref) <= 1e-6


def test_ermakov_convergence_order():
    from folsys.integrate import convergence_order
    bundle = model_bundle("ermakov")
    order = convergence_order(assemble(bundle.system), bundle.default_state,
                              0.0, 2.0, 0.01)
    assert 3.5 <= order <= 4.5


def test_ermakov_domain_guard():
    from folsys.errors import DomainExitError
    bundle = ermakov_system(lambda t, I: 1.0, 1.0, 1.0)
    with pytest.raises(DomainExitError):
        integrate(assemble(bundle.system), np.array([1e-9, 1.0, 0.0, 0.0]),
                  0.0, 1.0, 1e-2)


def test_ermakov_action_only_for_the_uncoupled_member():
    omega2 = lambda t, I: 1.0  # noqa: E731
    uncoupled = ermakov_system(omega2, 0.0, 0.0)
    assert uncoupled.action.name == "pairwise-linear"
    assert uncoupled.action.kind == MATRIX
    for c1, c2 in ((1.0, 1.0), (0.0, 0.5), (0.5, 0.0)):
        assert ermakov_system(omega2, c1, c2).action is None


# --- shared reduction ----------------------------------------------------------

def test_equivalence_constant_hamiltonian_trivial():
    # a constant H leaves both translation models at rest, and each
    # reconstructs its flow exactly from the identity curve
    dH = lambda t, P: np.zeros(1)  # noqa: E731
    x0 = np.array([0.3, 1.0])
    for bundle in (hj_system(1, dH), lax_system(1, dH)):
        direct = integrate(assemble(bundle.system), x0, 0.0, 2.0, 1e-3)
        assert np.all(direct.states == x0)
        assert reconstruction_error(bundle.system, bundle.action, direct) == 0.0
