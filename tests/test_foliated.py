import numpy as np
import pytest
from scipy.integrate import quad

from folsys.algebra import builtin_algebra
from folsys.errors import DegeneratePointError, DimensionMismatchError
from folsys.fields import RealizedAlgebra, VectorField
from folsys.foliated import (FoliatedSystem, FoliationChart, assemble,
                             chart_roundtrip_residual, leaf_drift, leaf_of,
                             verify_foliated)
from folsys.integrate import integrate
from folsys.models import (ErmakovSpec, default_model, ermakov_system,
                           hj_system, lewis_invariant, sum_cos_spec)
from folsys.util import Box, seeded_rng


def test_assemble_hj_matches_closed_form():
    hj = hj_system(sum_cos_spec(1))
    F = assemble(hj.system)
    for t, q, p in [(0.5, 0.0, 1.0), (1.7, 2.0, 0.8)]:
        val = F(t, np.array([q, p]))
        assert np.allclose(val, [t * np.sin(t * p), 0.0], atol=1e-13)


def test_assemble_zero_coefficients():
    hj = hj_system(sum_cos_spec(2))
    fs = hj.system
    zeroed = FoliatedSystem(fs.realized, lambda t, x: np.zeros(2), fs.chart)
    F = assemble(zeroed)
    assert np.all(F(1.3, np.array([0.1, 0.2, 1.0, 1.5])) == 0.0)


def test_assemble_rejects_coefficient_map_of_wrong_shape():
    fs = hj_system(sum_cos_spec(2)).system
    for wrong in (lambda t, x: np.zeros(3), lambda t, x: 0.0):
        F = assemble(FoliatedSystem(fs.realized, wrong, fs.chart))
        with pytest.raises(DimensionMismatchError):
            F(0.5, np.array([0.1, 0.2, 1.0, 1.5]))
        with pytest.raises(DimensionMismatchError):
            F(0.5, np.array([[0.1, 0.2, 1.0, 1.5], [0.0, 0.0, 1.2, 0.9]]))


def test_assemble_lax_commutator_sign():
    # built-in n = 2 with f_a = (dH/dI_a)/I_a, so dv^a/dt = -2 f_a I_a = -2 dH/dI_a
    lax = default_model("lax")
    F = assemble(lax.system)
    v = np.array([0.5, -0.3, 1.0, 1.5])
    t = 0.7
    dh = -t * np.sin(t * v[2:])
    expected = np.concatenate([-2.0 * dh, [0.0, 0.0]])
    assert np.allclose(F(t, v), expected, atol=1e-13)


def test_assemble_linear_in_coefficients_exact_integers():
    x1 = VectorField(1, lambda x: np.array([2.0]))
    ra = RealizedAlgebra(builtin_algebra("abelian:1"), (x1,), Box([-1], [1]))
    chart = FoliationChart.split(1, 1)
    f1 = FoliatedSystem(ra, lambda t, x: np.array([2.0]), chart)
    f2 = FoliatedSystem(ra, lambda t, x: np.array([3.0]), chart)
    fsum = FoliatedSystem(ra, lambda t, x: np.array([2.0 + 3.0]), chart)
    x = np.array([0.3])
    assert np.array_equal(assemble(fsum)(0.0, x),
                          assemble(f1)(0.0, x) + assemble(f2)(0.0, x))


def test_assemble_linear_in_coefficients_generic():
    hj = hj_system(sum_cos_spec(2))
    fs = hj.system
    other = lambda t, x: np.cos(t + np.arange(2))
    summed = lambda t, x: fs.coeffs(t, x) + other(t, x)
    f_sum = assemble(FoliatedSystem(fs.realized, summed, fs.chart))
    f_a = assemble(fs)
    f_b = assemble(FoliatedSystem(fs.realized, other, fs.chart))
    x = np.array([0.1, -0.4, 1.2, 0.9])
    assert np.allclose(f_sum(0.8, x), f_a(0.8, x) + f_b(0.8, x), atol=1e-13)


def test_verify_foliated_hj_and_lax():
    for name in ("hamilton_jacobi", "lax"):
        rep = verify_foliated(default_model(name).system, trials=100, seed=42)
        assert rep.rank_ok
        assert rep.com_residual <= 1e-8
        assert rep.chart_residual <= 1e-8


def test_verify_foliated_ermakov_with_invariant_coupling():
    # frequency law genuinely depending on the conserved label
    spec = ErmakovSpec(omega2=lambda t, I: 1.0 + 0.1 * np.sin(t) + 0.05 * I,
                       c1=1.0, c2=1.0)
    rep = verify_foliated(ermakov_system(spec).system, trials=100, seed=42)
    assert rep.rank_ok
    assert rep.com_residual <= 1e-8
    assert rep.chart_residual <= 1e-6


def test_verify_foliated_broken_coefficient():
    hj = hj_system(sum_cos_spec(1))
    fs = hj.system
    broken = FoliatedSystem(fs.realized, lambda t, x: x[:1], fs.chart)
    rep = verify_foliated(broken, trials=20, seed=42)
    assert rep.com_residual == pytest.approx(1.0, rel=1e-6)


def test_verify_foliated_differentiates_the_coefficient_map_once_per_sample():
    # one central-difference Jacobian: 2 evaluations per coordinate, N = 4
    fs = hj_system(sum_cos_spec(2)).system
    calls = []

    def counted(t, x):
        calls.append(t)
        return fs.coeffs(t, x)

    rep = verify_foliated(FoliatedSystem(fs.realized, counted, fs.chart), trials=1)
    assert len(calls) == 2 * fs.dim == 8
    assert rep.com_residual <= 1e-8


def test_verify_foliated_degenerate_point_aborts():
    # field vanishing on half the box: rank drops below leaf_dim there
    X = VectorField(1, lambda x: np.array([max(x[0], 0.0)]))
    ra = RealizedAlgebra(builtin_algebra("abelian:1"), (X,), Box([-1], [1]))
    fs = FoliatedSystem(ra, lambda t, x: np.ones(1), FoliationChart.split(1, 1))
    with pytest.raises(DegeneratePointError):
        verify_foliated(fs, trials=200, seed=1)


def test_leaf_of_identity_charts():
    hj = default_model("hamilton_jacobi")
    assert np.array_equal(leaf_of(hj.system.chart, np.array([1.0, 2, 3, 4])), [3.0, 4.0])
    lax1 = default_model("lax")
    labels = leaf_of(lax1.system.chart, np.array([5.0, 1.0, 3.0, 1.5]))
    assert np.array_equal(labels, [3.0, 1.5])


def test_leaf_of_ermakov_lewis_label():
    erm = default_model("ermakov")
    val = leaf_of(erm.system.chart, np.array([1.0, 1.0, 0.0, 1.0]))
    assert val[0] == pytest.approx(2.5, abs=1e-12)
    # quadrature oracle for the coupling integral: I = w^2/2 + int_1^{x/y}
    # [c1 - c2 u^-2] du + (c1 + c2)
    state = np.array([1.2, 0.9, 0.3, -0.4])
    w = state[0] * state[3] - state[1] * state[2]
    integral, _ = quad(lambda u: 1.0 - u ** -2, 1.0, state[0] / state[1])
    oracle = 0.5 * w ** 2 + integral + 2.0
    assert val.size == 1
    assert leaf_of(erm.system.chart, state)[0] == pytest.approx(oracle, abs=1e-10)


def test_leaf_drift_exact_zero_hj_lax():
    for name in ("hamilton_jacobi", "lax"):
        bundle = default_model(name)
        traj = integrate(assemble(bundle.system), bundle.default_state, 0.0, 2.0, 1e-3)
        assert leaf_drift(traj, bundle.system.chart) == 0.0


def test_leaf_drift_ermakov_lewis():
    erm = default_model("ermakov")
    traj = integrate(assemble(erm.system), erm.default_state, 0.0, 5.0, 1e-3)
    ref = abs(lewis_invariant(erm.spec, erm.default_state))
    assert leaf_drift(traj, erm.system.chart) / ref <= 1e-6


def test_leaf_drift_trivial_chart_is_zero():
    ric = default_model("riccati")
    traj = integrate(assemble(ric.system), ric.default_state, 0.0, 1.0, 1e-2)
    assert leaf_drift(traj, ric.system.chart) == 0.0


def test_chart_roundtrip_identity():
    hj = default_model("hamilton_jacobi")
    pts = hj.system.realized.box.sample_many(seeded_rng(2), 20)
    assert chart_roundtrip_residual(hj.system.chart, pts) <= 1e-10


def test_plain_lie_system_restriction_freezing():
    # time-only coefficients: freezing the state dependence on a leaf changes nothing
    hj = hj_system(sum_cos_spec(1))
    fs = hj.system
    leaf_rep = fs.chart.leaf_point(np.array([1.3]))
    frozen = lambda t, x: fs.coeffs(t, leaf_rep)
    F = assemble(fs)
    F_frozen = assemble(FoliatedSystem(fs.realized, frozen, fs.chart))
    for q in (-1.0, 0.0, 2.0):
        x = np.array([q, 1.3])  # on the leaf P = 1.3
        assert np.array_equal(F(0.7, x), F_frozen(0.7, x))
