import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folsys.errors import (DimensionMismatchError, FolsysError,
                           SingularCombinationError)
from folsys.foliated import leaf_of
from folsys.integrate import integrate
from folsys.foliated import assemble
from folsys.models import hj_system, sum_cos_gradient, translation_rule
from folsys.superposition import (SuperpositionRule, _sample_on_leaf, _separated,
                                  apply_rule, first_integral_residual,
                                  rule_points, solve_parameters, verify_rule)
from folsys.util import seeded_rng

from .conftest import model_bundle


def riccati_rule():
    return model_bundle("riccati").rule


def test_riccati_rule_values():
    rule = riccati_rule()
    sols = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
    assert apply_rule(rule, sols, [1.0])[0] == pytest.approx(2.0 / 3.0, abs=1e-14)
    sols = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
    assert apply_rule(rule, sols, [1.0])[0] == pytest.approx(5.0 / 3.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_riccati_rule_k_zero_returns_first(u1, u2, u3):
    scale = max(1.0, abs(u1), abs(u2), abs(u3))
    if min(abs(u1 - u2), abs(u1 - u3), abs(u2 - u3)) < 1e-6 * scale:
        return
    rule = riccati_rule()
    out = apply_rule(rule, [np.array([u1]), np.array([u2]), np.array([u3])], [0.0])
    assert out[0] == pytest.approx(u1, rel=1e-12, abs=1e-12)


def test_riccati_rule_singular_inputs():
    rule = riccati_rule()
    with pytest.raises(SingularCombinationError):
        apply_rule(rule, [np.array([1.0]), np.array([1.0]), np.array([2.0])], [0.5])
    # denominator (u3 - u2) + k (u3 - u1) = 0
    with pytest.raises(SingularCombinationError):
        apply_rule(rule, [np.array([0.0]), np.array([1.0]), np.array([2.0])], [-0.5])
    # one singular sample in a block raises for the block
    u1 = np.array([[0.1], [0.5], [-0.2]])
    with pytest.raises(SingularCombinationError):
        apply_rule(rule, [u1, np.array([[0.3], [0.5], [0.4]]), -u1], [0.5])


@pytest.mark.parametrize("name", ["riccati", "hamilton_jacobi", "lax"])
def test_rule_over_a_block_equals_per_sample_bitwise(name):
    bundle = model_bundle(name)
    rule = bundle.rule
    rng = seeded_rng(11)
    sols = [bundle.system.box.sample_many(rng, 40) for _ in range(rule.m)]
    k = rng.uniform(-1.0, 1.0, size=rule.param_dim)
    block = apply_rule(rule, sols, k)
    assert block.shape == (40, rule.state_dim)
    for i in range(40):
        single = apply_rule(rule, [s[i] for s in sols], k)
        assert block[i].tobytes() == single.tobytes()


@pytest.mark.parametrize("name", ["riccati", "hamilton_jacobi"])
def test_verify_rule_applies_the_rule_once_per_trial(name):
    bundle = model_bundle(name)
    blocks = []

    def psi(sols, k):
        if sols[0].ndim > 1:
            blocks.append(sols[0].shape)
        return bundle.rule.psi(sols, k)

    counted = dataclasses.replace(bundle.rule, psi=psi)
    verify_rule(counted, bundle.system, (0.0, 0.5), trials=3, seed=42, h=0.01)
    # one reconstruction per trial, over all 51 samples of the grid
    assert blocks == [(51, bundle.system.dim)] * 3


def test_hj_rule_translation():
    rule = model_bundle("hamilton_jacobi").rule
    out = apply_rule(rule, [np.array([1.0, 2.0, 3.0, 4.0])], [10.0, 20.0])
    assert np.array_equal(out, [11.0, 22.0, 3.0, 4.0])


def test_lax_rule_translation():
    rule = model_bundle("lax").rule
    out = apply_rule(rule, [np.array([5.0, 0.0, 3.0, 1.0])], [4.0, 0.0])
    assert np.array_equal(out, [9.0, 0.0, 3.0, 1.0])


def test_apply_rule_dimension_checks():
    rule = model_bundle("hamilton_jacobi").rule
    with pytest.raises(DimensionMismatchError):
        apply_rule(rule, [np.zeros(3)], [0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        apply_rule(rule, [np.zeros(4)], [0.0])
    with pytest.raises(DimensionMismatchError):
        apply_rule(rule, [np.zeros(4), np.zeros(4)], [0.0, 0.0])


def test_rule_parameter_count_guard():
    # one parameter of one solution cannot cover the three Riccati fields
    rule = SuperpositionRule(m=1, state_dim=1, param_dim=1, psi=lambda s, k: s[0],
                             F=lambda x, s: x[..., :1] - s[0][..., :1])
    with pytest.raises(ValueError):
        rule_points(rule, model_bundle("riccati").system)


def test_constructed_rules_satisfy_count():
    for name in ("riccati", "hamilton_jacobi", "lax"):
        bundle = model_bundle(name)
        rule = bundle.rule
        assert rule.m * rule.param_dim >= bundle.system.algebra.dim


def test_translation_rule_hj_and_lax():
    rule = translation_rule(2)
    assert (rule.m, rule.state_dim, rule.param_dim) == (1, 4, 2)
    out = apply_rule(rule, [np.array([5.0, 0.0, 3.0, 1.0])], [4.0, 0.0])
    assert np.array_equal(out, [9.0, 0.0, 3.0, 1.0])
    for name in ("hamilton_jacobi", "lax"):
        bundle = model_bundle(name)
        assert (bundle.rule.m, bundle.rule.param_dim,
                bundle.system.algebra.dim) == (1, 2, 2)
        assert apply_rule(bundle.rule, [np.array([5.0, 0.0, 3.0, 1.0])],
                          [4.0, 0.0]).tobytes() == out.tobytes()


def test_leaf_preservation_of_derived_rules():
    for name in ("hamilton_jacobi", "lax"):
        bundle = model_bundle(name)
        rule = bundle.rule
        chart = bundle.system.chart
        rng = seeded_rng(8)
        for _ in range(100):
            x = bundle.system.box.sample(rng)
            k = rng.uniform(-1, 1, size=rule.param_dim)
            out = apply_rule(rule, [x], k)
            assert np.max(np.abs(leaf_of(chart, out) - leaf_of(chart, x))) <= 1e-10


def test_first_integral_residual_hj():
    hj = hj_system(1, sum_cos_gradient)
    rule = translation_rule(1)
    # joint points (x_(1), x): (Q1, P1), (Q, P)
    rng = seeded_rng(4)
    joint = rng.uniform(-1, 1, size=(10, 2, 2))
    assert first_integral_residual(rule, hj.system, joint) <= 1e-8
    # Q alone moves along d/dQ at unit rate; |Q| <= 1 leaves it unscaled
    bad = dataclasses.replace(rule, F=lambda x, sols: x[..., :1])
    assert first_integral_residual(bad, hj.system, joint) == pytest.approx(1.0, rel=1e-6)


def test_first_integral_residual_lax():
    lax = model_bundle("lax")
    rng = seeded_rng(4)
    joint = rng.uniform(0.5, 2.0, size=(10, 2, 4))
    assert first_integral_residual(lax.rule, lax.system, joint) <= 1e-8


def test_first_integral_residual_riccati_block_shape():
    ric = model_bundle("riccati")
    with pytest.raises(DimensionMismatchError):
        first_integral_residual(ric.rule, ric.system, np.zeros((5, 3, 1)))


def test_verify_rule_hj():
    bundle = model_bundle("hamilton_jacobi")
    rep = verify_rule(bundle.rule, bundle.system, (0.0, 2.0), trials=3, seed=42)
    assert rep.max_reconstruction_error <= 1e-8


def test_verify_rule_lax():
    bundle = model_bundle("lax")
    rep = verify_rule(bundle.rule, bundle.system, (0.0, 2.0), trials=3, seed=42)
    assert rep.max_reconstruction_error <= 1e-8


def test_verify_rule_riccati():
    bundle = model_bundle("riccati")
    rep = verify_rule(bundle.rule, bundle.system, (0.0, 2.0), trials=3, seed=42)
    assert rep.max_reconstruction_error <= 1e-6


@pytest.mark.parametrize("seed", range(40))
def test_verify_rule_riccati_over_seeds(seed):
    bundle = model_bundle("riccati")
    rep = verify_rule(bundle.rule, bundle.system, (0.0, 2.0), trials=3, seed=seed, h=0.02)
    assert rep.max_reconstruction_error <= 1e-6
    assert rep.first_integral <= 1e-8


@pytest.mark.parametrize("name", ["riccati", "hamilton_jacobi"])
def test_sample_on_leaf_raises_a_folsys_error_when_separation_is_impossible(name):
    fs = model_bundle(name).system
    with pytest.raises(FolsysError, match="could not draw separated sample points"):
        _sample_on_leaf(fs, seeded_rng(0), 3, min_separation=1e9)


def _separated_by_pairs(pts, eps):
    """The loop over pairs of points that _separated replaced."""
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.max(np.abs(pts[i] - pts[j])) < eps:
                return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
           st.lists(st.integers(-8, 8).map(lambda v: v / 4), min_size=n, max_size=n),
           min_size=1, max_size=6)),
       st.floats(0.0, 5.0))
def test_separated_agrees_with_the_pairwise_loop(rows, eps):
    pts = np.array(rows)
    # every gap between two points is also tried as eps: gaps exactly at eps
    gaps = [float(np.max(np.abs(a - b))) for a in pts for b in pts]
    for e in [eps] + gaps:
        assert _separated(pts, e) == _separated_by_pairs(pts, e)


def test_verify_rule_wrong_rule_fails_a_row():
    bundle = model_bundle("hamilton_jacobi")
    # F is the translation first integral, but psi ignores the parameter
    wrong = SuperpositionRule(m=1, state_dim=4, param_dim=2,
                              psi=lambda sols, k: sols[0].copy(),
                              F=lambda x, sols: x[..., :2] - sols[0][..., :2])
    rep = verify_rule(wrong, bundle.system, (0.0, 1.0), trials=1, seed=42)
    assert rep.max_reconstruction_error > 1e-8  # superposition.reconstruction
    assert rep.first_integral <= 1e-8


@pytest.mark.parametrize("name", ["riccati", "hamilton_jacobi"])
def test_verify_rule_wrong_first_integral_fails(name):
    bundle = model_bundle(name)
    rule = bundle.rule
    # scaling the leaf coordinate of x breaks the invariance of F
    wrong = dataclasses.replace(
        rule, F=lambda x, sols: rule.F(x * np.r_[1.5, np.ones(x.shape[-1] - 1)], sols))
    rep = verify_rule(wrong, bundle.system, (0.0, 1.0), trials=3, seed=42, h=0.05)
    assert rep.first_integral > 1e-3  # superposition.first_integral: 1e-8


def test_verify_rule_keeps_a_nan_reconstruction_error():
    bundle = model_bundle("hamilton_jacobi")

    def psi(sols, k):
        out = bundle.rule.psi(sols, k)
        # the fit at t0 sees one point; the reconstruction of the grid is NaN
        return np.full_like(out, np.nan) if out.ndim > 1 else out

    nan_rule = dataclasses.replace(bundle.rule, psi=psi)
    rep = verify_rule(nan_rule, bundle.system, (0.0, 0.5), trials=3, seed=42, h=0.05)
    assert np.isnan(rep.max_reconstruction_error)


def test_solve_parameters_propagates_programming_errors():
    def F(x, sols):
        raise TypeError("broken rule")

    rule = SuperpositionRule(m=1, state_dim=1, param_dim=1,
                             psi=lambda sols, k: sols[0] + k, F=F)
    with pytest.raises(TypeError, match="broken rule"):
        solve_parameters(rule, [np.array([0.1])], np.array([0.2]))


def test_solve_parameters_exactness_on_translations():
    rule = model_bundle("hamilton_jacobi").rule
    sol = np.array([0.3, -0.2, 1.0, 1.5])
    target = np.array([1.1, 0.4, 1.0, 1.5])
    k = solve_parameters(rule, [sol], target)
    assert np.array_equal(k, target[:2] - sol[:2])
    assert np.max(np.abs(apply_rule(rule, [sol], k) - target)) <= 1e-15


def test_solve_parameters_crosses_the_cross_ratio_pole():
    # x just beyond u2 gives k far outside any bounded search box
    rule = riccati_rule()
    sols = [np.array([0.1]), np.array([0.5]), np.array([-0.3])]
    k = solve_parameters(rule, sols, np.array([0.51]))
    assert abs(k[0]) > 20.0
    assert np.max(np.abs(apply_rule(rule, sols, k) - 0.51)) <= 1e-14


def test_riccati_first_integral_singular_inputs():
    rule = riccati_rule()
    with pytest.raises(SingularCombinationError):
        rule.F(np.array([0.3]), [np.array([1.0]), np.array([1.0]), np.array([2.0])])
    # x at u2 is the pole of the cross ratio
    with pytest.raises(SingularCombinationError):
        rule.F(np.array([1.0]), [np.array([0.0]), np.array([1.0]), np.array([2.0])])


@st.composite
def separated_samples(draw, n, copies, width):
    """n samples of ``copies`` states in R^width whose states differ by at
    least 0.05 in every coordinate."""
    out = np.empty((n, copies, width))
    for i in range(n):
        for j in range(width):
            gaps = draw(st.lists(st.floats(0.05, 1.5), min_size=copies - 1,
                                 max_size=copies - 1))
            vals = draw(st.floats(-3, 3)) + np.concatenate([[0.0], np.cumsum(gaps)])
            out[i, :, j] = vals[draw(st.permutations(range(copies)))]
    return out


@pytest.mark.parametrize("name", ["riccati", "hamilton_jacobi"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_first_integral_inverts_the_rule(name, data):
    rule = model_bundle(name).rule
    n = 6
    pts = data.draw(separated_samples(n, rule.m + 1, rule.state_dim))
    x, sols = pts[:, -1], [pts[:, i] for i in range(rule.m)]
    # x on the leaf of x_(1): the coordinates past the parameters are labels
    x[:, rule.param_dim:] = sols[0][:, rule.param_dim:]
    k = rule.F(x, sols)
    assert k.shape == (n, rule.param_dim)
    for i in range(n):
        single = [s[i] for s in sols]
        assert k[i].tobytes() == rule.F(x[i], single).tobytes()
        back = apply_rule(rule, single, k[i])
        assert np.allclose(back, x[i], rtol=1e-12, atol=1e-12)


def test_riccati_cross_ratio_constant_along_flow():
    bundle = model_bundle("riccati")
    F = assemble(bundle.system)
    starts = [-0.8, -0.3, 0.3, 0.8]
    trajs = [integrate(F, np.array([u]), 0.0, 2.0, 1e-3) for u in starts]

    def cross_ratio(us):
        u1, u2, u3, u4 = us
        return ((u1 - u3) * (u2 - u4)) / ((u2 - u3) * (u1 - u4))

    ref = cross_ratio([tr.states[0, 0] for tr in trajs])
    worst = max(abs(cross_ratio([tr.states[i, 0] for tr in trajs]) - ref)
                for i in range(len(trajs[0])))
    assert worst <= 1e-6
