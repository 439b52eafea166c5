import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folsys.errors import (AbelianDerivationError, DimensionMismatchError,
                           NoParameterFoundError, SingularCombinationError)
from folsys.foliated import leaf_of
from folsys.integrate import integrate
from folsys.foliated import assemble
from folsys.models import default_model, hj_system, sum_cos_spec
from folsys.superposition import (SuperpositionRule, apply_rule,
                                  derive_abelian_rule, first_integral_residual,
                                  solve_parameters, verify_rule)
from folsys.util import seeded_rng


def riccati_rule():
    return default_model("riccati").rule


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
    bundle = default_model(name)
    rule = bundle.rule
    rng = seeded_rng(11)
    sols = [bundle.system.realized.box.sample_many(rng, 40) for _ in range(rule.m)]
    k = rng.uniform(-1.0, 1.0, size=rule.param_dim)
    block = apply_rule(rule, sols, k)
    assert block.shape == (40, rule.state_dim)
    for i in range(40):
        single = apply_rule(rule, [s[i] for s in sols], k)
        assert block[i].tobytes() == single.tobytes()


@pytest.mark.parametrize("name", ["riccati", "hamilton_jacobi"])
def test_verify_rule_applies_the_rule_once_per_trial(name):
    bundle = default_model(name)
    blocks = []

    def psi(sols, k):
        if sols[0].ndim > 1:
            blocks.append(sols[0].shape)
        return bundle.rule.psi(sols, k)

    counted = dataclasses.replace(bundle.rule, psi=psi)
    verify_rule(counted, bundle.system, (0.0, 0.5), trials=3, seed=42, h=0.01,
                min_separation=bundle.extras.get("rule_min_separation", 0.0))
    # one reconstruction per trial, over all 51 samples of the grid
    assert blocks == [(51, bundle.system.dim)] * 3


def test_hj_rule_translation():
    rule = default_model("hamilton_jacobi").rule
    out = apply_rule(rule, [np.array([1.0, 2.0, 3.0, 4.0])], [10.0, 20.0])
    assert np.array_equal(out, [11.0, 22.0, 3.0, 4.0])


def test_lax_rule_translation():
    rule = default_model("lax").rule
    out = apply_rule(rule, [np.array([5.0, 0.0, 3.0, 1.0])], [4.0, 0.0])
    assert np.array_equal(out, [9.0, 0.0, 3.0, 1.0])


def test_apply_rule_dimension_checks():
    rule = default_model("hamilton_jacobi").rule
    with pytest.raises(DimensionMismatchError):
        apply_rule(rule, [np.zeros(3)], [0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        apply_rule(rule, [np.zeros(4)], [0.0])
    with pytest.raises(DimensionMismatchError):
        apply_rule(rule, [np.zeros(4), np.zeros(4)], [0.0, 0.0])


def test_rule_parameter_count_guard():
    with pytest.raises(ValueError):
        SuperpositionRule(m=1, state_dim=2, param_dim=1,
                          psi=lambda s, k: s[0], vg_dim=3)


def test_constructed_rules_satisfy_count():
    for name in ("riccati", "hamilton_jacobi", "lax"):
        rule = default_model(name).rule
        assert rule.vg_dim is not None
        assert rule.m * rule.param_dim >= rule.vg_dim


def test_derive_abelian_rule_hj_and_lax():
    hj = hj_system(sum_cos_spec(2))
    rule = derive_abelian_rule(hj.system)
    assert rule.m == 1
    assert rule.param_dim == 2
    assert rule.leaf_preserving
    lax = default_model("lax")
    rule = derive_abelian_rule(lax.system)
    assert rule.m == 1
    assert rule.param_dim == 2
    out = apply_rule(rule, [np.array([5.0, 0.0, 3.0, 1.0])], [4.0, 0.0])
    assert np.array_equal(out, [9.0, 0.0, 3.0, 1.0])


def test_derive_abelian_rule_rejects_riccati():
    ric = default_model("riccati")
    with pytest.raises(AbelianDerivationError):
        derive_abelian_rule(ric.system)


def test_leaf_preservation_of_derived_rules():
    for name in ("hamilton_jacobi", "lax"):
        bundle = default_model(name)
        rule = bundle.rule
        chart = bundle.system.chart
        rng = seeded_rng(8)
        for _ in range(100):
            x = bundle.system.realized.box.sample(rng)
            k = rng.uniform(-1, 1, size=rule.param_dim)
            out = apply_rule(rule, [x], k)
            assert np.max(np.abs(leaf_of(chart, out) - leaf_of(chart, x))) <= 1e-10


def test_first_integral_residual_hj():
    hj = hj_system(sum_cos_spec(1))
    # joint layout (x_(0), x_(1)) = (Q0, P0, Q1, P1)
    good = [lambda xi: xi[0] - xi[2], lambda xi: xi[1]]
    rng = seeded_rng(4)
    samples = rng.uniform(-2, 2, size=(10, 4))
    assert first_integral_residual(hj.system, good, samples) <= 1e-8
    bad = [lambda xi: xi[0]]
    assert first_integral_residual(hj.system, bad, samples) == pytest.approx(1.0, rel=1e-6)


def test_first_integral_residual_lax():
    lax = default_model("lax")
    # n = 2: slots of size 4; differences of the translated block and one label
    good = [lambda xi: xi[0] - xi[4], lambda xi: xi[1] - xi[5], lambda xi: xi[2]]
    rng = seeded_rng(4)
    samples = rng.uniform(0.5, 2.0, size=(10, 8))
    assert first_integral_residual(lax.system, good, samples) <= 1e-8


def test_verify_rule_hj():
    bundle = default_model("hamilton_jacobi")
    rep = verify_rule(bundle.rule, bundle.system, (0.0, 2.0), trials=3, seed=42)
    assert rep.max_reconstruction_error <= 1e-8


def test_verify_rule_lax():
    bundle = default_model("lax")
    rep = verify_rule(bundle.rule, bundle.system, (0.0, 2.0), trials=3, seed=42)
    assert rep.max_reconstruction_error <= 1e-8


def test_verify_rule_riccati():
    bundle = default_model("riccati")
    rep = verify_rule(bundle.rule, bundle.system, (0.0, 2.0), trials=3, seed=42,
                      min_separation=0.15)
    assert rep.max_reconstruction_error <= 1e-6


def test_verify_rule_wrong_rule_raises():
    bundle = default_model("hamilton_jacobi")
    wrong = SuperpositionRule(m=1, state_dim=4, param_dim=2,
                              psi=lambda sols, k: sols[0].copy(),
                              leaf_preserving=True)
    with pytest.raises(NoParameterFoundError):
        verify_rule(wrong, bundle.system, (0.0, 1.0), trials=1, seed=42)


def test_solve_parameters_propagates_programming_errors():
    def psi(sols, k):
        raise TypeError("broken rule")

    rule = SuperpositionRule(m=1, state_dim=1, param_dim=1, psi=psi)
    with pytest.raises(TypeError, match="broken rule"):
        solve_parameters(rule, [np.array([0.1])], np.array([0.2]))


def test_solve_parameters_evaluates_each_probe_once():
    rule = riccati_rule()
    calls = []

    def psi(sols, k):
        calls.append(1)
        return rule.psi(sols, k)

    counted = dataclasses.replace(rule, psi=psi)
    sols = [np.array([0.1]), np.array([0.5]), np.array([-0.3])]
    k, res = solve_parameters(counted, sols, np.array([0.3]))
    # 1 start + 5 Gauss-Newton iterations of 2 Jacobian probes and 1
    # line-search step; the exact k is 2
    assert len(calls) == 16
    assert k[0] == 1.9999999990686783
    assert res == 4.656608432185294e-11


def test_solve_parameters_exactness_on_translations():
    rule = default_model("hamilton_jacobi").rule
    sol = np.array([0.3, -0.2, 1.0, 1.5])
    target = np.array([1.1, 0.4, 1.0, 1.5])
    k, res = solve_parameters(rule, [sol], target, seed=0)
    assert np.allclose(k, [0.8, 0.6], atol=1e-9)
    assert res <= 1e-10


def test_riccati_cross_ratio_constant_along_flow():
    bundle = default_model("riccati")
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
