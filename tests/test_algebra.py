import numpy as np
import pytest

from folsys.algebra import (InvariantMetric, LieAlgebra,
                            ad_invariance_residual, adjoint_matrix,
                            builtin_algebra, killing_form)
from folsys.errors import MetricError


def jacobi_loop_oracle(alg):
    # brute-force evaluation of the Jacobi sum, independent of the einsum path
    c = alg.structure
    r = alg.dim
    worst = 0.0
    for a in range(r):
        for b in range(r):
            for g in range(r):
                for n in range(r):
                    s = 0.0
                    for m in range(r):
                        s += (c[a, b, m] * c[m, g, n]
                              + c[b, g, m] * c[m, a, n]
                              + c[g, a, m] * c[m, b, n])
                    worst = max(worst, abs(s))
    return worst


def killing_loop_oracle(alg):
    r = alg.dim
    K = np.zeros((r, r))
    for a in range(r):
        for b in range(r):
            acc = 0.0
            for i in range(r):
                for j in range(r):
                    # (ad_a ad_b)_{ii} summed: ad_a[i,j] ad_b[j,i]
                    acc += alg.structure[a, j, i] * alg.structure[b, i, j]
            K[a, b] = acc
    return K


def test_builtin_algebras_satisfy_jacobi():
    for name in ("sl2", "abelian:1", "abelian:4", "glp:1", "glp:3"):
        assert jacobi_loop_oracle(builtin_algebra(name)) == 0.0


def test_structure_must_be_antisymmetric():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # missing the antisymmetric partner
    with pytest.raises(ValueError):
        LieAlgebra(2, ("a", "b"), c)


def test_bracket_glp_relations():
    # [x, y] = ad_x y
    glp1 = builtin_algebra("glp:1")
    e1 = np.array([1.0, 0.0])
    assert np.array_equal(adjoint_matrix(glp1, 1) @ e1, 2.0 * e1)
    assert np.array_equal(adjoint_matrix(glp1, 0) @ np.array([0.0, 1.0]), -2.0 * e1)

    glp2 = builtin_algebra("glp:2")
    e2 = np.zeros(4)
    e2[1] = 1.0
    assert np.all(adjoint_matrix(glp2, 2) @ e2 == 0.0)  # [h1, e2] = 0


def test_adjoint_matrix_sl2():
    sl2 = builtin_algebra("sl2")
    ad_h = adjoint_matrix(sl2, 1)
    assert np.allclose(ad_h, np.diag([2.0, 0.0, -2.0]))
    # ad_{e_a} e_b = [e_a, e_b] = sum_g c[a, b, g] e_g
    for a in range(3):
        for b in range(3):
            assert np.array_equal(adjoint_matrix(sl2, a) @ np.eye(3)[b],
                                  sl2.structure[a, b])


def test_adjoint_matrix_abelian_zero_and_range():
    ab = builtin_algebra("abelian:3")
    for a in range(3):
        assert np.all(adjoint_matrix(ab, a) == 0.0)
    with pytest.raises(IndexError):
        adjoint_matrix(ab, 3)


def test_adjoint_glp_relation():
    glp1 = builtin_algebra("glp:1")
    ad_e = adjoint_matrix(glp1, 0)
    h1 = np.array([0.0, 1.0])
    assert np.allclose(ad_e @ h1, np.array([-2.0, 0.0]))  # [e1, h1] = -2 e1


def test_adjoint_is_representation():
    # ad_{[x,y]} = ad_x ad_y - ad_y ad_x on basis pairs
    for name in ("sl2", "glp:2"):
        alg = builtin_algebra(name)
        r = alg.dim
        for a in range(r):
            for b in range(r):
                lhs = sum(alg.structure[a, b, g] * adjoint_matrix(alg, g)
                          for g in range(r))
                ada, adb = adjoint_matrix(alg, a), adjoint_matrix(alg, b)
                assert np.max(np.abs(lhs - (ada @ adb - adb @ ada))) <= 1e-12


def test_killing_form_sl2_exact_values():
    K = killing_form(builtin_algebra("sl2"))
    expected = np.array([[0.0, 0.0, 4.0], [0.0, 8.0, 0.0], [4.0, 0.0, 0.0]])
    assert np.array_equal(K, expected)
    assert np.array_equal(K, killing_loop_oracle(builtin_algebra("sl2")))


def test_killing_form_abelian_zero():
    assert np.all(killing_form(builtin_algebra("abelian:3")) == 0.0)


def test_killing_form_glp_degenerate():
    K = killing_form(builtin_algebra("glp:1"))
    assert np.array_equal(K, killing_loop_oracle(builtin_algebra("glp:1")))
    assert np.all(K[0] == 0.0)  # nilpotent generator: vanishing trace row
    with pytest.raises(MetricError):
        InvariantMetric(builtin_algebra("glp:1"), K)


def test_zero_killing_form_is_a_degenerate_metric():
    # every singular value is 0: the ratio test alone reads 0 < 0 and passes
    ab = builtin_algebra("abelian:2")
    with pytest.raises(MetricError, match="degenerate"):
        InvariantMetric(ab, killing_form(ab))


def test_killing_symmetric_and_invariant():
    for name in ("sl2", "glp:2"):
        alg = builtin_algebra(name)
        K = killing_form(alg)
        assert np.max(np.abs(K - K.T)) <= 1e-12
        assert ad_invariance_residual(alg, K) <= 1e-12


def test_glp_hand_commutator():
    # [h1, e1] = 2 e1 for e1 = [[0,1],[0,0]], h1 = [[2,0],[0,0]]
    e1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    h1 = np.array([[2.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(h1 @ e1 - e1 @ h1, 2.0 * e1)


def test_invariant_metric_accepts_killing_sl2():
    sl2 = builtin_algebra("sl2")
    met = InvariantMetric(sl2, killing_form(sl2))
    assert np.allclose(met.g @ met.g_inv, np.eye(3), atol=1e-14)


def test_invariant_metric_rejects_asymmetric_and_noninvariant():
    sl2 = builtin_algebra("sl2")
    with pytest.raises(MetricError):
        InvariantMetric(sl2, np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1.0]]))
    with pytest.raises(MetricError):
        InvariantMetric(sl2, np.eye(3))  # symmetric, nondegenerate, not invariant
