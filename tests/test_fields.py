import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folsys.algebra import builtin_algebra
from folsys.errors import RankDeficiencyError
from folsys.fields import (RealizedAlgebra, VectorField, check_jacobian,
                           diagonal_prolongation, diagonality_defect,
                           directional_derivative, lie_bracket_at,
                           minimal_particular_solutions, rank_at,
                           structure_residual)
from folsys.models import default_model, riccati_system, RiccatiSpec
from folsys.util import Box, seeded_rng


def const_field(dim, direction):
    vec = np.zeros(dim)
    vec[direction] = 1.0
    return VectorField(dim, lambda x: vec.copy(),
                       jac=lambda x: np.zeros((dim, dim)))


def riccati_fields():
    x0 = VectorField(1, lambda x: np.array([1.0]))
    x1 = VectorField(1, lambda x: np.array([x[0]]))
    x2 = VectorField(1, lambda x: np.array([x[0] ** 2]))
    return x0, x1, x2


def test_bracket_linear_example():
    X = VectorField(1, lambda x: np.array([1.0]))
    Y = VectorField(1, lambda x: np.array([x[0]]))
    # [d/dx, x d/dx] = d/dx
    assert lie_bracket_at(X, Y, np.array([3.0])) == pytest.approx(1.0, abs=1e-8)


def test_bracket_commuting_translations():
    X = const_field(4, 0)
    Y = const_field(4, 1)
    assert np.allclose(lie_bracket_at(X, Y, np.array([0.3, -1, 2, 0.5])), 0.0)


def test_bracket_riccati_relation():
    x0, x1, x2 = riccati_fields()
    # [X0, X2] = 2 X1, evaluated at x = 1
    val = lie_bracket_at(x0, x2, np.array([1.0]))
    assert val[0] == pytest.approx(2.0, abs=1e-8)


def test_bracket_antisymmetric_at_points():
    x0, x1, x2 = riccati_fields()
    rng = seeded_rng(0)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=1)
        a = lie_bracket_at(x1, x2, x)
        b = lie_bracket_at(x2, x1, x)
        assert np.max(np.abs(a + b)) <= 1e-8


def test_glp_adjoint_realization_matches_structure():
    # fundamental fields of the adjoint flow: 2 v^2 d/dv1 and -2 v^1 d/dv1
    xe = VectorField(2, lambda v: np.array([2.0 * v[1], 0.0]),
                     jac=lambda v: np.array([[0.0, 2.0], [0.0, 0.0]]))
    xh = VectorField(2, lambda v: np.array([-2.0 * v[0], 0.0]),
                     jac=lambda v: np.array([[-2.0, 0.0], [0.0, 0.0]]))
    ra = RealizedAlgebra(builtin_algebra("glp:1"), (xe, xh),
                         Box([-2, 0.5], [2, 2]))
    pts = ra.box.sample_many(seeded_rng(3), 50)
    assert structure_residual(ra, pts) <= 1e-10


def test_directional_derivative_examples():
    f_p = lambda x: x[2]  # P1 on R^4 with (Q1, Q2, P1, P2)
    X = const_field(4, 0)
    assert directional_derivative(X, f_p, np.array([1.0, 2, 3, 4])) == pytest.approx(0.0, abs=1e-10)

    # leaf function annihilated by the adjoint generator
    Xe = VectorField(2, lambda v: np.array([2.0 * v[1], 0.0]))
    assert directional_derivative(Xe, lambda v: v[1], np.array([1.0, 2.0])) == pytest.approx(0.0, abs=1e-10)

    Y = VectorField(1, lambda x: np.array([x[0]]))
    assert directional_derivative(Y, lambda x: x[0] ** 2, np.array([2.0])) == pytest.approx(8.0, rel=1e-7)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_prolongation_replicates_constant_field(vals):
    X = VectorField(1, lambda x: np.array([1.0]))
    Z = diagonal_prolongation(X, 3)
    assert np.array_equal(Z(np.array(vals)), np.ones(3))


def test_prolongation_componentwise():
    X = VectorField(1, lambda x: np.array([x[0]]))
    Z = diagonal_prolongation(X, 2)
    assert np.allclose(Z(np.array([2.0, 3.0])), [2.0, 3.0])


def test_prolongation_bracket_compatibility():
    # [X^[2], Y^[2]](x1, x2) = ([X,Y](x1), [X,Y](x2)) for the Riccati pair
    x0, _, x2 = riccati_fields()
    Z0 = diagonal_prolongation(x0, 2)
    Z2 = diagonal_prolongation(x2, 2)
    joint = np.array([1.0, 2.0])
    lhs = lie_bracket_at(Z0, Z2, joint)
    rhs = np.array([
        lie_bracket_at(x0, x2, joint[:1])[0],
        lie_bracket_at(x0, x2, joint[1:])[0],
    ])
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_prolongation_morphism_on_builtin_models():
    for name in ("riccati", "hamilton_jacobi", "ermakov"):
        ra = default_model(name).system.realized
        rng = seeded_rng(7)
        fields = ra.fields
        for m in (2, 3):
            joint_box_lo = np.tile(ra.box.lo, m)
            joint_box_hi = np.tile(ra.box.hi, m)
            joint = rng.uniform(joint_box_lo, joint_box_hi)
            for a in range(len(fields)):
                for b in range(a + 1, len(fields)):
                    Za = diagonal_prolongation(fields[a], m)
                    Zb = diagonal_prolongation(fields[b], m)
                    lhs = lie_bracket_at(Za, Zb, joint)
                    n = ra.ambient_dim
                    rhs = np.concatenate([
                        lie_bracket_at(fields[a], fields[b],
                                       joint[i * n:(i + 1) * n])
                        for i in range(m)
                    ])
                    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_diagonality_defect_zero_for_prolongations():
    X = VectorField(1, lambda x: np.array([np.sin(x[0])]))
    Z = diagonal_prolongation(X, 2)
    samples = [np.array([0.3, 1.2]), np.array([-0.5, 0.7])]
    assert diagonality_defect(Z, 1, samples) == 0.0


def test_diagonality_defect_sum_of_prolongations():
    X = VectorField(1, lambda x: np.array([x[0]]))
    Y = VectorField(1, lambda x: np.array([np.cos(x[0])]))
    ZX = diagonal_prolongation(X, 2)
    ZY = diagonal_prolongation(Y, 2)
    Z = VectorField(2, lambda xi: ZX(xi) + ZY(xi))
    samples = [np.array([0.3, 1.2]), np.array([-0.5, 0.7])]
    assert diagonality_defect(Z, 1, samples) <= 1e-14


def test_diagonality_defect_detects_slot_coupling():
    X = VectorField(1, lambda x: np.array([1.0]))
    Z0 = diagonal_prolongation(X, 2)
    Z = VectorField(2, lambda xi: xi[0] * Z0(xi))  # coefficient depends on slot 1
    samples = [np.array([0.3, 1.2]), np.array([1.5, 0.7])]
    assert diagonality_defect(Z, 1, samples) > 0.1


def test_diagonality_defect_needs_samples():
    X = VectorField(1, lambda x: np.array([1.0]))
    with pytest.raises(ValueError):
        diagonality_defect(diagonal_prolongation(X, 2), 1, [np.zeros(2)])


def test_rank_translations():
    flds = [const_field(4, 0), const_field(4, 1)]
    assert rank_at(flds, np.array([0.1, 2.0, -1.0, 3.0])) == 2


def test_rank_riccati_ambient():
    assert rank_at(riccati_fields(), np.array([1.0])) == 1


def test_rank_prolonged_riccati_vandermonde():
    flds = [diagonal_prolongation(X, 3) for X in riccati_fields()]
    joint = np.array([0.0, 1.0, 2.0])
    # SVD oracle on the explicit 3x3 value matrix
    M = np.column_stack([Z(joint) for Z in flds])
    sv = np.linalg.svd(M, compute_uv=False)
    assert np.sum(sv > 1e-10 * sv[0]) == 3
    assert rank_at(flds, joint) == 3


def test_rank_on_a_block_equals_the_rank_at_each_point():
    # a field vanishing for x < 0 drops the rank there
    flds = [VectorField(2, lambda x: np.maximum(x, 0.0) * [1.0, 0.0]),
            VectorField(2, lambda x: np.ones(x.shape) * [0.0, 1.0]),
            VectorField(2, lambda x: np.zeros(x.shape))]
    pts = seeded_rng(3).uniform(-1.0, 1.0, size=(4, 5, 2))
    ranks = rank_at(flds, pts)
    assert ranks.shape == (4, 5)
    assert ranks.tolist() == [[rank_at(flds, p) for p in row] for row in pts]
    assert set(ranks.ravel()) == {1, 2}
    assert rank_at(flds[2:], pts).tolist() == np.zeros((4, 5)).tolist()


def test_rank_invariant_under_reordering():
    flds = list(riccati_fields())
    joint_flds = [diagonal_prolongation(X, 3) for X in flds]
    pt = np.array([0.4, -1.0, 0.9])
    r1 = rank_at(joint_flds, pt)
    r2 = rank_at(joint_flds[::-1], pt)
    assert r1 == r2


def test_minimal_solutions_riccati_is_three():
    bundle = riccati_system(RiccatiSpec.constant(1.0, 0.0, -1.0))
    assert minimal_particular_solutions(bundle.system.realized) == 3


def test_minimal_solutions_translation_models_are_one():
    for name in ("hamilton_jacobi", "lax"):
        ra = default_model(name).system.realized
        assert minimal_particular_solutions(ra) == 1


def test_minimal_solutions_abelian_plane():
    ra = RealizedAlgebra(builtin_algebra("abelian:2"),
                         (const_field(2, 0), const_field(2, 1)),
                         Box([-2, -2], [2, 2]))
    assert minimal_particular_solutions(ra) == 1


def test_minimal_solutions_rank_deficiency():
    # two copies of the same translation never become independent
    ra = RealizedAlgebra(builtin_algebra("abelian:2"),
                         (const_field(2, 0), const_field(2, 0)),
                         Box([-2, -2], [2, 2]))
    with pytest.raises(RankDeficiencyError):
        minimal_particular_solutions(ra, cap=4)


def test_check_jacobian_on_model_fields():
    for name in ("riccati", "ermakov"):
        ra = default_model(name).system.realized
        pts = ra.box.sample_many(seeded_rng(11), 10)
        for X in ra.fields:
            assert check_jacobian(X, pts) <= 1e-5


def test_structure_residual_builtins_at_seeded_points():
    for name in ("riccati", "hamilton_jacobi", "lax", "ermakov"):
        ra = default_model(name).system.realized
        pts = ra.box.sample_many(seeded_rng(5), 100)
        assert structure_residual(ra, pts) <= 1e-6
