import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folsys.algebra import builtin_algebra
from folsys.errors import DimensionMismatchError
from folsys.fields import (RealizedAlgebra, VectorField, directional_derivative,
                           lie_bracket_at, rank_at, structure_residual)
from folsys.util import Box, seeded_rng

from .conftest import model_bundle, split_extension


def const_field(dim, direction):
    vec = np.zeros(dim)
    vec[direction] = 1.0
    return VectorField(dim, lambda x: np.zeros(x.shape) + vec)


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


def test_bracket_on_a_block_equals_the_bracket_at_each_point():
    X1, X2, X3 = model_bundle("ermakov").system.realized.fields
    pts = seeded_rng(2).uniform([0.8, 0.8, -0.6, -0.6], [1.6, 1.6, 0.6, 0.6],
                                size=(3, 5, 4))
    for X, Y in ((X1, X2), (X1, X3), (X2, X3)):
        block = lie_bracket_at(X, Y, pts)
        per_point = np.array([[lie_bracket_at(X, Y, p) for p in row] for row in pts])
        assert block.shape == pts.shape
        assert block.tobytes() == per_point.tobytes()
    with pytest.raises(DimensionMismatchError):
        lie_bracket_at(X1, X2, pts[..., :3])


def test_glp_adjoint_realization_matches_structure():
    # fundamental fields of the adjoint flow: 2 v^2 d/dv1 and -2 v^1 d/dv1
    xe = VectorField(2, lambda v: v[..., ::-1] * [2.0, 0.0])
    xh = VectorField(2, lambda v: v * [-2.0, 0.0])
    ra = RealizedAlgebra(split_extension(), (xe, xh),
                         Box([-2, 0.5], [2, 2]))
    pts = ra.box.sample_many(seeded_rng(3), 50)
    # the fields are linear, so the value-only bracket is exact but for the
    # roundoff of its differences, of order eps |X| / h, below 1e-9 here
    assert structure_residual(ra, pts) <= 1e-8


def test_directional_derivative_examples():
    f_p = lambda x: x[2]  # P1 on R^4 with (Q1, Q2, P1, P2)
    X = const_field(4, 0)
    assert directional_derivative(X, f_p, np.array([1.0, 2, 3, 4])) == pytest.approx(0.0, abs=1e-10)

    # leaf function annihilated by the adjoint generator
    Xe = VectorField(2, lambda v: np.array([2.0 * v[1], 0.0]))
    assert directional_derivative(Xe, lambda v: v[1], np.array([1.0, 2.0])) == pytest.approx(0.0, abs=1e-10)

    Y = VectorField(1, lambda x: np.array([x[0]]))
    assert directional_derivative(Y, lambda x: x[0] ** 2, np.array([2.0])) == pytest.approx(8.0, rel=1e-7)


# A field acts on the last axis, so its values on a block (P, m, N) of
# points, reshaped to (P, m*N), are its m-fold diagonal prolongation; the
# bracket of two prolongations is then the prolongation of their bracket by
# construction, and only the values need checking.

@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_prolongation_replicates_constant_field(vals):
    X = model_bundle("riccati").system.realized.fields[0]
    assert np.array_equal(X(np.array(vals)[:, None]).reshape(3), np.ones(3))


@pytest.mark.parametrize("lead", [(), (2, 5)])
def test_a_constant_field_fills_the_bytes_of_ones_times_its_value(lead):
    # signed zeros, infinities and a nan of each sign, on (N,) and (B, K, N)
    value = np.array([0.0, -0.0, np.inf, -np.inf, np.nan,
                      np.copysign(np.nan, -1.0), 1.5, -2.25])
    X = VectorField.constant(value)
    x = np.zeros(lead + value.shape)
    got = X(x)
    assert got.tobytes() == (np.ones(x.shape) * value).tobytes()
    # a fresh writable array: no view of the read-only value or of x
    assert not np.shares_memory(got, X.value) and not np.shares_memory(got, x)
    got[...] = 7.0
    assert X(x).tobytes() == (np.ones(x.shape) * value).tobytes()


def test_prolongation_componentwise():
    for name in ("riccati", "hamilton_jacobi", "lax", "ermakov"):
        ra = model_bundle(name).system.realized
        n = ra.ambient_dim
        block = ra.box.sample_many(seeded_rng(7), 12).reshape(4, 3, n)
        for X in ra.fields:
            per_copy = np.concatenate([X(block[:, i]) for i in range(3)], axis=-1)
            assert X(block).reshape(4, 3 * n).tobytes() == per_copy.tobytes()


def test_rank_translations():
    flds = [const_field(4, 0), const_field(4, 1)]
    assert rank_at(flds, np.array([0.1, 2.0, -1.0, 3.0])) == 2


def test_rank_riccati_ambient():
    assert rank_at(riccati_fields(), np.array([1.0])) == 1


def test_rank_prolonged_riccati_vandermonde():
    flds = model_bundle("riccati").system.realized.fields
    block = np.array([[0.0], [1.0], [2.0]])
    values = [X(block).reshape(3) for X in flds]
    # SVD oracle on the explicit 3x3 value matrix
    M = np.column_stack(values)
    sv = np.linalg.svd(M, compute_uv=False)
    assert np.sum(sv > 1e-10 * sv[0]) == 3
    assert rank_at(flds, block.reshape(3), values=values) == 3


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
    flds = model_bundle("riccati").system.realized.fields
    block = np.array([[0.4], [-1.0], [0.9]])
    values = [X(block).reshape(3) for X in flds]
    r1 = rank_at(flds, block.reshape(3), values=values)
    r2 = rank_at(flds[::-1], block.reshape(3), values=values[::-1])
    assert r1 == r2 == 3


def test_minimal_solutions_riccati_is_three(minimal_solutions):
    assert minimal_solutions(model_bundle("riccati").system.realized) == 3


def test_minimal_solutions_translation_models_are_one(minimal_solutions):
    for name in ("hamilton_jacobi", "lax"):
        ra = model_bundle(name).system.realized
        assert minimal_solutions(ra) == 1


def test_minimal_solutions_abelian_plane(minimal_solutions):
    ra = RealizedAlgebra(builtin_algebra("abelian:2"),
                         (const_field(2, 0), const_field(2, 1)),
                         Box([-2, -2], [2, 2]))
    assert minimal_solutions(ra) == 1


def test_minimal_solutions_rank_deficiency(minimal_solutions):
    # two copies of the same translation never become independent
    ra = RealizedAlgebra(builtin_algebra("abelian:2"),
                         (const_field(2, 0), const_field(2, 0)),
                         Box([-2, -2], [2, 2]))
    assert minimal_solutions(ra, cap=4) is None


def test_structure_residual_builtins_at_seeded_points():
    for name in ("riccati", "hamilton_jacobi", "lax", "ermakov"):
        ra = model_bundle(name).system.realized
        pts = ra.box.sample_many(seeded_rng(5), 100)
        assert structure_residual(ra, pts) <= 1e-6
