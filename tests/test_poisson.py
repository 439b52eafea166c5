import dataclasses
import functools
import itertools

import numpy as np
import pytest

from folsys.algebra import (InvariantMetric, builtin_algebra, killing_form)
from folsys.errors import DimensionMismatchError
from folsys.fields import VectorField, lie_bracket_at, structure_residual
from folsys.foliated import assemble, leaf_of
from folsys.poisson import (PoissonBivector, adjoint_foliated_system,
                            aff_right_invariant_fields,
                            check_rmatrix_hamiltonian, hamiltonian_residual,
                            is_foliated_lie_hamilton,
                            jacobiator, kirillov_bivector, linear_coordinates,
                            poisson_bracket, rmatrix_bivector_aff,
                            rmatrix_hamiltonians)
from folsys.util import (FuncWithGrad, coordinate_function, linear_form,
                         seeded_rng)

from .conftest import model_bundle, split_extension


def sl2_setup():
    sl2 = builtin_algebra("sl2")
    metric = InvariantMetric(sl2, killing_form(sl2))
    return sl2, metric, kirillov_bivector(sl2, metric)


def test_kirillov_linear_coordinate_identity():
    sl2, metric, L = sl2_setup()
    lin = linear_coordinates(metric)
    c = sl2.structure
    pts = seeded_rng(1).uniform(-2, 2, size=(100, 3))
    worst = 0.0
    for v in pts:
        for a in range(3):
            for b in range(3):
                lhs = poisson_bracket(L.at(v), lin[a], lin[b])
                rhs = sum(c[a, b, g] * lin[g](v) for g in range(3))
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_kirillov_bracket_hand_values():
    _, metric, L = sl2_setup()
    f_e, f_h, f_f = linear_coordinates(metric)
    # {f_h, f_e} = 2 f_e; at the basis point f: f_e(f) = K(e, f) = 4
    v_f = np.array([0.0, 0.0, 1.0])
    assert poisson_bracket(L.at(v_f), f_h, f_e) == pytest.approx(8.0, abs=1e-12)
    # at the basis point e: f_e(e) = K(e, e) = 0
    v_e = np.array([1.0, 0.0, 0.0])
    assert poisson_bracket(L.at(v_e), f_h, f_e) == pytest.approx(0.0, abs=1e-12)


def test_bracket_of_function_with_itself_vanishes():
    _, metric, L = sl2_setup()
    lin = linear_coordinates(metric)
    pts = seeded_rng(2).uniform(-2, 2, size=(20, 3))
    for v in pts:
        for f in lin:
            assert poisson_bracket(L.at(v), f, f) == 0.0


def test_kirillov_rejects_degenerate_metric():
    # the split extension [h, e] = 2 e: its Killing form diag(0, 4) is singular
    alg = split_extension()
    from folsys.errors import MetricError
    with pytest.raises(MetricError):
        InvariantMetric(alg, killing_form(alg))


def test_abelian_kirillov_is_zero_bivector():
    ab = builtin_algebra("abelian:3")
    metric = InvariantMetric(ab, np.eye(3))  # any metric is invariant here
    L = kirillov_bivector(ab, metric)
    assert np.all(L.matrix(np.array([0.3, -1.0, 2.0])) == 0.0)


def test_kirillov_jacobiator_coordinate_triples():
    _, _, L = sl2_setup()
    coords = [coordinate_function(i, 3) for i in range(3)]
    pts = seeded_rng(3).uniform(-2, 2, size=(100, 3))
    worst = max(abs(jacobiator(L.at(v), coords[0], coords[1], coords[2]))
                for v in pts)
    assert worst <= 1e-10


def test_adjoint_fields_are_hamiltonian_for_linear_candidates():
    sl2, metric, L = sl2_setup()
    adj = adjoint_foliated_system(sl2, metric)
    lin = linear_coordinates(metric)
    pts = adj.box.sample_many(seeded_rng(4), 100)
    for X, f in zip(adj.fields, lin):
        # X_f = -i_{df} Lambda
        assert hamiltonian_residual(L.at(pts), X, f) <= 1e-8


def test_wrong_candidate_has_large_residual():
    sl2, metric, L = sl2_setup()
    adj = adjoint_foliated_system(sl2, metric)
    lin = linear_coordinates(metric)
    pts = adj.box.sample_many(seeded_rng(5), 30)
    assert hamiltonian_residual(L.at(pts), adj.fields[0], lin[1]) > 0.1


def test_metric_invariance_index_identity():
    # sum_d c[a,b,d] g[d,c] = -sum_d c[g,b,d] g[d,a] for the Killing metric
    sl2, metric, _ = sl2_setup()
    c = sl2.structure
    lhs = np.einsum("abd,dc->abc", c, metric.g)
    rhs = -np.einsum("cbd,da->abc", c, metric.g)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_adjoint_foliated_structure_and_brackets():
    sl2, metric, _ = sl2_setup()
    adj = adjoint_foliated_system(sl2, metric)
    pts = adj.box.sample_many(seeded_rng(6), 30)
    # the fields are linear, so the value-only bracket is exact but for the
    # roundoff of its differences, of order eps |X| / h, below 1e-9 here
    assert structure_residual(adj.algebra, adj.fields, pts) <= 1e-8


def test_foliated_lie_hamilton_adjoint_true():
    sl2, metric, L = sl2_setup()
    adj = adjoint_foliated_system(sl2, metric)
    residuals = is_foliated_lie_hamilton(adj, L, linear_coordinates(metric),
                                         trials=100, seed=42)
    assert len(residuals) == 3
    assert max(residuals) <= 1e-8


def test_foliated_lie_hamilton_zero_bivector_false():
    hj = model_bundle("hamilton_jacobi")
    zero = PoissonBivector(4, lambda x: np.zeros((4, 4)),
                           dcoeff=lambda x: np.zeros((4, 4, 4)))
    candidates = [linear_form(np.eye(4)[i]) for i in range(2)]
    # the zero bivector has only the zero Hamiltonian field: the residual is
    # the size of each unit translation field
    assert is_foliated_lie_hamilton(hj.system, zero, candidates, trials=20) == (1.0, 1.0)


def test_foliated_lie_hamilton_fails_a_field_of_the_opposite_sign():
    sl2, metric, L = sl2_setup()
    adj = adjoint_foliated_system(sl2, metric)
    X = adj.fields[0]
    negated = dataclasses.replace(X, func=lambda v: -X.func(v))
    residuals = is_foliated_lie_hamilton(
        dataclasses.replace(adj, fields=(negated,) + adj.fields[1:]), L,
        linear_coordinates(metric), trials=100, seed=42)
    assert residuals[0] > 1.0  # |X + i_{df} Lambda| = 2 |X|
    assert max(residuals[1:]) <= 1e-8


def test_rmatrix_bivector_coefficients():
    L = rmatrix_bivector_aff(1)
    M = L.matrix(np.array([1.0, 0.0]))
    assert np.array_equal(M, np.array([[0.0, -2.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        L.matrix(np.array([-1.0, 0.0]))


def _aff_h_field(n):
    """X^R_h = 2a d/da + 2b d/db of the first of n affine factors."""
    return VectorField(2 * n, lambda x: 2.0 * x * (np.arange(2 * n) < 2))


def test_rmatrix_right_invariant_fields_bracket():
    (X_e,) = aff_right_invariant_fields(1)
    X_h = _aff_h_field(1)
    rng = seeded_rng(7)
    for _ in range(20):
        x = np.array([rng.uniform(0.5, 2.0), rng.uniform(-1, 1)])
        # right-invariant fields realize the opposite-sign bracket:
        # [X_h, X_e] = -2 X_e
        br = lie_bracket_at(X_h, X_e, x)
        assert np.max(np.abs(br + 2.0 * X_e(x))) <= 1e-8


def _special_blocks(rng, dim):
    """Blocks ``(P, dim)`` of random values with ±0, ±inf and nan entries."""
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    for shape in ((dim,), (40, dim), (2, 30, dim)):
        x = rng.uniform(-2.0, 2.0, size=shape)
        mask = rng.uniform(size=shape) < 0.4
        x[mask] = rng.choice(special, size=mask.sum())
        yield x


def test_poisson_fields_are_declared():
    """X^R_e is the constant field e_{2i+1} and each adjoint field the linear
    field -ad_a, with the values of the closures they replaced."""
    from folsys.algebra import adjoint_matrix
    from folsys.util import matvec

    rng = seeded_rng(15)
    for n in (1, 2, 3):
        for i, X in enumerate(aff_right_invariant_fields(n)):
            assert np.array_equal(X.value, np.eye(2 * n)[2 * i + 1])
            for x in _special_blocks(rng, 2 * n):
                closure = np.zeros(x.shape)
                closure[..., 2 * i + 1] = 1.0
                assert X(x).tobytes() == closure.tobytes()
    ab = builtin_algebra("abelian:3")
    sl2, metric, _ = sl2_setup()
    for alg, g in ((sl2, metric), (ab, InvariantMetric(ab, np.eye(3)))):
        for a, X in enumerate(adjoint_foliated_system(alg, g).fields):
            ad = adjoint_matrix(alg, a)
            assert np.array_equal(X.matrix, -ad)
            for x in _special_blocks(rng, 3):
                with np.errstate(invalid="ignore"):  # inf * 0 in both
                    value, closure = X(x), -matvec(ad, x)
                # equal up to the sign of zero, which every row reads through |.|
                assert np.array_equal(value, closure, equal_nan=True)


def test_rmatrix_jacobiator_two_factors():
    L = rmatrix_bivector_aff(2)
    rng = seeded_rng(8)
    coords = [coordinate_function(i, 4) for i in range(4)]
    worst = 0.0
    for _ in range(100):
        x = np.array([rng.uniform(0.5, 2), rng.uniform(-1, 1),
                      rng.uniform(0.5, 2), rng.uniform(-1, 1)])
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(j + 1, 4):
                    worst = max(worst, abs(jacobiator(L.at(x), coords[i], coords[j],
                                                      coords[k])))
    assert worst <= 1e-10


def test_rmatrix_hamiltonian_checks():
    rng = seeded_rng(9)
    pts = np.column_stack([rng.uniform(0.5, 2, 40), rng.uniform(-1, 1, 40),
                           rng.uniform(0.5, 2, 40), rng.uniform(-1, 1, 40)])
    residuals = check_rmatrix_hamiltonian(2, pts)
    assert len(residuals) == 2
    assert max(residuals) <= 1e-8

    # a wrong candidate fails loudly
    L = rmatrix_bivector_aff(1)
    flds = aff_right_invariant_fields(1)
    b_coord = coordinate_function(1, 2)
    res = hamiltonian_residual(L.at(pts[:10, :2]), flds[0], b_coord)
    assert res > 0.1


# ---------------------------------------------------------------------------
# Blocks of points: the same values as a per-point loop, bit for bit.
# ---------------------------------------------------------------------------

def _quadratic(dim):
    """Nonlinear candidate with an analytic gradient and Hessian."""
    w = np.linspace(0.5, 1.5, dim)
    hess = np.diag(w)
    hess[0, 1] = hess[1, 0] = 1.0

    def grad(x):
        g = w * x
        g[..., 0] += x[..., 1]
        g[..., 1] += x[..., 0]
        return g

    return FuncWithGrad(lambda x: 0.5 * np.sum(w * x * x, axis=-1) + x[..., 0] * x[..., 1],
                        grad, hess=lambda x: hess, name="quadratic")


def _rmatrix_points(rng, rows):
    return np.column_stack([rng.uniform(0.5, 2.0, rows), rng.uniform(-1.0, 1.0, rows),
                            rng.uniform(0.5, 2.0, rows), rng.uniform(-1.0, 1.0, rows)])


def _block_cases():
    """(name, bivector, candidates, field/candidate pairs, block)."""
    sl2, metric, L = sl2_setup()
    adj = adjoint_foliated_system(sl2, metric)
    lin = linear_coordinates(metric)
    kir_pts = seeded_rng(11).uniform(-2.0, 2.0, size=(40, 3))
    kir_cands = [coordinate_function(i, 3) for i in range(3)] + lin + [_quadratic(3)]
    kir_pairs = list(zip(adj.fields, lin))
    Lr = rmatrix_bivector_aff(2)
    aff_pts = _rmatrix_points(seeded_rng(12), 40)
    aff_cands = [coordinate_function(i, 4) for i in range(4)] + [_quadratic(4)]
    aff_pairs = list(zip(aff_right_invariant_fields(2), rmatrix_hamiltonians(2)))
    aff_pairs.append((_aff_h_field(2), aff_cands[0]))
    return [("kirillov", L, kir_cands, kir_pairs, kir_pts),
            ("rmatrix", Lr, aff_cands, aff_pairs, aff_pts)]


def _hamiltonian_residual_per_point(L, X, f, samples):
    """The per-point loop the block evaluation replaced."""
    worst = 0.0
    for x in samples:
        hf = L.matrix(x) @ f.gradient(x)
        worst = max(worst, float(np.max(np.abs(X(x) + hf))))
    return worst


@pytest.mark.parametrize("case", _block_cases(), ids=lambda c: c[0])
def test_block_evaluation_equals_the_per_point_loop_bitwise(case):
    _, L, cands, pairs, pts = case
    assert L.matrix(pts).shape == (len(pts), L.dim, L.dim)
    assert L.derivative(pts).shape[-3:] == (L.dim,) * 3
    for f in cands:
        for g in cands:
            block = poisson_bracket(L.at(pts), f, g)
            loop = np.array([poisson_bracket(L.at(x), f, g) for x in pts])
            assert block.tobytes() == loop.tobytes()
    quadratic = cands[-1]
    for triple in ((cands[0], cands[1], cands[2]), (quadratic, cands[1], cands[0])):
        block = jacobiator(L.at(pts), *triple)
        loop = np.array([jacobiator(L.at(x), *triple) for x in pts])
        assert block.tobytes() == loop.tobytes()
    for X, f in pairs:
        assert (hamiltonian_residual(L.at(pts), X, f)
                == _hamiltonian_residual_per_point(L, X, f, pts))


def test_block_results_keep_the_block_shape_for_constant_terms():
    # constant bivector and linear candidates: nothing depends on x
    L = PoissonBivector(2, lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]),
                        dcoeff=lambda x: np.zeros((2, 2, 2)))
    f, g = coordinate_function(0, 2), coordinate_function(1, 2)
    pts = np.ones((5, 2))
    assert np.array_equal(poisson_bracket(L.at(pts), f, g), np.ones(5))
    assert np.array_equal(jacobiator(L.at(pts), f, g, f), np.zeros(5))
    assert poisson_bracket(L.at(pts[0]), f, g) == 1.0


def test_bivector_of_wrong_shape_raises():
    pts = np.ones((4, 2))
    for coeff in (lambda x: np.zeros((3, 2, 2)), lambda x: np.zeros(2)):
        with pytest.raises(DimensionMismatchError):
            PoissonBivector(2, coeff, lambda x: np.zeros((2, 2, 2))).matrix(pts)
    bad = PoissonBivector(2, lambda x: np.zeros((2, 2)), dcoeff=lambda x: np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        bad.derivative(pts)


def test_rmatrix_parts_are_built_once_per_n_as_tuples():
    for build in (rmatrix_bivector_aff, aff_right_invariant_fields, rmatrix_hamiltonians):
        assert build(2) is build(2) and build(1) is not build(2)
    assert type(aff_right_invariant_fields(2)) is type(rmatrix_hamiltonians(2)) is tuple


def test_rmatrix_domain_guard_tests_every_row_of_a_block():
    L = rmatrix_bivector_aff(2)
    pts = _rmatrix_points(seeded_rng(13), 6)
    pts[:, 1::2] = -np.abs(pts[:, 1::2])  # every b_i negative: still valid
    M = L.matrix(pts)
    for x, row in zip(pts, M):
        assert row.tobytes() == L.matrix(x).tobytes()
    bad = pts.copy()
    bad[3, 2] = -0.5  # a_2 of the point in the odd row 3
    with pytest.raises(ValueError):
        L.matrix(bad)


def test_adjoint_system_takes_blocks_row_by_row():
    sl2, metric, _ = sl2_setup()
    fs = adjoint_foliated_system(sl2, metric)
    block = np.array([[1.0, 0.7, 1.3], [0.6, 1.4, 0.9]])
    F = assemble(fs)
    evaluations = [lambda v: fs.coeffs(0.4, v), lambda v: leaf_of(fs.chart, v),
                   lambda v: F(0.4, v), *fs.fields]
    for fn in evaluations:
        rows = np.asarray(fn(block))
        assert rows.shape[0] == 2
        for x, row in zip(block, rows):
            assert row.tobytes() == np.asarray(fn(x)).tobytes()


def test_battery_builds_its_setup_once_and_evaluates_each_bivector_a_fixed_number_of_times(
        monkeypatch):
    import folsys.cli as cli
    import folsys.poisson as poisson

    counts = {}

    def counted(name, fn):
        def call(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return call

    def counting(build):
        def wrapped(*args):
            B = build(*args)
            counts[("build", B.name)] = counts.get(("build", B.name), 0) + 1
            return PoissonBivector(B.dim, counted(("coeff", B.name), B.coeff),
                                   counted(("dcoeff", B.name), B.dcoeff), B.name)
        return wrapped

    monkeypatch.setattr(cli, "builtin_algebra", counted("sl2", cli.builtin_algebra))
    monkeypatch.setattr(cli, "kirillov_bivector", counting(kirillov_bivector))
    # cached, as rmatrix_bivector_aff is: the battery and
    # check_rmatrix_hamiltonian share one bivector
    rmatrix = functools.cache(counting(rmatrix_bivector_aff))
    monkeypatch.setattr(cli, "rmatrix_bivector_aff", rmatrix)
    monkeypatch.setattr(poisson, "rmatrix_bivector_aff", rmatrix)
    cli._poisson_setup.cache_clear()  # built afresh, from the counted builders
    try:
        for seed in (3, 4):
            scenario = cli.Scenario(cli.ScenarioConfig(model="lax", seed=seed), None, None, None)
            rows = [row for group in cli.CHECKS["poisson"].rows(scenario) for row in group]
            assert len(rows) == 5
            assert all(value <= cli.ROWS[row][0] for row, value in rows)
    finally:
        cli._poisson_setup.cache_clear()
    # one setup for both scenarios, and per scenario one Lambda per block of
    # points: kirillov on the bracket and Jacobiator block and on the adjoint
    # samples, the r-matrix on the Jacobiator block and on the Hamiltonian
    # samples; one derivative per Jacobiator block
    assert counts == {"sl2": 1, ("build", "kirillov"): 1, ("build", "rmatrix-aff2"): 1,
                      ("coeff", "kirillov"): 4, ("dcoeff", "kirillov"): 2,
                      ("coeff", "rmatrix-aff2"): 4, ("dcoeff", "rmatrix-aff2"): 2}


def _battery_per_call(seed):
    """The poisson battery's five values from one call of poisson_bracket per
    pair, jacobiator per triple and hamiltonian_residual per field, each
    evaluating the bivector afresh."""
    rng = seeded_rng(seed)
    sl2, metric, L = sl2_setup()
    lin = linear_coordinates(metric)
    c = sl2.structure
    pts = rng.uniform(-2.0, 2.0, size=(100, 3))
    identity = 0.0
    for a in range(3):
        for b in range(3):
            rhs = sum(c[a, b, g] * lin[g](pts) for g in range(3))
            gap = poisson_bracket(L.at(pts), lin[a], lin[b]) - rhs
            identity = max(identity, float(np.max(np.abs(gap))))
    coords = [coordinate_function(i, 3) for i in range(3)]
    kirillov_jacobi = float(np.max(np.abs(jacobiator(L.at(pts), *coords))))
    adj = adjoint_foliated_system(sl2, metric)
    samples = adj.box.sample_many(seeded_rng(seed), 100)
    adjoint = max(hamiltonian_residual(L.at(samples), X, f)
                  for X, f in zip(adj.fields, lin))
    aff_pts = _rmatrix_points(rng, 100)
    Lr = rmatrix_bivector_aff(2)
    coords4 = [coordinate_function(i, 4) for i in range(4)]
    rmatrix_jacobi = max(float(np.max(np.abs(jacobiator(Lr.at(aff_pts), *triple))))
                         for triple in itertools.combinations(coords4, 3))
    rmatrix_ham = max(hamiltonian_residual(Lr.at(aff_pts[:50]), X, f)
                      for X, f in zip(aff_right_invariant_fields(2), rmatrix_hamiltonians(2)))
    return [identity, kirillov_jacobi, adjoint, rmatrix_jacobi, rmatrix_ham]


def test_battery_rows_equal_the_per_call_formulas_bitwise():
    import folsys.cli as cli

    for seed in range(20):
        scenario = cli.Scenario(cli.ScenarioConfig(model="lax", seed=seed), None, None, None)
        rows = [value for group in cli.CHECKS["poisson"].rows(scenario)
                for _, value in group]
        assert np.array(rows).tobytes() == np.array(_battery_per_call(seed)).tobytes(), seed
