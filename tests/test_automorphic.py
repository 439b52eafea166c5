import dataclasses
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

import folsys.automorphic
from folsys.automorphic import (ABELIAN, MATRIX, GroupAction, _expm,
                                fundamental_field_residual, reconstruct,
                                reconstruction_error, reduce_system,
                                solve_abelian, solve_matrix)
from folsys.errors import (BlowUpError, ConfigError, DimensionMismatchError,
                           DomainExitError, IncompatibleActionError)
from folsys.fields import TDependentVectorField
from folsys.foliated import assemble, leaf_of
from folsys.integrate import Trajectory, integrate
from folsys.models import (ErmakovSpec, HamiltonJacobiSpec, ermakov_matrix_action,
                           ermakov_system, hj_system, lax_system, sum_cos_spec)
from folsys.util import seeded_rng

from .conftest import SPLIT_MATRICES, group_action, model_bundle


def test_action_axioms_hold_for_models():
    for name in ("hamilton_jacobi", "lax"):
        bundle = model_bundle(name)
        act = bundle.action.act
        pts = bundle.system.realized.box.sample_many(seeded_rng(1), 10)
        assert np.array_equal(act(bundle.action.identity, pts), pts)
        # the group is R^n under addition
        g, h = seeded_rng(2).uniform(-0.5, 0.5, size=(2, 2))
        assert np.max(np.abs(act(g + h, pts) - act(g, act(h, pts)))) <= 1e-12


def test_fundamental_field_gate_matches_models():
    for name in ("hamilton_jacobi", "lax"):
        bundle = model_bundle(name)
        pts = bundle.system.realized.box.sample_many(seeded_rng(2), 20)
        res = fundamental_field_residual(bundle.action,
                                         bundle.system.realized.fields, pts)
        assert res <= 1e-8


def _fundamental_field_residual_per_point(action, fields, points):
    """The loop that computed both exponentials at every point."""
    worst = 0.0
    for x in points:
        for a, X in enumerate(fields):
            gp, gm = action.exp(1e-6, a), action.exp(-1e-6, a)
            d = (action.act(gp, x) - action.act(gm, x)) / (2.0 * 1e-6)
            worst = max(worst, float(np.max(np.abs(d + X(x)))))
    return worst


def test_fundamental_field_residual_computes_each_exponential_once(monkeypatch):
    spec = ErmakovSpec(omega2=lambda t, I: 1.0, c1=0.0, c2=0.0)
    cases = [(model_bundle(name).action, model_bundle(name).system)
             for name in ("hamilton_jacobi", "lax")]
    cases.append((ermakov_matrix_action(spec), ermakov_system(spec).system))
    for action, fs in cases:
        pts = fs.realized.box.sample_many(seeded_rng(3), 25)
        ref = _fundamental_field_residual_per_point(action, fs.realized.fields, pts)
        calls, acts = [], []
        exp = GroupAction.exp
        monkeypatch.setattr(GroupAction, "exp",
                            lambda self, c, i: calls.append(i) or exp(self, c, i))
        # and one act call per element on the whole block
        counted = dataclasses.replace(
            action, act=lambda g, x, act=action.act: acts.append(g) or act(g, x))
        res = fundamental_field_residual(counted, fs.realized.fields, pts)
        monkeypatch.undo()
        assert len(calls) == len(acts) == 2 * len(fs.realized.fields)
        assert res == ref


def test_gate_residual_keeps_a_nan_field():
    bundle = model_bundle("hamilton_jacobi")
    fs = bundle.system
    nan_field = dataclasses.replace(fs.realized.fields[0],
                                    func=lambda x: np.full(x.shape, np.nan))
    realized = dataclasses.replace(
        fs.realized, fields=(nan_field,) + fs.realized.fields[1:])
    pts = realized.box.sample_many(seeded_rng(3), 25)
    assert np.isnan(fundamental_field_residual(bundle.action, realized.fields, pts))
    with pytest.raises(IncompatibleActionError):
        reduce_system(dataclasses.replace(fs, realized=realized), bundle.action)


def test_reduce_rejects_a_nan_gate_residual(monkeypatch):
    bundle = model_bundle("hamilton_jacobi")
    monkeypatch.setattr(folsys.automorphic, "fundamental_field_residual",
                        lambda action, fields, points: float("nan"))
    with pytest.raises(IncompatibleActionError, match="residual nan"):
        reduce_system(bundle.system, bundle.action)


def test_reduce_rejects_sign_flipped_action():
    bundle = model_bundle("hamilton_jacobi")
    n = 2

    def flipped(lam, x):
        out = np.asarray(x, dtype=float).copy()
        out[..., :n] = out[..., :n] + np.asarray(lam, dtype=float)
        return out

    bad = GroupAction(kind=ABELIAN, act=flipped, identity=np.zeros(n),
                      generators=tuple(np.eye(n)))
    with pytest.raises(IncompatibleActionError):
        reduce_system(bundle.system, bad)


# --- the matrix exponential against scipy's ----------------------------------

def test_expm_matches_scipy_on_random_matrices():
    rng = seeded_rng(11)
    for n in (2, 3):
        # 1-norms from 1e-8 to 6, so that 0 to 3 squarings run
        for norm in np.geomspace(1e-8, 6.0, 200):
            A = rng.standard_normal((n, n))
            A *= norm / np.abs(A).sum(axis=0).max()
            expected = scipy.linalg.expm(A)
            err = np.max(np.abs(_expm(A) - expected)) / np.max(np.abs(expected))
            assert err <= 1e-12, (n, norm)


def test_expm_of_zero_is_the_identity():
    for n in (1, 2, 3):
        assert np.array_equal(_expm(np.zeros((n, n))), np.eye(n))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_expm_of_a_non_finite_entry_is_non_finite_without_a_warning(value):
    A = np.array([[0.0, -1.0], [0.5, 0.0]])
    for i, j in np.ndindex(A.shape):
        bad = A.copy()
        bad[i, j] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = _expm(bad)
        assert not np.isfinite(result).all()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_reduce_rejects_a_non_finite_generator(value):
    spec = ErmakovSpec(omega2=lambda t, I: 1.0, c1=0.0, c2=0.0)
    action = ermakov_matrix_action(spec)
    A = action.generators[1].copy()
    A[0, 0] = value
    bad = dataclasses.replace(action, generators=(action.generators[0], A,
                                                  action.generators[2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IncompatibleActionError, match="residual nan"):
            reduce_system(ermakov_system(spec).system, bad)


def test_reduce_hj_coefficients_are_hamiltonian_gradient():
    hj = hj_system(sum_cos_spec(2))
    coeffs = reduce_system(hj.system, hj.action)
    assert hj.action.kind == ABELIAN
    rng = seeded_rng(3)
    for _ in range(20):
        t = float(rng.uniform(0, 2))
        k = rng.uniform(0.5, 2.0, size=2)
        expected = -t * np.sin(t * k)  # dH/dP for H = sum cos(t P)
        got = coeffs(t, k)
        assert np.allclose(got, expected, atol=1e-12)


def test_reduce_lax_coefficients_are_leaf_gradient():
    spec = sum_cos_spec(2)
    lax = lax_system(spec)
    coeffs = reduce_system(lax.system, lax.action)
    rng = seeded_rng(3)
    for _ in range(20):
        t = float(rng.uniform(0, 2))
        k = rng.uniform(0.5, 2.0, size=2)
        got = coeffs(t, k)
        assert np.allclose(got, -t * np.sin(t * k), atol=1e-12)


def test_shared_reduction_coefficients_pointwise_equal():
    # the Hamiltonian and block models with matched data reduce to the same
    # translation coefficients under the leaf identification
    spec = sum_cos_spec(2)
    hj = hj_system(spec)
    lax = lax_system(spec)
    hj_red = reduce_system(hj.system, hj.action)
    lax_red = reduce_system(lax.system, lax.action)
    rng = seeded_rng(13)
    for _ in range(30):
        t = float(rng.uniform(0, 2))
        k = rng.uniform(0.5, 2.0, size=2)
        assert np.max(np.abs(hj_red(t, k) - lax_red(t, k))) <= 1e-12


def test_solve_abelian_quadrature_cos_hamiltonian():
    hj = hj_system(sum_cos_spec(1))
    coeffs = reduce_system(hj.system, hj.action)
    curve = solve_abelian(hj.action, coeffs, np.array([1.0]), 0.0, np.pi, 1e-3)
    # closed form: integral of -t sin t over [0, pi] is -pi
    assert curve.states[-1, 0] == pytest.approx(-np.pi, abs=1e-10)
    rec = reconstruct(hj.action, curve, np.array([0.0, 1.0]))
    assert rec.final_state[0] == pytest.approx(np.pi, abs=1e-8)


def test_solve_abelian_zero_coefficients_identity():
    curve = solve_abelian(group_action(ABELIAN, np.eye(2)), lambda t, k: -np.zeros(2),
                          np.zeros(0), 0.0, 1.0, 1e-2)
    assert np.all(curve.states == 0.0)


def test_reduced_coefficient_map_of_wrong_shape_raises():
    for kind, gens, solve in ((ABELIAN, tuple(np.eye(2)), solve_abelian),
                              (MATRIX, (np.eye(2), np.eye(2)), solve_matrix)):
        with pytest.raises(DimensionMismatchError):
            solve(group_action(kind, gens), lambda t, k: -np.ones(1),
                  np.zeros(0), 0.0, 1.0, 1e-2)


def test_solve_abelian_constant_gradient():
    # H = P^2/2 at P = 3: lambda(1) = 3, reconstruction Q(1) = Q(0) - 3
    spec = HamiltonJacobiSpec(1, H=lambda t, P: float(P[0] ** 2) / 2.0,
                              dH=lambda t, P: P.copy())
    hj = hj_system(spec)
    coeffs = reduce_system(hj.system, hj.action)
    curve = solve_abelian(hj.action, coeffs, np.array([3.0]), 0.0, 1.0, 1e-3)
    assert curve.states[-1, 0] == pytest.approx(3.0, abs=1e-12)
    rec = reconstruct(hj.action, curve, np.array([0.0, 3.0]))
    assert rec.final_state[0] == pytest.approx(-3.0, abs=1e-10)
    direct = integrate(assemble(hj.system), np.array([0.0, 3.0]), 0.0, 1.0, 1e-3)
    assert np.max(np.abs(rec.states - direct.states)) <= 1e-10


def test_solve_matrix_affine_exponentials():
    e1, h1 = SPLIT_MATRICES
    curve = solve_matrix(group_action(MATRIX, (e1,)), lambda t, k: -np.ones(1),
                         np.zeros(0), 0.0, 1.0, 1e-3)
    # nilpotent generator: RK4 step polynomial equals the exponential exactly
    assert np.array_equal(curve.states[-1].reshape(2, 2), np.array([[1.0, -1.0], [0.0, 1.0]]))

    curve_h = solve_matrix(group_action(MATRIX, (h1,)), lambda t, k: -np.ones(1),
                           np.zeros(0), 0.0, 1.0, 1e-3)
    expected = scipy.linalg.expm(-h1)
    g = curve_h.states[-1].reshape(2, 2)
    assert np.max(np.abs(g - expected)) <= 1e-10
    assert np.max(np.abs(g - np.diag([np.exp(-2.0), 1.0]))) <= 1e-10


def test_solve_matrix_zero_coefficients_identity():
    curve = solve_matrix(group_action(MATRIX, SPLIT_MATRICES), lambda t, k: -np.zeros(2),
                         np.zeros(0), 0.0, 1.0, 1e-2)
    assert np.all(curve.states.reshape(-1, 2, 2) == np.eye(2))


def test_solve_matrix_errors_carry_partial():
    # g' = -c g: c < 0 overflows the entries, c > 0 collapses the determinant
    for coeff, error in ((-1e3, BlowUpError), (100.0, DomainExitError)):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error) as exc:
                solve_matrix(group_action(MATRIX, (np.eye(2),)),
                             lambda t, k, _c=coeff: np.array([-_c]),
                             np.zeros(0), 0.0, 1.0, 1e-3)
        partial = exc.value.partial
        assert partial is not None
        assert partial.states.shape[1:] == (4,)
        assert np.all(np.isfinite(partial.states))


def test_solve_matrix_blows_up_before_a_later_coefficient_error():
    # g' = 1e3 g overflows near t = 0.70; the coefficients cannot be
    # evaluated from t = 0.9 on.  The curve steps as the per-stage loop
    # does, calling the map once per block of 341 steps as it reaches it
    calls = []

    def coeffs(t, k):
        calls.append(np.shape(t))
        if np.any(np.asarray(t) >= 0.9):
            raise ConfigError("cannot be evaluated")
        return -np.full(np.shape(t) + (1,), -1e3)

    action = group_action(MATRIX, (np.eye(2),))
    with pytest.raises(BlowUpError) as got:
        solve_matrix(action, coeffs, np.zeros(0), 0.0, 1.0, 1e-4)
    assert calls == [(3, 341)] * (got.value.partial.times.size // 341 + 1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as want:
        _solve_matrix_on_integrate(action, coeffs, np.zeros(0), 0.0, 1.0, 1e-4)
    assert got.value.t == want.value.t
    assert got.value.partial.times.tobytes() == want.value.partial.times.tobytes()
    _assert_within_tolerance(got.value.partial.states, want.value.partial.states)


def test_solve_matrix_memory_per_sample():
    # the coefficients of every stage (72 B a sample) and the curve (32 B);
    # one coefficient matrix per stage time in a dict took 786 B a sample
    b = model_bundle("ermakov", omega2="1+0.1*sin(t)", c1=0.0, c2=0.0)
    coeffs = reduce_system(b.system, b.action)
    k = leaf_of(b.system.chart, b.default_state)
    tracemalloc.start()
    try:
        curve = solve_matrix(b.action, coeffs, k, 0.0, 1.0, 5e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve) == 20001
    assert peak <= 200 * len(curve)


def test_solve_abelian_memory_per_sample():
    # the curve (16 B a sample) and its times (8 B); the reduced map on the
    # stage times of the whole grid at once, with the central differences of
    # an interpreted Hamiltonian, took 544 B a sample
    b = model_bundle("hamilton_jacobi", n=2,
                     hamiltonian="0.8*cos(t*P1)+1.3*cos(t*P2)+0.2*P1*P2")
    coeffs = reduce_system(b.system, b.action)
    k = leaf_of(b.system.chart, b.default_state)
    tracemalloc.start()
    try:
        curve = solve_abelian(b.action, coeffs, k, 0.0, 1.0, 5e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve) == 20001
    assert peak <= 200 * len(curve)


def test_reconstruct_identity_curve_is_constant():
    bundle = model_bundle("hamilton_jacobi")
    times = np.linspace(0.0, 1.0, 11)
    curve = Trajectory(times, np.zeros((11, 2)), 0.1)
    x0 = np.array([0.3, -0.4, 1.0, 1.5])
    rec = reconstruct(bundle.action, curve, x0)
    assert np.all(rec.states == x0)


def test_reconstruct_lax_hand_value():
    # n = 1, v(0) = (5, 3), H = I^2/2: the reduced coefficient is dH/dI = I
    lax = lax_system(HamiltonJacobiSpec(1, H=lambda t, I: 0.5 * np.sum(I * I, axis=-1),
                                        dH=lambda t, I: I.copy()))
    coeffs = reduce_system(lax.system, lax.action)
    curve = solve_abelian(lax.action, coeffs, np.array([3.0]), 0.0, 1.0, 1e-3)
    assert curve.states[-1, 0] == pytest.approx(3.0, abs=1e-12)
    rec = reconstruct(lax.action, curve, np.array([5.0, 3.0]))
    assert rec.final_state[0] == pytest.approx(-1.0, abs=1e-10)  # 5 - 2*3
    direct = integrate(assemble(lax.system), np.array([5.0, 3.0]), 0.0, 1.0, 1e-3)
    assert np.max(np.abs(rec.states - direct.states)) <= 1e-10


def test_reconstruction_error_hj_lax():
    rng = seeded_rng(10)
    hj = model_bundle("hamilton_jacobi")
    x0 = hj.system.realized.box.sample(rng)
    direct = integrate(assemble(hj.system), x0, 0.0, 2.0, 1e-3)
    assert reconstruction_error(hj.system, hj.action, direct) <= 1e-8
    lax = model_bundle("lax")
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
    A = np.array(action.generators)
    c = bundle.system.realized.algebra.structure
    # [A_a, A_b] = sum_g c[a, b, g] A_g
    comm = np.einsum("aij,bjk->abik", A, A) - np.einsum("bij,ajk->abik", A, A)
    assert np.max(np.abs(comm - np.einsum("abg,gik->abik", c, A))) <= 1e-12


# --- group solves against the integrate loops they replaced ------------------

def _solve_abelian_on_integrate(action, coeffs, k, t0, t1, h):
    """RK4 through integrate on the t-only field, one coefficient call per
    stage: the loop the Simpson quadrature of solve_abelian replaced."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    r = len(action.generators)
    return integrate(TDependentVectorField(r, lambda t, lam: coeffs(t, k)),
                     np.zeros(r), t0, t1, h)


def _solve_matrix_on_integrate(action, coeffs, k, t0, t1, h):
    """integrate with one coefficient call and one matrix sum per stage, and
    the np.linalg.det guard: the per-stage loop that the step matrices of
    solve_matrix replaced."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    gens = action.generators
    d = gens[0].shape[0]

    def rhs(t, g):
        M = np.zeros((d, d))
        for c, A in zip(coeffs(t, k), gens):
            M += c * A
        return (M @ g.reshape(d, d)).ravel()

    def domain(g):
        return abs(np.linalg.det(g.reshape(d, d))) >= 1e-12

    return integrate(TDependentVectorField(d * d, rhs, domain=domain),
                     np.eye(d).ravel(), t0, t1, h)


_GRIDS = ((0.0, 2.0, 3e-3), (0.3, 1.7, 0.07), (-1.0, 1.0, 0.01))


def _configured(model, params):
    return model_bundle(model, **params)


def _abelian_cases():
    hj_expr = _configured("hamilton_jacobi", {
        "n": 2, "hamiltonian": "0.8*cos(t*P1)+1.3*cos(t*P2)+0.2*P1*P2+sin(t)"})
    lax_expr = _configured("lax", {
        "n": 3, "hamiltonian": "cos(t*P1)+0.7*cos(t*P2)*P3-0.1*P1*P3"})
    bundles = (("hamilton_jacobi", model_bundle("hamilton_jacobi")),
               ("lax", model_bundle("lax")),
               ("hamilton_jacobi-expr", hj_expr),
               ("lax-expr", lax_expr))
    return {name: (b.action, reduce_system(b.system, b.action),
                   leaf_of(b.system.chart, b.default_state)) for name, b in bundles}


@pytest.mark.parametrize("grid", _GRIDS)
def test_solve_abelian_equals_the_integrate_loop_bitwise(grid):
    cases = _abelian_cases()
    # -0.0 coefficients: the running sum starts from a zero row, as the loop
    # turned 0.0 + (-0.0) into 0.0
    cases["negative-zero"] = (group_action(ABELIAN, np.eye(2)),
                              lambda t, k: -np.zeros(np.shape(t) + (2,)), np.zeros(0))
    for name, case in cases.items():
        curve = solve_abelian(*case, *grid)
        ref = _solve_abelian_on_integrate(*case, *grid)
        assert curve.times.tobytes() == ref.times.tobytes(), name
        assert curve.states.tobytes() == ref.states.tobytes(), name


def _matrix_cases():
    cases = []
    for omega2 in (0.9, "0.9+0.05*sin(t)+0.02*I"):
        b = _configured("ermakov", {"omega2": omega2, "c1": 0.0, "c2": 0.0})
        cases.append((b.action, reduce_system(b.system, b.action),
                      leaf_of(b.system.chart, np.array([1.0, 1.2, 0.3, -0.2]))))
    cases.append((group_action(MATRIX, SPLIT_MATRICES),
                  lambda t, k: -np.stack([1.0 + 0.5 * np.sin(t), -0.7 * np.cos(t)], axis=-1),
                  np.zeros(0)))
    return cases


def _assert_within_tolerance(got, want):
    """The stated tolerance of the step-matrix route against the per-stage
    loop after K steps, max(1e-12, K 2^-52) max(1, max|g|), on curves of at
    most 4,503 steps, where it is 1e-12 max(1, max|g|)."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


# the step matrices change the order of operations of the loop: the curve is
# within the stated tolerance of it, and the same bits on every run
@pytest.mark.parametrize("grid", _GRIDS)
def test_solve_matrix_equals_the_integrate_loop_bitwise(grid):
    for case in _matrix_cases():
        curve = solve_matrix(*case, *grid)
        ref = _solve_matrix_on_integrate(*case, *grid)
        assert curve.times.tobytes() == ref.times.tobytes()
        _assert_within_tolerance(curve.states, ref.states)
        assert curve.states.tobytes() == solve_matrix(*case, *grid).states.tobytes()


def test_solve_matrix_over_blocks_of_steps_equals_the_integrate_loop_bitwise():
    # blocks of 3 steps (3 stages x 3 steps x 4 entries) over the 20 steps
    with mock.patch.object(sys.modules["folsys.integrate"], "TABLE_BLOCK", 36):
        for case in _matrix_cases():
            curve = solve_matrix(*case, 0.3, 1.7, 0.07)
            ref = _solve_matrix_on_integrate(*case, 0.3, 1.7, 0.07)
            assert len(curve) == 21
            _assert_within_tolerance(curve.states, ref.states)
            again = solve_matrix(*case, 0.3, 1.7, 0.07)
            assert curve.states.tobytes() == again.states.tobytes()
        # one reduced-map call per block, on its stage times: blocks of 3
        # steps of the matrix entries, of 6 steps of an abelian curve in R^2
        for kind, gens, solve, sizes in (
                (MATRIX, SPLIT_MATRICES, solve_matrix, [3] * 6 + [2]),
                (ABELIAN, tuple(np.eye(2)), solve_abelian, [6, 6, 6, 2])):
            shapes = []

            def coeffs(t, k):
                shapes.append(np.shape(t))
                return -np.stack([np.sin(t), np.cos(t)], axis=-1)

            solve(group_action(kind, gens), coeffs, np.zeros(0), 0.3, 1.7, 0.07)
            assert shapes == [(3, n) for n in sizes]


def test_the_closed_form_determinant_guard_agrees_with_numpy():
    # 2 x 2 samples whose |det| spans 1e-16 to 1e-8 and O(1), away from the
    # floor 1e-12 by more than a factor 1.01
    rng = seeded_rng(5)
    g = rng.uniform(-2.0, 2.0, size=(4000, 2, 2))
    g[:3000] *= np.sqrt(10.0 ** rng.uniform(-16.0, -8.0, size=(3000, 1, 1))
                        / np.abs(np.linalg.det(g[:3000]))[:, None, None])
    det = np.abs(np.linalg.det(g))
    g = g[np.abs(np.log(det / 1e-12)) > np.log(1.01)]
    assert len(g) > 3500
    guard = folsys.automorphic._det_guard(2)
    got = [guard(m.ravel()) for m in g]
    assert got == [abs(np.linalg.det(m)) >= 1e-12 for m in g]
    assert 0 < sum(got) < len(g)


@pytest.mark.parametrize("d", [2, 3])
def test_a_determinant_crossing_the_floor_exits_as_with_the_numpy_guard(d):
    # g' = -c g: det g = exp(-c d t) crosses the floor 1e-12 inside a step
    for c in (100.0, 37.0):
        case = (group_action(MATRIX, (np.eye(d),)), lambda t, k, _c=c: np.array([-_c]),
                np.zeros(0), 0.0, 1.0, 1e-3)
        with pytest.raises(DomainExitError) as got:
            solve_matrix(*case)
        with pytest.raises(DomainExitError) as want:
            _solve_matrix_on_integrate(*case)
        assert got.value.t == want.value.t
        assert len(got.value.partial) == len(want.value.partial)
        _assert_within_tolerance(got.value.partial.states, want.value.partial.states)


def test_solve_abelian_non_finite_coefficient_raises_blowup_with_partial():
    blowups = {
        "inf": lambda t, k: -np.where(np.asarray(t) < 5.0, 1.0, np.inf)[..., None],
        "nan": lambda t, k: -np.where(np.asarray(t) < 2.5, 1.0, np.nan)[..., None],
        "inf-at-t0": lambda t, k: -np.full(np.shape(t) + (1,), -np.inf),
        # finite increments whose running sum overflows near t = 18
        "overflow": lambda t, k: -np.full(np.shape(t) + (1,), -1e307),
    }
    for name, coeffs in blowups.items():
        case = (group_action(ABELIAN, (np.eye(1)[0],)), coeffs, np.zeros(0), 0.0, 100.0, 0.5)
        with pytest.raises(BlowUpError) as exc:
            solve_abelian(*case)
        with np.errstate(over="ignore"), pytest.raises(BlowUpError) as loop:
            _solve_abelian_on_integrate(*case)
        assert exc.value.t == loop.value.t, name
        got, want = exc.value.partial, loop.value.partial
        if name == "inf-at-t0":
            assert got is None and want is None
            continue
        assert got.times.tobytes() == want.times.tobytes(), name
        assert got.states.tobytes() == want.states.tobytes(), name
        assert np.all(np.isfinite(got.states)), name


def test_time_independent_reduced_map_is_broadcast():
    hj = model_bundle("hamilton_jacobi")
    fs = dataclasses.replace(hj.system, coeffs=lambda t, x: np.array([1.0, -2.0]))
    coeffs = reduce_system(fs, hj.action)
    k = np.array([1.0, 1.5])
    times = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    c = coeffs(times, k)
    assert c.shape == (3, 4, 2)
    assert np.all(c == [-1.0, 2.0])
    assert coeffs(0.5, k).shape == (2,)
    curve = solve_abelian(hj.action, coeffs, k, 0.0, 1.0, 0.125)
    assert np.allclose(curve.states[-1], [-1.0, 2.0], rtol=0, atol=1e-15)


def test_reduced_map_stacked_on_the_wrong_axis_raises():
    # one row per time is np.shape(t) + (r,); coefficients first is rejected
    for kind, gens, solve in ((ABELIAN, tuple(np.eye(2)), solve_abelian),
                              (MATRIX, (np.eye(2), np.eye(2)), solve_matrix)):
        with pytest.raises(DimensionMismatchError):
            solve(group_action(kind, gens), lambda t, k: -np.stack([np.cos(t), np.sin(t)]),
                  np.zeros(0), 0.0, 1.0, 1e-2)


def test_solve_abelian_keeps_the_argument_errors_of_integrate():
    action = group_action(ABELIAN, np.eye(2))
    for t0, t1, h, match in ((1.0, 1.0, 0.1, "t1 > t0"), (0.0, 1.0, 0.0, "0 < h"),
                             (0.0, 1.0, 2.0, "0 < h")):
        for solve in (solve_abelian, _solve_abelian_on_integrate):
            with pytest.raises(ValueError, match=match):
                solve(action, lambda t, k: -np.ones(2), np.zeros(0), t0, t1, h)


def test_shipped_actions_act_on_blocks_point_by_point():
    spec = ErmakovSpec(omega2=lambda t, I: 1.0, c1=0.0, c2=0.0)
    rng = seeded_rng(5)
    cases = [(model_bundle(name).action, model_bundle(name).system)
             for name in ("hamilton_jacobi", "lax")]
    cases.append((ermakov_matrix_action(spec), ermakov_system(spec).system))
    for action, fs in cases:
        pts = fs.realized.box.sample_many(rng, 12).reshape(3, 4, -1)
        for a in range(len(action.generators)):
            g = action.exp(0.3, a)
            block = action.act(g, pts)
            loop = np.array([action.act(g, x) for x in pts.reshape(12, -1)])
            assert block.tobytes() == loop.reshape(pts.shape).tobytes()


# --- actions on stacks of group elements -----------------------------------

def _act_item_by_item(action, g, x):
    """The loop over the items of a stack: one act call per element, each on
    the points its leading index broadcasts to."""
    elem = g.ndim - (2 if action.kind == MATRIX else 1)
    lead = np.broadcast_shapes(g.shape[:elem], x.shape[:-1])
    gb = np.broadcast_to(g, lead + g.shape[elem:])
    xb = np.broadcast_to(x, lead + x.shape[-1:])
    out = np.empty(lead + x.shape[-1:])
    for idx in np.ndindex(lead):
        out[idx] = action.act(gb[idx], xb[idx])
    return out


def _shipped_actions_with_curves():
    """(action, fields' system, solved curve, direct trajectory) of every
    shipped action, the curve reduced and solved from the trajectory's x0."""
    ermakov = _configured("ermakov", {"omega2": "0.9+0.05*sin(t)", "c1": 0.0, "c2": 0.0})
    out = []
    for b in (model_bundle("hamilton_jacobi"), model_bundle("lax"), ermakov):
        x0 = b.default_state
        direct = integrate(assemble(b.system), x0, 0.0, 1.0, 0.01)
        curve = (solve_abelian if b.action.kind == ABELIAN else solve_matrix)(
            b.action, reduce_system(b.system, b.action), leaf_of(b.system.chart, x0),
            0.0, 1.0, 0.01)
        out.append((b.action, b.system, curve, direct))
    return out


def test_shipped_actions_act_on_stacks_element_by_element():
    rng = seeded_rng(9)
    for action, fs, curve, direct in _shipped_actions_with_curves():
        T = len(curve)
        elements = curve.states.reshape((-1,) + action.identity.shape)
        pts = fs.realized.box.sample_many(rng, T)
        exps = np.stack([action.exp(c, a) for c in (0.3, -0.7)
                         for a in range(len(action.generators))])
        batch = integrate(assemble(fs), pts[:3], 0.0, 1.0, 0.01).states
        cases = [
            (elements, direct.states[0]),          # one point
            (exps, direct.states[0]),
            (elements, pts),                        # matching leading axes
            (elements, direct.states),
            (elements[::2], batch[::2, 1]),         # non-contiguous slices
            (elements[:, None], pts[:5]),           # broadcast leading axes
            (exps[:, None, None], batch[:4]),
            (elements[7], pts.reshape(T, 1, -1)),   # one element, a block
        ]
        for g, x in cases:
            got = action.act(g, x)
            want = _act_item_by_item(action, g, x)
            assert got.shape == want.shape, action.name
            assert got.tobytes() == want.tobytes(), action.name


def test_reconstruct_calls_act_once():
    for action, fs, curve, direct in _shipped_actions_with_curves():
        calls = []
        counted = dataclasses.replace(
            action, act=lambda g, x, act=action.act: calls.append(g) or act(g, x))
        rec = reconstruct(counted, curve, direct.states[0])
        assert len(calls) == 1, action.name
        elements = curve.states.reshape((-1,) + action.identity.shape)
        assert rec.states.tobytes() == _act_item_by_item(
            action, elements, direct.states[0]).tobytes()

