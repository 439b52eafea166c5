import dataclasses
import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from folsys.algebra import InvariantMetric, builtin_algebra, killing_form
from folsys.cli import MODELS
from folsys.errors import DimensionMismatchError
from folsys.fields import VectorField, rank_at, structure_residual
from folsys.foliated import (FoliatedSystem, FoliationChart, assemble,
                             coefficient_values, leaf_drift, leaf_of, sup_drift,
                             verify_foliated)
from folsys.integrate import TABLE_BLOCK, integrate
from folsys.models import ermakov_system, hj_system, sum_cos_gradient
from folsys.poisson import adjoint_foliated_system
from folsys.util import (Box, central_differences, dot_last, jacobian_fd,
                         seeded_rng)

from .conftest import model_bundle

folsys_integrate = sys.modules["folsys.integrate"]

# configured (interpreted) coefficients, compiled from expressions
INTERPRETED = {
    "hamilton_jacobi-expr": {"model": "hamilton_jacobi", "params": {
        "n": 2, "hamiltonian": "0.8*cos(t*P1)+1.3*cos(t*P2)+0.2*P1*P2"}},
    "lax-expr": {"model": "lax", "params": {
        "n": 3, "hamiltonian": "cos(t*P1)+0.7*cos(t*P2)*P3-0.1*P1*P3"}},
    "ermakov-expr": {"model": "ermakov", "params": {
        "omega2": "1.1+0.1*sin(t)+0.03*I", "c1": 0.7, "c2": 1.2}},
}


@functools.cache
def _bundle(name):
    if name in INTERPRETED:
        return model_bundle(INTERPRETED[name]["model"], **INTERPRETED[name]["params"])
    return model_bundle(name)


def test_assemble_hj_matches_closed_form():
    hj = hj_system(1, sum_cos_gradient)
    F = assemble(hj.system)
    for t, q, p in [(0.5, 0.0, 1.0), (1.7, 2.0, 0.8)]:
        val = F(t, np.array([q, p]))
        assert np.allclose(val, [t * np.sin(t * p), 0.0], atol=1e-13)


@pytest.mark.parametrize("change", [
    lambda fs: {"fields": fs.fields[:1]},
    lambda fs: {"fields": (fs.fields[0], VectorField.constant([1.0, 0.0]))},
    lambda fs: {"box": Box([-1.0] * 3, [1.0] * 3)},
    lambda fs: {"chart": FoliationChart.split(3, 2)},
], ids=["missing field", "mixed field dimensions", "box dimension",
        "chart dimension"])
def test_foliated_system_rejects_a_dimension_mismatch(change):
    fs = hj_system(2, sum_cos_gradient).system
    with pytest.raises(DimensionMismatchError):
        dataclasses.replace(fs, **change(fs))


def test_assemble_zero_coefficients():
    hj = hj_system(2, sum_cos_gradient)
    fs = hj.system
    zeroed = dataclasses.replace(fs, coeffs=lambda t, x: np.zeros(2))
    F = assemble(zeroed)
    assert np.all(F(1.3, np.array([0.1, 0.2, 1.0, 1.5])) == 0.0)


@pytest.mark.parametrize("name", tuple(MODELS))
def test_an_x_independent_coefficient_row_steps_a_batch_on_one_grid(name):
    # a map that reads neither t nor x may return one row (r,), which every
    # route broadcasts over the rows of a batch on one grid, each row bit
    # for bit its own run
    fs = _bundle(name).system
    row = np.linspace(0.2, 0.6, len(fs.fields))
    F = assemble(dataclasses.replace(fs, coeffs=lambda t, x: row))
    X = fs.box.sample_many(seeded_rng(3), 3)
    batch = integrate(F, X, 0.0, 0.5, 0.05)
    for i, x0 in enumerate(X):
        single = integrate(F, x0, 0.0, 0.5, 0.05)
        assert batch.states[:, i].tobytes() == single.states.tobytes()


def test_assemble_rejects_coefficient_map_of_wrong_shape():
    fs = hj_system(2, sum_cos_gradient).system
    for wrong in (lambda t, x: np.zeros(3), lambda t, x: 0.0):
        broken = dataclasses.replace(fs, coeffs=wrong)
        F = assemble(broken)
        with pytest.raises(DimensionMismatchError):
            F(0.5, np.array([0.1, 0.2, 1.0, 1.5]))
        with pytest.raises(DimensionMismatchError):
            F(0.5, np.array([[0.1, 0.2, 1.0, 1.5], [0.0, 0.0, 1.2, 0.9]]))
        with pytest.raises(DimensionMismatchError):
            verify_foliated(broken, trials=1)


@pytest.mark.parametrize("name", tuple(MODELS))
def test_assemble_calls_the_coefficient_map_once_per_stage(name, monkeypatch):
    # never once per row or per stage: on every chart, Ermakov's invariant
    # chart too, one call covers every stage of a block of steps, x0
    # broadcast to (3, K[, B], N)
    fs = _bundle(name).system
    shapes = []

    def counted(t, x):
        shapes.append(x.shape)
        return fs.coeffs(t, x)

    F = assemble(dataclasses.replace(fs, coeffs=counted))
    rng = seeded_rng(5)
    box = fs.box
    for x0 in (box.sample(rng), box.sample_many(rng, 1), box.sample_many(rng, 7)):
        for block, sizes in ((TABLE_BLOCK, [10]), (3 * 4 * x0.size, [4, 4, 2])):
            monkeypatch.setattr(folsys_integrate, "TABLE_BLOCK", block)
            shapes.clear()
            traj = integrate(F, x0, 0.0, 0.1, 0.01)
            assert len(traj) == 11
            assert shapes == [(3, k) + x0.shape for k in sizes]


@pytest.mark.parametrize("name", tuple(MODELS) + tuple(INTERPRETED))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6),
       t=st.floats(0.0, 2.0))
def test_assembled_batch_rows_equal_single_states_bitwise(name, seed, rows, t):
    fs = _bundle(name).system
    F = assemble(fs)
    X = fs.box.sample_many(seeded_rng(seed), rows)
    batch = F(t, X)
    for i in range(rows):
        # tobytes also tells -0.0 from 0.0
        assert batch[i].tobytes() == F(t, X[i]).tobytes()


def test_assemble_lax_commutator_sign():
    # built-in n = 2 with f_a = (dH/dI_a)/I_a, so dv^a/dt = -2 f_a I_a = -2 dH/dI_a
    lax = model_bundle("lax")
    F = assemble(lax.system)
    v = np.array([0.5, -0.3, 1.0, 1.5])
    t = 0.7
    dh = -t * np.sin(t * v[2:])
    expected = np.concatenate([-2.0 * dh, [0.0, 0.0]])
    assert np.allclose(F(t, v), expected, atol=1e-13)


def test_assemble_linear_in_coefficients_exact_integers():
    x1 = VectorField(1, lambda x: np.array([2.0]))
    f1 = FoliatedSystem(builtin_algebra("abelian:1"), (x1,), Box([-1], [1]),
                        lambda t, x: np.array([2.0]), FoliationChart.split(1, 1))
    f2 = dataclasses.replace(f1, coeffs=lambda t, x: np.array([3.0]))
    fsum = dataclasses.replace(f1, coeffs=lambda t, x: np.array([2.0 + 3.0]))
    x = np.array([0.3])
    assert np.array_equal(assemble(fsum)(0.0, x),
                          assemble(f1)(0.0, x) + assemble(f2)(0.0, x))


def test_assemble_linear_in_coefficients_generic():
    hj = hj_system(2, sum_cos_gradient)
    fs = hj.system
    other = lambda t, x: np.cos(t + np.arange(2))
    summed = lambda t, x: fs.coeffs(t, x) + other(t, x)
    f_sum = assemble(dataclasses.replace(fs, coeffs=summed))
    f_a = assemble(fs)
    f_b = assemble(dataclasses.replace(fs, coeffs=other))
    x = np.array([0.1, -0.4, 1.2, 0.9])
    assert np.allclose(f_sum(0.8, x), f_a(0.8, x) + f_b(0.8, x), atol=1e-13)


def test_verify_foliated_hj_and_lax():
    for name in ("hamilton_jacobi", "lax"):
        rep = verify_foliated(model_bundle(name).system, trials=100, seed=42)
        assert rep.rank_shortfall == 0.0
        assert rep.com_residual <= 1e-8
        assert rep.chart_residual <= 1e-8
        assert rep.structure_residual == 0.0


def test_verify_foliated_ermakov_with_invariant_coupling():
    # frequency law genuinely depending on the conserved label
    fs = ermakov_system(lambda t, I: 1.0 + 0.1 * np.sin(t) + 0.05 * I, 1.0, 1.0).system
    rep = verify_foliated(fs, trials=100, seed=42)
    assert rep.rank_shortfall == 0.0
    assert rep.com_residual <= 1e-8
    assert rep.chart_residual <= 1e-6
    assert rep.structure_residual <= 1e-8


def test_verify_foliated_broken_coefficient():
    hj = hj_system(1, sum_cos_gradient)
    fs = hj.system
    broken = dataclasses.replace(fs, coeffs=lambda t, x: x[..., :1])
    rep = verify_foliated(broken, trials=20, seed=42)
    assert rep.com_residual == pytest.approx(1.0, rel=1e-6)


def test_verify_foliated_differentiates_the_coefficient_map_once():
    # one map call and one label call, each on the 2N = 8 perturbed copies
    # of all samples; the map gets the sample times, one per sample
    fs = hj_system(2, sum_cos_gradient).system
    calls = []
    label_calls = []

    def counted(t, x):
        calls.append((np.shape(t), x.shape))
        return fs.coeffs(t, x)

    def counted_labels(x):
        label_calls.append(x.shape)
        return fs.chart.leaf_map(x)

    chart = dataclasses.replace(fs.chart, leaf_map=counted_labels)
    rep = verify_foliated(dataclasses.replace(fs, coeffs=counted, chart=chart),
                          trials=3)
    assert calls == [((3,), (2 * fs.dim, 3, fs.dim))]
    assert label_calls == [(2 * fs.dim, 3, fs.dim)]
    assert rep.com_residual <= 1e-8


def test_verify_foliated_evaluates_each_field_on_the_block_of_samples():
    fs = _bundle("ermakov").system
    shapes = []

    def counted(X):
        return dataclasses.replace(X, func=lambda x: shapes.append(x.shape) or X.func(x))

    fields = tuple(counted(X) for X in fs.fields)
    verify_foliated(dataclasses.replace(fs, fields=fields), trials=5)
    # once for the values that serve the ranks, the rates and the structure
    # residual, and four shifted times for each of the three pairs a < b
    assert shapes == [(5, 4)] * (3 + 3 * 4)


def _verify_foliated_per_point(fs, trials, seed, t_range=(0.0, 2.0)):
    """The per-point loop of Jacobians the block differences replaced."""
    rng = seeded_rng(seed)
    com = chart_res = 0.0
    for _ in range(trials):
        x = fs.box.sample(rng)
        t = float(rng.uniform(*t_range))
        values = [X(x) for X in fs.fields]
        for grad in jacobian_fd(lambda y: fs.coeffs(t, y), x):
            com = max(com, *(abs(float(grad @ v)) for v in values))
        for grad in jacobian_fd(lambda y: leaf_of(fs.chart, y), x):
            chart_res = max(chart_res, *(abs(float(grad @ v)) for v in values))
    return com, chart_res


def _verify_foliated_per_sample(fs, trials, seed, t_range=(0.0, 2.0)):
    """The per-sample loop the block evaluation replaced: one rank, one set of
    field values, one difference block of the labels and one structure
    residual per sample; returns the four values of the report."""
    rng = seeded_rng(seed)
    com = chart_res = structure = 0.0
    rank = fs.chart.leaf_dim
    for _ in range(trials):
        x = fs.box.sample(rng)
        t = float(rng.uniform(*t_range))
        rank = min(rank, rank_at(fs.fields, x))
        structure = max(structure, structure_residual(fs.algebra, fs.fields, x))
        values = np.array([X(x) for X in fs.fields])
        rates = []
        for F, k in ((lambda y: fs.coeffs(t, y), len(fs.fields)),
                     (lambda y: leaf_of(fs.chart, y), fs.chart.n_labels)):
            grads = central_differences(F, x, (k,)).T.copy()
            rates.append(float(np.abs(dot_last(grads[:, None, :], values)).max(initial=0.0)))
        com, chart_res = max(com, rates[0]), max(chart_res, rates[1])
    return com, chart_res, float(fs.chart.leaf_dim - rank), structure


def _system(name):
    if name == "sl2-adjoint":
        sl2 = builtin_algebra("sl2")
        return adjoint_foliated_system(sl2, InvariantMetric(sl2, killing_form(sl2)))
    return _bundle(name).system


_VERIFIED = tuple(MODELS) + ("hamilton_jacobi-expr", "lax-expr", "ermakov-expr",
                              "sl2-adjoint")


# configured models with constant or time-only coefficients
_CONFIGURED = {
    "riccati-const": {"model": "riccati", "params": {"a0": 1.2, "a1": 0.0, "a2": -0.7}},
    "riccati-expr": {"model": "riccati", "params": {
        "a0": "1+0.3*sin(t)", "a1": 0.1, "a2": "-0.6-0.1*cos(2*t)"}},
    "ermakov-const": {"model": "ermakov", "params": {"omega2": 1.2, "c1": 0.0, "c2": 0.0}},
}


def _configured(name):
    return model_bundle(_CONFIGURED[name]["model"], **_CONFIGURED[name]["params"]).system


@pytest.mark.parametrize("name", _VERIFIED + tuple(_CONFIGURED))
def test_coefficients_at_an_array_of_times_equal_the_per_time_calls(name):
    fs = _configured(name) if name in _CONFIGURED else _system(name)
    r = len(fs.fields)
    rng = seeded_rng(4)
    ts = rng.uniform(-1.0, 3.0, size=6)
    # one time per sample, on the samples and on a block of copies of them
    for xs in (fs.box.sample_many(rng, 6),
               fs.box.sample_many(rng, 12).reshape(2, 6, -1)):
        got = np.broadcast_to(coefficient_values(fs.coeffs, r, ts, xs),
                              xs.shape[:-1] + (r,))
        want = np.array([[fs.coeffs(float(t), x) for t, x in zip(ts, row)]
                         for row in xs.reshape(-1, 6, fs.dim)]).reshape(got.shape)
        assert got.tobytes() == want.tobytes()


def test_coefficient_map_of_wrong_shape_at_an_array_of_times_raises():
    fs = hj_system(2, sum_cos_gradient).system
    ts = np.linspace(0.0, 1.0, 3)
    xs = np.ones((3, 4))
    # coefficients first, a row of the wrong length, a time axis the map dropped
    for wrong in (lambda t, x: np.stack([np.cos(t), np.sin(t)]),
                  lambda t, x: np.zeros(np.shape(t) + (3,)),
                  lambda t, x: np.zeros((1, 2))):
        broken = dataclasses.replace(fs, coeffs=wrong)
        with pytest.raises(DimensionMismatchError):
            coefficient_values(wrong, 2, ts, xs)
        with pytest.raises(DimensionMismatchError):
            verify_foliated(broken, trials=3)
        # the table raises; it does not fall back to the per-stage field,
        # where a float time gives coefficients first the shape (2,)
        with pytest.raises(DimensionMismatchError):
            integrate(assemble(broken), np.array([0.1, 0.2, 1.0, 1.5]), 0.0, 1.0, 0.1)


@pytest.mark.parametrize("name", _VERIFIED)
def test_verify_foliated_block_differences_equal_the_per_point_loop(name):
    fs = _system(name)
    rep = verify_foliated(fs, trials=30, seed=7)
    assert (rep.com_residual, rep.chart_residual) == _verify_foliated_per_point(fs, 30, 7)


@pytest.mark.parametrize("name", _VERIFIED)
def test_verify_foliated_on_blocks_equals_the_per_sample_loop_bitwise(name):
    fs = _system(name)
    rep = verify_foliated(fs, trials=40, seed=11, t_range=(0.5, 3.0))
    got = np.array([rep.com_residual, rep.chart_residual, rep.rank_shortfall,
                    rep.structure_residual])
    want = np.array(_verify_foliated_per_sample(fs, 40, 11, (0.5, 3.0)))
    assert got.tobytes() == want.tobytes()


def test_verify_foliated_reports_the_rank_shortfall():
    # field vanishing on half the box: rank drops below leaf_dim there, and
    # the other conditions are still measured
    X = VectorField(1, lambda x: np.maximum(x, 0.0))
    fs = FoliatedSystem(builtin_algebra("abelian:1"), (X,), Box([-1], [1]),
                        lambda t, x: np.ones(1), FoliationChart.split(1, 1))
    rep = verify_foliated(fs, trials=200, seed=1)
    assert rep.rank_shortfall == 1.0
    got = (rep.com_residual, rep.chart_residual, rep.rank_shortfall,
           rep.structure_residual)
    assert got == _verify_foliated_per_sample(fs, 200, 1) == (0.0, 0.0, 1.0, 0.0)


def test_leaf_of_identity_charts():
    hj = model_bundle("hamilton_jacobi")
    assert np.array_equal(leaf_of(hj.system.chart, np.array([1.0, 2, 3, 4])), [3.0, 4.0])
    lax1 = model_bundle("lax")
    labels = leaf_of(lax1.system.chart, np.array([5.0, 1.0, 3.0, 1.5]))
    assert np.array_equal(labels, [3.0, 1.5])


def test_leaf_of_ermakov_lewis_label():
    erm = model_bundle("ermakov")
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


@pytest.mark.parametrize("name", ("hamilton_jacobi", "lax", "ermakov", *INTERPRETED))
def test_sup_drift_evaluates_the_observable_once_on_the_block(name):
    bundle = _bundle(name)
    fs = bundle.system
    x0 = fs.box.sample(seeded_rng(8))
    states = integrate(assemble(fs), x0, 0.0, 0.5, 0.01).states
    # leaf labels, and the lax spectrum or the Lewis invariant: the
    # observables of the state alone (the Lax-pair form reads t too)
    observables = [lambda x: leaf_of(fs.chart, x),
                   *(bundle.observables[key] for key in ("spectrum", "lewis")
                     if key in bundle.observables)]
    for obs in observables:
        block = np.asarray(obs(states))
        for i, row in enumerate(states):
            assert block[i].tobytes() == np.asarray(obs(row)).tobytes()
        # the per-row loop the block evaluation replaced, as the reference
        ref = obs(states[0])
        worst = 0.0
        for row in states:
            worst = max(worst, float(np.max(np.abs(obs(row) - ref))))
        calls = []
        assert sup_drift(lambda x: calls.append(x.shape) or obs(x), states) == worst
        assert calls == [states.shape]


def test_sup_drift_over_blocks_equals_the_whole_block():
    bundle = _bundle("lax-expr")
    states = integrate(assemble(bundle.system), bundle.default_state, 0.0, 0.5,
                       0.01).states
    # the labels and the spectrum are conserved; the states themselves move
    for obs in (lambda x: leaf_of(bundle.system.chart, x), bundle.observables["spectrum"],
                lambda x: x):
        whole = sup_drift(obs, states)
        for block in (1, 7, 50, 51, 52):
            calls = []
            assert sup_drift(lambda x: calls.append(len(x)) or obs(x), states,
                             block) == whole
            assert calls == [len(states[i:i + block])
                             for i in range(0, len(states), block)]
    nan_late = states.copy()
    nan_late[-1, -1] = np.nan
    assert np.isnan(sup_drift(lambda x: x, nan_late, 7))


# every split-chart model shipped, preset and configured
_SPLIT = ("riccati", "hamilton_jacobi", "lax", "hamilton_jacobi-expr", "lax-expr",
          "riccati-const", "riccati-expr")


def test_split_chart_models_are_the_listed_ones():
    split = {name for name in (*MODELS, *INTERPRETED, *_CONFIGURED)
             if _split_system(name).chart.is_split}
    assert split == set(_SPLIT)


def _split_system(name):
    if name in _CONFIGURED:
        return _configured(name)
    return _bundle(name).system


@pytest.mark.parametrize("name", _SPLIT)
def test_split_chart_coefficients_read_only_the_labels(name):
    # the contract the coefficient tables of assemble rest on: the map does
    # not see the leaf coordinates, and no field moves the labels
    fs = _split_system(name)
    s = fs.chart.leaf_dim
    r = len(fs.fields)
    rng = seeded_rng(12)
    xs = fs.box.sample_many(rng, 40)
    ts = rng.uniform(0.0, 2.0, size=40)
    redrawn = fs.box.sample_many(rng, 40)
    redrawn[:, s:] = xs[:, s:]
    assert not np.array_equal(redrawn[:, :s], xs[:, :s])
    for t, x, y in [(ts, xs, redrawn), *zip(ts[:5].tolist(), xs[:5], redrawn[:5])]:
        assert (coefficient_values(fs.coeffs, r, t, x).tobytes()
                == coefficient_values(fs.coeffs, r, t, y).tobytes())
    for X in fs.fields:
        labels = X(xs)[:, s:]
        # exactly 0.0: a -0.0 would still compare equal to zero
        assert labels.tobytes() == np.zeros(labels.shape).tobytes()


def test_leaf_drift_exact_zero_hj_lax():
    for name in ("hamilton_jacobi", "lax"):
        bundle = model_bundle(name)
        traj = integrate(assemble(bundle.system), bundle.default_state, 0.0, 2.0, 1e-3)
        assert leaf_drift(traj, bundle.system.chart) == 0.0


def test_leaf_drift_ermakov_lewis():
    erm = model_bundle("ermakov")
    traj = integrate(assemble(erm.system), erm.default_state, 0.0, 5.0, 1e-3)
    ref = abs(erm.observables["lewis"](erm.default_state))
    assert leaf_drift(traj, erm.system.chart) / ref <= 1e-6


def test_leaf_drift_trivial_chart_is_zero():
    ric = model_bundle("riccati")
    traj = integrate(assemble(ric.system), ric.default_state, 0.0, 1.0, 1e-2)
    assert leaf_drift(traj, ric.system.chart) == 0.0


def test_plain_lie_system_restriction_freezing():
    # time-only coefficients: freezing the state dependence on a leaf changes nothing
    hj = hj_system(1, sum_cos_gradient)
    fs = hj.system
    leaf_rep = fs.chart.leaf_point(np.array([1.3]))
    frozen = lambda t, x: fs.coeffs(t, leaf_rep)
    F = assemble(fs)
    F_frozen = assemble(dataclasses.replace(fs, coeffs=frozen))
    for q in (-1.0, 0.0, 2.0):
        x = np.array([q, 1.3])  # on the leaf P = 1.3
        assert np.array_equal(F(0.7, x), F_frozen(0.7, x))


@pytest.mark.parametrize("name", _VERIFIED)
def test_a_chart_labels_its_leaves_by_its_codimension(name):
    """n_labels is dim - leaf_dim, the count leaf_of returns; a leaf map that
    returns another count fails verify_foliated's central differences."""
    fs = _system(name)
    chart = fs.chart
    x = fs.box.sample_many(seeded_rng(3), 4)
    assert chart.n_labels == chart.dim - chart.leaf_dim
    assert leaf_of(chart, x).shape == (4, chart.n_labels)
    extra = dataclasses.replace(
        chart, leaf_map=lambda y: np.zeros(y.shape[:-1] + (chart.n_labels + 1,)))
    with pytest.raises(DimensionMismatchError):
        verify_foliated(dataclasses.replace(fs, chart=extra), trials=1)
