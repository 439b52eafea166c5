import dataclasses
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from folsys.algebra import builtin_algebra
from folsys.automorphic import MATRIX, reduce_system, solve_abelian, solve_matrix
from folsys.errors import (BlowUpError, ConfigError, DimensionMismatchError,
                           DomainExitError, ErrorFloorError)
from folsys.fields import RealizedAlgebra, TDependentVectorField, VectorField
from folsys.foliated import (FoliatedSystem, FoliationChart, assemble,
                             leaf_of, lie_system)
from folsys.cli import MODELS
from folsys.integrate import (Trajectory, _float_block, _float_steps,
                              _product_block, _stage_values, _sum_block,
                              convergence_order, convergence_steps, integrate,
                              order_from_finals, time_grid, trajectory_to_csv)
from folsys.models import (ErmakovSpec, RiccatiSpec, ermakov_matrix_action,
                           ermakov_system, riccati_system)
from folsys.util import Box, seeded_rng

from .conftest import SPLIT_MATRICES, group_action, model_bundle, per_stage

EXP = TDependentVectorField(1, lambda t, x: x.copy())
ZERO = TDependentVectorField(3, lambda t, x: np.zeros(3))


def test_exponential_terminal_value():
    traj = integrate(EXP, np.array([1.0]), 0.0, 1.0, 1e-3)
    assert traj.times[-1] == 1.0
    assert abs(traj.final_state[0] - math.e) <= 1e-11


def test_momentum_frozen_quadrature():
    # dQ/dt = t sin(t P), dP/dt = 0 with P = 1: Q(pi) = integral of t sin t = pi
    F = TDependentVectorField(2, lambda t, x: np.array([t * np.sin(t * x[1]), 0.0]))
    oracle, err = quad(lambda s: s * np.sin(s), 0.0, np.pi)
    assert abs(oracle - np.pi) <= 1e-10
    traj = integrate(F, np.array([0.0, 1.0]), 0.0, np.pi, 1e-3)
    assert abs(traj.final_state[0] - np.pi) <= 1e-8
    assert traj.final_state[1] == 1.0  # zero derivative stays bitwise constant


def test_constant_field_trajectory_constant():
    traj = integrate(ZERO, np.array([1.0, -2.0, 0.5]), 0.0, 3.0, 0.01)
    assert np.all(traj.states == traj.states[0])


def test_zero_derivative_coordinate_exact():
    F = TDependentVectorField(2, lambda t, x: np.array([np.cos(t * x[1]), 0.0]))
    x0 = np.array([0.2, 1.37])
    traj = integrate(F, x0, 0.0, 2.0, 1e-3)
    assert np.all(traj.states[:, 1] == x0[1])


def test_determinism_bitwise():
    F = TDependentVectorField(2, lambda t, x: np.array([x[1], -np.sin(x[0])]))
    a = integrate(F, np.array([0.4, 0.0]), 0.0, 2.0, 1e-3)
    b = integrate(F, np.array([0.4, 0.0]), 0.0, 2.0, 1e-3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_short_last_step_hits_t1():
    traj = integrate(EXP, np.array([1.0]), 0.0, 1.0, 0.3)
    assert traj.times[-1] == 1.0
    assert np.allclose(np.diff(traj.times)[:-1], 0.3)
    assert np.diff(traj.times)[-1] <= 0.3


def test_blow_up_detection():
    F = TDependentVectorField(1, lambda t, x: x ** 2)
    with np.errstate(over="ignore"), pytest.raises(BlowUpError):
        integrate(F, np.array([3.0]), 0.0, 2.0, 1e-2)


def test_domain_exit_detection_with_partial_results():
    F = TDependentVectorField(1, lambda t, x: np.array([1.0]),
                              domain=lambda x: x[0] < 0.5)
    with pytest.raises(DomainExitError) as exc:
        integrate(F, np.array([0.0]), 0.0, 2.0, 1e-2)
    partial = exc.value.partial
    assert partial is not None
    assert partial.states[-1, 0] < 0.5
    assert partial.times[-1] == pytest.approx(exc.value.t - 1e-2)


def test_precondition_errors():
    with pytest.raises(ValueError):
        integrate(EXP, np.array([1.0]), 1.0, 0.0, 1e-3)
    with pytest.raises(ValueError):
        integrate(EXP, np.array([1.0]), 0.0, 1.0, 2.0)


def test_convergence_order_exponential():
    order = convergence_order(EXP, np.array([1.0]), 0.0, 1.0, 0.05)
    assert 3.8 <= order <= 4.2


def test_convergence_order_error_floor():
    with pytest.raises(ErrorFloorError):
        convergence_order(ZERO, np.zeros(3), 0.0, 1.0, 0.1)


def test_halving_reduces_error_by_order_four_factor():
    exact = math.e
    e_h = abs(integrate(EXP, np.array([1.0]), 0.0, 1.0, 0.02).final_state[0] - exact)
    e_h2 = abs(integrate(EXP, np.array([1.0]), 0.0, 1.0, 0.01).final_state[0] - exact)
    assert 12.0 <= e_h / e_h2 <= 20.0


def test_csv_export_format(tmp_path):
    traj = integrate(EXP, np.array([1.0]), 0.0, 0.01, 1e-2)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1"
    assert len(lines) == len(traj) + 1
    # 17 significant digits round-trip
    t_back, x_back = (float(v) for v in lines[-1].split(","))
    assert t_back == traj.times[-1]
    assert x_back == traj.states[-1, 0]


def test_csv_export_bytes_equal_the_per_value_format(tmp_path):
    rng = np.random.default_rng(2)
    states = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-300, 300, size=(40, 3))
    states[0] = [-0.0, np.inf, -np.inf]
    states[1] = [np.nan, 5e-324, 1.0 / 3.0]
    traj = Trajectory(np.linspace(0.0, 1.0, 40) ** 3, states, 0.1)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    # the row-by-row writer the single format replaced
    want = "t,x1,x2,x3\n" + "".join(
        f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n"
        for t, row in zip(traj.times, traj.states))
    assert path.read_bytes() == want.encode("utf-8")


# --- batches -------------------------------------------------------------------

@pytest.mark.parametrize("name", tuple(MODELS))
def test_batch_equals_single_runs(name):
    fs = model_bundle(name).system
    F = assemble(fs)
    x0 = fs.realized.box.sample_many(seeded_rng(3), 4)
    batch = integrate(F, x0, 0.0, 0.5, 0.01)
    assert batch.states.shape == (len(batch), 4, fs.dim)
    assert batch.state_dim == fs.dim
    for b, x in enumerate(x0):
        assert np.array_equal(batch.states[:, b], integrate(F, x, 0.0, 0.5, 0.01).states)


def test_batch_blow_up_in_one_row():
    F = TDependentVectorField(1, lambda t, x: x ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as single:
            integrate(F, np.array([3.0]), 0.0, 2.0, 1e-2)
        with pytest.raises(BlowUpError) as batch:
            integrate(F, np.array([[0.1], [3.0]]), 0.0, 2.0, 1e-2)
    assert batch.value.t == single.value.t
    partial = batch.value.partial
    assert partial.states.ndim == 3 and partial.states.shape[1:] == (2, 1)
    assert np.all(np.isfinite(partial.states))


def test_batch_domain_guard_checks_every_row():
    F = TDependentVectorField(1, lambda t, x: np.ones_like(x),
                              domain=lambda x: x[..., 0] < 0.5)
    with pytest.raises(DomainExitError) as single:
        integrate(F, np.array([0.3]), 0.0, 2.0, 1e-2)
    with pytest.raises(DomainExitError) as batch:
        integrate(F, np.array([[0.0], [0.3]]), 0.0, 2.0, 1e-2)
    assert batch.value.t == single.value.t
    assert batch.value.partial.states.shape[1:] == (2, 1)
    with pytest.raises(DomainExitError):
        integrate(F, np.array([[0.0], [0.7]]), 0.0, 2.0, 1e-2)


def test_single_point_field_rejected_in_batch():
    X = VectorField(1, lambda x: np.array([1.0]))  # ignores the batch axis
    ra = RealizedAlgebra(builtin_algebra("abelian:1"), (X,),
                         Box([-1.0], [1.0]))
    F = assemble(FoliatedSystem(ra, lambda t, x: np.ones(1), FoliationChart.split(1, 1)))
    assert integrate(F, np.array([0.0]), 0.0, 0.1, 0.01).final_state[0] > 0.0
    with pytest.raises(DimensionMismatchError):
        integrate(F, np.zeros((3, 1)), 0.0, 0.1, 0.01)


def test_csv_export_rejects_batch(tmp_path):
    traj = integrate(EXP, np.array([[1.0], [2.0]]), 0.0, 0.1, 1e-2)
    with pytest.raises(ValueError):
        trajectory_to_csv(traj, tmp_path / "batch.csv")


# --- one step per row ----------------------------------------------------------

def reference_rk4(F, x0, t0, t1, h):
    """Classical RK4 on ``time_grid(t0, t1, h)``, written out stage by stage on
    Python-float times: the single-grid path of ``integrate`` must match it
    bit for bit."""
    times = time_grid(t0, t1, h)
    grid = times.tolist()
    x = np.asarray(x0, dtype=float).copy()
    out = [x]
    for k in range(len(grid) - 1):
        t = grid[k]
        dt = grid[k + 1] - t
        mid = t + 0.5 * dt
        k1 = F(t, x)
        k2 = F(mid, x + 0.5 * dt * k1)
        k3 = F(mid, x + 0.5 * dt * k2)
        k4 = F(t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    return times, np.array(out)


# a Riccati field with a sin(t) coefficient, compiled from an expression, and
# a translation field whose coefficients depend on t
ROW_STEP_SYSTEMS = {
    "riccati": model_bundle("riccati", a0="1.4+0.1*sin(t)", a1="0.05*cos(t)",
                            a2="-0.7+0.05*cos(t)").system,
    "hamilton_jacobi": model_bundle("hamilton_jacobi").system,
}
ROW_STEPS = st.one_of(st.sampled_from([0.05, 0.1, 0.3]),
                      st.floats(0.01, 0.5, allow_nan=False))


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(sorted(ROW_STEP_SYSTEMS)),
       steps=st.lists(ROW_STEPS, min_size=1, max_size=5),
       seed=st.integers(0, 10 ** 6))
def test_per_row_steps_match_the_runs_alone(model, steps, seed):
    fs = ROW_STEP_SYSTEMS[model]
    F = assemble(fs)
    x0 = fs.realized.box.sample_many(seeded_rng(seed), len(steps))
    ragged = integrate(F, x0, 0.0, 1.0, steps)
    h = min(steps)
    assert ragged.step == h
    # each row ends at t1 bit for bit as its run alone
    for row, (x, step) in enumerate(zip(x0, steps)):
        alone = integrate(F, x, 0.0, 1.0, step)
        assert np.array_equal(ragged.states[-1, row], alone.final_state)
    # the rows on the smallest step are the single-grid batch at every sample
    on = [row for row, step in enumerate(steps) if step == h]
    single = integrate(F, x0[on], 0.0, 1.0, h)
    assert np.array_equal(ragged.times, single.times)
    assert np.array_equal(ragged.states[:, on], single.states)
    # and a single-grid call is the stage-by-stage loop on Python floats
    times, states = reference_rk4(F, x0[on], 0.0, 1.0, h)
    assert np.array_equal(single.times, times)
    assert np.array_equal(single.states, states)


def test_per_row_steps_pass_one_time_per_row():
    seen = []

    def func(t, x):
        seen.append(t)
        return np.ones_like(x)

    F = TDependentVectorField(1, func)
    integrate(F, np.zeros((2, 1)), 0.0, 1.0, 0.25)
    # one grid: one numpy scalar time per stage, against the whole batch
    assert {type(t) for t in seen} == {np.float64}
    assert [float(t) for t in seen[-4:]] == [0.75, 0.875, 0.875, 1.0]
    seen.clear()
    traj = integrate(F, np.zeros((2, 1)), 0.0, 1.0, [0.5, 0.25])
    assert all(isinstance(t, np.ndarray) and t.shape == (2,) for t in seen)
    # the row on step 0.5 holds at t1 through the stages of the last step
    assert [t.tolist() for t in seen[-4:]] == [[1.0, 0.75], [1.0, 0.875],
                                               [1.0, 0.875], [1.0, 1.0]]
    assert traj.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert traj.states[:, 0, 0].tolist() == [0.0, 0.5, 1.0, 1.0, 1.0]
    assert traj.states[-1, :, 0].tolist() == [1.0, 1.0]


def test_per_row_steps_need_one_step_per_row_of_a_batch():
    with pytest.raises(ValueError):
        integrate(EXP, np.array([1.0]), 0.0, 1.0, [0.1])
    with pytest.raises(ValueError):
        integrate(EXP, np.ones((3, 1)), 0.0, 1.0, [0.1, 0.2])


def test_order_from_finals_is_convergence_order():
    x0 = np.array([1.0])
    finals = [integrate(EXP, x0, 0.0, 1.0, s).final_state
              for s in convergence_steps(0.05)]
    ragged = integrate(EXP, np.vstack([x0] * 3), 0.0, 1.0, convergence_steps(0.05))
    assert np.array_equal(ragged.states[-1], np.array(finals))
    assert order_from_finals(*ragged.states[-1]) == convergence_order(
        EXP, x0, 0.0, 1.0, 0.05)
    with pytest.raises(ErrorFloorError):
        order_from_finals(np.zeros(3), np.zeros(3), np.zeros(3))


# --- coefficient tables --------------------------------------------------------

def _configured_system(model, params):
    return model_bundle(model, **params).system


TABLE_SYSTEMS = {
    "riccati-const": model_bundle("riccati").system,
    "riccati-sin": _configured_system("riccati", {
        "a0": "1.4+0.1*sin(t)", "a1": "0.05*cos(t)", "a2": "-0.7+0.05*cos(t)"}),
    "hamilton_jacobi": model_bundle("hamilton_jacobi").system,
    "hamilton_jacobi-expr": _configured_system("hamilton_jacobi", {
        "n": 2, "hamiltonian": "0.8*cos(t*P1)+1.3*cos(t*P2)+0.2*P1*P2"}),
    "lax": model_bundle("lax").system,
    "lax-expr": _configured_system("lax", {
        "n": 3, "hamiltonian": "cos(t*P1)+0.7*cos(t*P2)*P3-0.1*P1*P3"}),
    # an invariant chart whose frequency reads no I: coefficients of time alone
    "ermakov-sin": _configured_system("ermakov", {
        "omega2": "0.9+0.06*sin(t)", "c1": 0.0, "c2": 0.0}),
    "ermakov-const": _configured_system("ermakov", {"omega2": 1.1}),
}
# the translation systems, whose assembled fields are time-only
TIME_ONLY_SYSTEMS = {name: TABLE_SYSTEMS[name] for name in (
    "hamilton_jacobi", "hamilton_jacobi-expr", "lax", "lax-expr")}
# the uncoupled Ermakov system, whose assembled field is linear along a
# solution and steps by its RK4 step matrices
LINEAR_SYSTEMS = {"ermakov-sin": TABLE_SYSTEMS["ermakov-sin"]}
folsys_integrate = sys.modules["folsys.integrate"]


def assert_within_tolerance(got, want):
    """The stated tolerance of the step-matrix route against the per-stage
    loop after K steps, max(1e-12, K 2^-52) max(1, max|x|), on runs of at
    most 4,503 steps, where it is 1e-12 max(1, max|x|)."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(TABLE_SYSTEMS)),
       rows=st.integers(0, 4),
       per_row=st.booleans(),
       block_steps=st.integers(1, 6),
       extra=st.sampled_from([0, 1, 2, 3, 7]),
       seed=st.integers(0, 10 ** 6))
def test_coefficient_table_equals_the_per_stage_field_bitwise(
        name, rows, per_row, block_steps, extra, seed):
    fs = TABLE_SYSTEMS[name]
    calls = []

    def counted(t, x):
        calls.append(x.shape)
        return fs.coeffs(t, x)

    F = assemble(dataclasses.replace(fs, coeffs=counted))
    # the translation systems are time-only (summed by Simpson blocks), the
    # uncoupled Ermakov one steps by step matrices, and the Riccati and
    # coupled Ermakov ones step their declared stage on the table rows in
    # the RK4 loop
    routes = (dict.fromkeys(TIME_ONLY_SYSTEMS, _sum_block)
              | dict.fromkeys(LINEAR_SYSTEMS, _product_block))
    assert F.route is routes.get(name, fs.combine) is not None
    # a plain function: per stage on every system
    plain = per_stage(F)
    rng = seeded_rng(seed)
    # one state (rows = 0) or a batch
    x0 = (fs.realized.box.sample(rng) if rows == 0
          else fs.realized.box.sample_many(rng, rows))
    # exactly one block, one step more, or several blocks and a remainder
    n = block_steps * (1 + extra // 2) + extra % 2
    h = 0.6 / n
    steps = h
    if per_row and rows > 0:
        steps = [h] + rng.uniform(h, 0.6, size=rows - 1).tolist()
    with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * block_steps * x0.size):
        tabled = integrate(F, x0, 0.0, 0.6, steps)
        assert len(tabled) == n + 1
        assert len(calls) == -(-n // block_steps)  # one call per block
        looped = integrate(plain, x0, 0.0, 0.6, steps)
        again = integrate(F, x0, 0.0, 0.6, steps)
    assert tabled.times.tobytes() == looped.times.tobytes()
    assert tabled.states.tobytes() == again.states.tobytes()
    if name in LINEAR_SYSTEMS:
        # a changed order of operations: the stated tolerance
        assert_within_tolerance(tabled.states, looped.states)
    else:
        assert tabled.states.tobytes() == looped.states.tobytes()


def test_an_ermakov_frequency_that_reads_no_invariant_is_tabulated():
    # every Ermakov system is tabulated at the labels of x0, whether its
    # frequency reads I or not, and the coupled ones combine the rows with
    # the state by their declared stage
    for omega2 in ("1+0.1*sin(t)", 1.2, 2, "1+0.02*I", "sin(t*I)"):
        fs = _configured_system("ermakov", {"omega2": omega2})
        F = assemble(fs)
        assert F.table is not None and F.route is fs.combine is not None, omega2
    fs = model_bundle("ermakov").system
    assert assemble(fs).table is not None and assemble(fs).route is fs.combine


def test_a_block_whose_table_raises_runs_per_stage():
    # the coefficient a0 cannot be evaluated at t = 1.75, a stage time of the
    # step from 1.625; x' = 1 - x^2 stays bounded up to there
    fs = _configured_system("riccati", {"a0": "1+0*(1/(t-1.75))", "a2": -1})
    calls = []

    def counted(t, x):
        calls.append(np.shape(t))
        return fs.coeffs(t, x)

    F = assemble(dataclasses.replace(fs, coeffs=counted))
    plain = per_stage(F)
    with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * 4):
        with pytest.raises(ConfigError) as tabled:
            integrate(F, np.array([0.5]), 0.0, 2.0, 0.125)
        # blocks of 4 steps: three tables, then the block from t = 1.5 fails
        # as a table and is rebuilt a step at a time on its route: the step
        # from 1.5 runs, and the table of the step from 1.625 raises at its
        # last stage time, 1.75
        assert calls == [(3, 4)] * 4 + [(3, 1)] * 2
        with pytest.raises(ConfigError) as looped:
            integrate(plain, np.array([0.5]), 0.0, 2.0, 0.125)
    assert str(tabled.value) == str(looped.value)


# --- time-only fields: the Simpson sum of a block ------------------------------

def _counted(kind, fn, calls):
    """fn with each call recorded in ``calls`` as ``kind``."""
    def call(*args):
        calls.append(kind)
        return fn(*args)
    return call


def _counted_field(F, calls):
    """F with each call of func, table and a stage route recorded in ``calls``."""
    route = F.route
    if route not in (_sum_block, _product_block):
        route = _counted("stage", route, calls)
    return TDependentVectorField.tabled(
        F.dim, _counted("func", F.func, calls), _counted("table", F.table, calls),
        route, domain=F.domain)


@pytest.mark.parametrize("name", sorted(TIME_ONLY_SYSTEMS))
def test_time_only_route_makes_one_table_call_per_block_and_no_per_stage_call(name):
    fs = TIME_ONLY_SYSTEMS[name]
    box = fs.realized.box
    rng = seeded_rng(8)
    for x0, steps in ((box.sample(rng), 0.05), (box.sample_many(rng, 3), 0.05),
                      (box.sample_many(rng, 3), [0.05, 0.1, 0.3])):
        calls = []
        F = _counted_field(assemble(fs), calls)
        # 20 steps in blocks of 6: 6, 6, 6 and 2
        with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * 6 * x0.size):
            integrate(F, x0, 0.0, 1.0, steps)
        assert calls == ["table"] * 4


def _time_only_field(value, domain=None):
    """Time-only field of dimension 1 whose value at time t is value(t)."""
    return TDependentVectorField.tabled(
        1, lambda t, x: np.array([value(t)]),
        lambda times, x0: value(times)[..., None], _sum_block, domain=domain)


def test_time_only_blow_up_keeps_the_step_and_partial_of_the_per_stage_field():
    # finite values whose running sum overflows, and values that turn
    # infinite or NaN, on one state and on a batch, across blocks of 5 steps
    values = {"overflow": lambda t: np.full(np.shape(t), 1e307),
              "inf": lambda t: np.where(np.asarray(t) < 1.3, 0.5, np.inf),
              "nan": lambda t: np.where(np.asarray(t) < 0.7, -0.5, np.nan)}
    for name, value in values.items():
        F = _time_only_field(value)
        plain = per_stage(F)
        for x0 in (np.array([0.25]), np.array([[0.25], [-1.0]])):
            with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * 5 * x0.size):
                # the sum warns about none of its non-finite values
                with pytest.raises(BlowUpError) as summed:
                    integrate(F, x0, 0.0, 100.0, 0.1)
                with np.errstate(over="ignore", invalid="ignore"), \
                        pytest.raises(BlowUpError) as looped:
                    integrate(plain, x0, 0.0, 100.0, 0.1)
            assert summed.value.t == looped.value.t, name
            got, want = summed.value.partial, looped.value.partial
            assert got.times.tobytes() == want.times.tobytes(), name
            assert got.states.tobytes() == want.states.tobytes(), name


def test_time_only_domain_guard_checks_the_rows_in_step_order():
    # x' = 1 from 0 leaves x < 0.55 at t = 0.6; x' = 1 then inf from 0.95
    # blows up at t = 1.0 unless the domain exit comes first
    inside = lambda x: x[..., 0] < 0.55
    cases = ((lambda t: np.ones(np.shape(t)), inside, DomainExitError),
             (lambda t: np.where(np.asarray(t) < 0.95, 1.0, np.inf), inside,
              DomainExitError),
             (lambda t: np.where(np.asarray(t) < 0.35, 1.0, np.inf), inside,
              BlowUpError))
    for value, domain, error in cases:
        F = _time_only_field(value, domain)
        plain = per_stage(F)
        with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * 50):
            with pytest.raises(error) as summed:
                integrate(F, np.array([0.0]), 0.0, 2.0, 0.05)
            with np.errstate(invalid="ignore"), pytest.raises(error) as looped:
                integrate(plain, np.array([0.0]), 0.0, 2.0, 0.05)
        assert summed.value.t == looped.value.t
        got, want = summed.value.partial, looped.value.partial
        assert got.states.tobytes() == want.states.tobytes()


def test_time_only_block_whose_table_raises_keeps_the_config_error():
    # H = P1/(t-1) cannot be evaluated at t = 1, a stage time of two steps
    fs = _configured_system("hamilton_jacobi", {"n": 2, "hamiltonian": "P1/(t-1)"})
    F = assemble(fs)
    assert F.route is _sum_block
    plain = per_stage(F)
    x0 = model_bundle("hamilton_jacobi").default_state
    with pytest.raises(ConfigError) as summed:
        integrate(F, x0, 0.0, 2.0, 0.125)
    with pytest.raises(ConfigError) as looped:
        integrate(plain, x0, 0.0, 2.0, 0.125)
    assert "cannot be evaluated" in str(summed.value)
    assert str(summed.value) == str(looped.value)


def test_constant_fields_return_their_value_on_random_blocks():
    systems = dict(TABLE_SYSTEMS, ermakov=model_bundle("ermakov").system)
    rng = seeded_rng(21)
    declared = 0
    for name, fs in systems.items():
        for X in fs.realized.fields:
            if X.value is None:
                continue
            declared += 1
            assert X.value.shape == (X.dim,)
            for shape in ((X.dim,), (5, X.dim), (3, 4, X.dim)):
                block = rng.uniform(-3.0, 3.0, size=shape)
                got = X(block)
                assert got.tobytes() == np.broadcast_to(X.value, shape).tobytes(), name
    # the translations d/dQ^i of hamilton_jacobi and 2 d/dv^a of lax, n = 2
    # and 3, and the Riccati X0 = 1 of both Riccati systems; no Ermakov
    # field declares itself constant
    assert declared == 2 + 2 + 2 + 3 + 2
    X = VectorField.constant([0.0, 2.0], name="c")
    assert X.dim == 2 and X.name == "c"
    assert X(np.ones((2, 2))).tolist() == [[0.0, 2.0], [0.0, 2.0]]
    assert dataclasses.replace(X, func=lambda x: -x).value is None


# --- fields linear along a solution: the RK4 step matrices -----------------------

def _split_linear_system():
    """x' = cos(t) k x on R^2 split into x and its label k = y: a linear field
    whose stage matrices differ from row to row of a batch."""
    X = VectorField.linear([[1.0, 0.0], [0.0, 0.0]], name="dilation")
    ra = RealizedAlgebra(builtin_algebra("abelian:1"), (X,), Box([-1.0, 0.5], [1.0, 1.5]))
    return FoliatedSystem(ra, lambda t, x: np.cos(t)[..., None] * x[..., 1:],
                          FoliationChart.split(2, 1), name="split-linear")


STEP_MATRIX_SYSTEMS = {
    "ermakov-sin": TABLE_SYSTEMS["ermakov-sin"],
    "ermakov-const": _configured_system("ermakov", {"omega2": 0.9, "c1": 0.0, "c2": 0.0}),
    "split-linear": _split_linear_system(),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(STEP_MATRIX_SYSTEMS)),
       layout=st.sampled_from(["one state", "one grid", "one step per row"]),
       block_steps=st.integers(1, 5),
       runs=st.sampled_from(["K", "K + 1", "2K + 1"]),
       seed=st.integers(0, 10 ** 6))
def test_step_matrices_are_within_tolerance_of_the_per_stage_loop(
        name, layout, block_steps, runs, seed):
    fs = STEP_MATRIX_SYSTEMS[name]
    F = assemble(fs)
    assert F.route is _product_block
    rng = seeded_rng(seed)
    x0 = (fs.realized.box.sample(rng) if layout == "one state"
          else fs.realized.box.sample_many(rng, 3))
    n = {"K": block_steps, "K + 1": block_steps + 1, "2K + 1": 2 * block_steps + 1}[runs]
    h = 0.8 / n
    steps = [h, min(1.7 * h, 0.8), 0.8] if layout == "one step per row" else h
    # a plain function is called per stage; a copy rebuilt from its parts, as
    # the perfbench tracer rebuilds an assembled field, keeps the route
    plain = per_stage(F)
    rebuilt = TDependentVectorField(F.dim, F.func, domain=F.domain, name=F.name)
    assert rebuilt.table is F.table and rebuilt.route is F.route
    with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * block_steps * x0.size):
        got = integrate(F, x0, 0.0, 0.8, steps)
        ref = integrate(plain, x0, 0.0, 0.8, steps)
        copy = integrate(rebuilt, x0, 0.0, 0.8, steps)
    assert len(got) == n + 1
    assert got.times.tobytes() == ref.times.tobytes()
    assert_within_tolerance(got.states, ref.states)
    assert got.states.tobytes() == copy.states.tobytes()


def _linear_field(value, domain=None):
    """x' = value(t) M x on R^2, a growing spiral for value 1."""
    M = np.array([[1.0, 1.0], [-1.0, 0.5]])
    return TDependentVectorField.tabled(
        2, lambda t, x: np.asarray(value(t))[..., None] * (x @ M.T),
        lambda times, x0: value(times)[..., None, None] * M, _product_block,
        domain=domain)


def _assert_raises_as_per_stage(F, error, x0, t1, h):
    """F raises ``error`` at the step and with the partial trajectory of the
    per-stage loop, up to the stated tolerance, and without a warning."""
    plain = per_stage(F)
    with pytest.raises(error) as got:
        integrate(F, x0, 0.0, t1, h)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error) as want:
        integrate(plain, x0, 0.0, t1, h)
    assert got.value.t == want.value.t
    if want.value.partial is None:
        assert got.value.partial is None
        return
    assert got.value.partial.times.tobytes() == want.value.partial.times.tobytes()
    assert_within_tolerance(got.value.partial.states, want.value.partial.states)


def test_step_matrix_blow_up_keeps_the_step_and_partial_of_the_per_stage_loop():
    # finite values whose states overflow, and values that turn infinite or
    # NaN, at t0 and later, on one state and on a batch, across blocks of 5 steps
    values = {"overflow": lambda t: np.full(np.shape(t), 60.0),
              "inf": lambda t: np.where(np.asarray(t) < 1.3, 0.5, np.inf),
              "nan": lambda t: np.where(np.asarray(t) < 0.7, -0.5, np.nan),
              "inf-at-t0": lambda t: np.full(np.shape(t), -np.inf)}
    for name, value in values.items():
        F = _linear_field(value)
        for x0 in (np.array([0.25, 0.5]), np.array([[0.25, 0.5], [-1.0, 0.1]])):
            with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * 5 * x0.size):
                _assert_raises_as_per_stage(F, BlowUpError, x0, 100.0, 0.1)


def test_step_matrix_domain_guard_checks_the_states_in_step_order():
    # x' = M x from (0.25, 0.5) leaves x < 0.55 near t = 0.25; with the
    # value inf from 0.5 the domain exit comes first, from 0.15 the blow-up
    inside = lambda x: x[..., 0] < 0.55
    for value, error in ((lambda t: np.ones(np.shape(t)), DomainExitError),
                         (lambda t: np.where(np.asarray(t) < 0.5, 1.0, np.inf),
                          DomainExitError),
                         (lambda t: np.where(np.asarray(t) < 0.15, 1.0, np.inf),
                          BlowUpError)):
        F = _linear_field(value, inside)
        with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * 50):
            _assert_raises_as_per_stage(F, error, np.array([0.25, 0.5]), 2.0, 0.01)


def test_step_matrix_block_whose_products_overflow_reruns_step_by_step():
    # x' = diag(60, 0) x from (0, 1): the loop keeps x1 = 0 exactly, while
    # the cumulative step products overflow near t = 15 and inf * 0 is NaN;
    # the block re-runs step by step and ends at (0, 1) with no blow-up
    F = TDependentVectorField.tabled(
        2, lambda t, x: x * np.array([60.0, 0.0]),
        lambda times, x0: np.broadcast_to(np.diag([60.0, 0.0]), np.shape(times) + (2, 2)),
        _product_block)
    plain = per_stage(F)
    got = integrate(F, np.array([0.0, 1.0]), 0.0, 100.0, 0.1)
    want = integrate(plain, np.array([0.0, 1.0]), 0.0, 100.0, 0.1)
    assert got.final_state.tolist() == [0.0, 1.0]
    assert got.states.tobytes() == want.states.tobytes()


def test_step_matrices_at_the_production_block_size_are_within_tolerance():
    # TABLE_BLOCK as shipped: one 4-dim state steps in blocks of 341, so the
    # scan of the cumulative products runs 9 levels deep
    assert max(1, folsys_integrate.TABLE_BLOCK // (3 * 4)) == 341
    x0 = np.array([1.2, 0.9, 0.3, -0.4])
    for name in ("ermakov-const", "ermakov-sin"):
        F = assemble(STEP_MATRIX_SYSTEMS[name])
        assert F.route is _product_block
        plain = per_stage(F)
        got = integrate(F, x0, 0.0, 3.0, 1.25e-3)
        assert len(got) == 2401
        assert_within_tolerance(got.states, integrate(plain, x0, 0.0, 3.0, 1.25e-3).states)
        assert got.states.tobytes() == integrate(F, x0, 0.0, 3.0, 1.25e-3).states.tobytes()
    erm = model_bundle("ermakov", omega2="0.9+0.06*sin(t)", c1=0.0, c2=0.0)
    case = (erm.action, reduce_system(erm.system, erm.action), leaf_of(erm.system.chart, x0))
    curve = solve_matrix(*case, 0.0, 3.0, 1.25e-3)
    assert len(curve) == 2401
    assert_within_tolerance(curve.states, matrix_rk4_reference(*case, curve.times))
    assert curve.states.tobytes() == solve_matrix(*case, 0.0, 3.0, 1.25e-3).states.tobytes()


def test_step_matrices_over_ten_thousand_steps_are_within_the_step_count_bound():
    # the gap to the per-stage loop grows with the step count K like
    # accumulated roundoff, about 0.2 K 2^-52 on this flow (4.1e-13 at
    # 10,000 steps), so the stated bound is max(1e-12, K 2^-52) max(1, max|x|)
    F = assemble(_configured_system("ermakov", {"omega2": 4.0, "c1": 0.0, "c2": 0.0}))
    assert F.route is _product_block
    x0 = np.array([1.2, 1.1, 0.1, -0.1])
    got = integrate(F, x0, 0.0, 10.0, 1e-3)
    want = integrate(per_stage(F), x0, 0.0, 10.0, 1e-3)
    K = len(got) - 1
    assert K == 10_000
    assert got.times.tobytes() == want.times.tobytes()
    bound = max(1e-12, K * 2.0 ** -52) * max(1.0, np.max(np.abs(want.states)))
    assert np.max(np.abs(got.states - want.states)) <= bound


def test_exactly_the_uncoupled_ermakov_flows_and_solve_matrix_take_the_step_matrix_route():
    systems = dict(TABLE_SYSTEMS, **{
        "ermakov": model_bundle("ermakov").system,
        "ermakov-uncoupled-const": STEP_MATRIX_SYSTEMS["ermakov-const"],
        # the frequency reads I, which the table freezes at x0's labels:
        # linear along a solution too
        "ermakov-uncoupled-reads-I": _configured_system("ermakov", {
            "omega2": "0.9+0.02*I", "c1": 0.0, "c2": 0.0})})
    routed = {name for name, fs in systems.items() if assemble(fs).route is _product_block}
    assert routed == {"ermakov-sin", "ermakov-uncoupled-const", "ermakov-uncoupled-reads-I"}
    # the route builds the matrices once per block and calls no stage
    F = assemble(systems["ermakov-sin"])
    calls = []
    G = _counted_field(F, calls)
    # 20 steps in blocks of 6: 6, 6, 6 and 2
    with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * 6 * 4):
        integrate(G, np.array([1.2, 1.1, 0.1, -0.1]), 0.0, 1.0, 0.05)
    assert calls == ["table"] * 4
    # the group solves: the matrix curve takes the route, the abelian one not
    fields = []

    def recorded(F, *args):
        fields.append(F)
        return integrate(F, *args)

    erm = model_bundle("ermakov", omega2=0.9, c1=0.0, c2=0.0)
    hj = model_bundle("hamilton_jacobi")
    with mock.patch.object(sys.modules["folsys.automorphic"], "integrate", recorded):
        solve_matrix(erm.action, reduce_system(erm.system, erm.action), np.ones(1),
                     0.0, 1.0, 0.1)
        solve_abelian(hj.action, reduce_system(hj.system, hj.action), np.zeros(2),
                      0.0, 1.0, 0.1)
    assert [F.route for F in fields] == [_product_block, _sum_block]


# --- the declared Riccati stage ------------------------------------------------

def _per_field_reference(fs):
    """The assembled field written out as the per-field sum
    out = 0; out += c_a X_a(x) over the realized fields, called per stage."""
    def rhs(t, x):
        c = np.asarray(fs.coeffs(t, x))
        out = np.zeros(x.shape)
        for a, X in enumerate(fs.realized.fields):
            out += c[..., a, None] * X(x)
        return out
    return TDependentVectorField(fs.dim, rhs, domain=fs.domain)


def _outcome(F, x0, t1, steps):
    """The trajectory of F from x0, or the blow-up or domain exit it raises,
    as bytes."""
    try:
        traj = integrate(F, x0, 0.0, t1, steps)
    except (BlowUpError, DomainExitError) as exc:
        p = exc.partial
        return type(exc).__name__, exc.t, None if p is None else (p.times.tobytes(),
                                                                  p.states.tobytes())
    return "trajectory", traj.times.tobytes(), traj.states.tobytes()


_SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))


@settings(max_examples=80, deadline=None)
@given(a=st.tuples(_SIGNED, _SIGNED, _SIGNED), timed=st.booleans(),
       x=st.tuples(_SIGNED, _SIGNED, _SIGNED),
       layout=st.sampled_from(["one state", "one grid", "one step per row"]),
       block_steps=st.integers(1, 5),
       runs=st.sampled_from(["K", "K + 1", "2K + 1"]))
# c0 = -0.0 at x = -0.0: a stage without the 0.0 + c0 fold leaves the state
# at -0.0, where the per-field sum, which starts from 0.0, makes it 0.0
@example(a=(-0.0, 1.0, -1.0), timed=False, x=(-0.0, 0.0, -0.0), layout="one grid",
         block_steps=2, runs="K + 1")
def test_fused_stage_equals_the_per_field_sum_bitwise(a, timed, x, layout,
                                                      block_steps, runs):
    # constant coefficients (with c0 = -0.0 among them) or coefficients of
    # time; states at +-0.0 among others; runs that blow up compare their
    # step and partial trajectory
    spec = RiccatiSpec(*(lambda t, c=c: c + 0.25 * np.sin(t) if timed else c
                         for c in a))
    fs = riccati_system(spec).system
    F = assemble(fs)
    assert F.table is not None and F.route is fs.combine is not None
    x0 = np.array(x[:1]) if layout == "one state" else np.array(x)[:, None]
    n = {"K": block_steps, "K + 1": block_steps + 1, "2K + 1": 2 * block_steps + 1}[runs]
    h = 0.8 / n
    steps = [h, min(1.7 * h, 0.8), 0.8] if layout == "one step per row" else h
    # a copy rebuilt from func, as the perfbench tracer rebuilds it, runs per
    # stage on the same stage
    rebuilt = TDependentVectorField(F.dim, F.func, domain=F.domain, name=F.name)
    with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * block_steps * x0.size):
        want = _outcome(_per_field_reference(fs), x0, 0.8, steps)
        assert _outcome(F, x0, 0.8, steps) == want
        assert _outcome(rebuilt, x0, 0.8, steps) == want


def _field_calls(fs, calls):
    """fs with each call of a realized field recorded in ``calls``.  The
    counting fields declare no value or matrix, so this keeps the route only
    of a system stepped by a stage."""
    fields = tuple(VectorField(X.dim, _counted(X.name, X.func, calls), name=X.name)
                   for X in fs.realized.fields)
    return dataclasses.replace(fs, realized=dataclasses.replace(fs.realized, fields=fields))


def test_riccati_takes_the_fused_stage_and_calls_no_realized_field():
    field_calls = []
    rng = seeded_rng(4)
    for name in ("riccati-const", "riccati-sin"):
        fs = _field_calls(TABLE_SYSTEMS[name], field_calls)
        for x0, steps in ((fs.realized.box.sample(rng), 0.05),
                          (fs.realized.box.sample_many(rng, 3), 0.05),
                          (fs.realized.box.sample_many(rng, 3), [0.05, 0.1, 0.3])):
            calls = []
            F = _counted_field(assemble(fs), calls)
            # 20 steps in blocks of 6: 6, 6, 6 and 2, each a table and then
            # four stages a step
            with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * 6 * x0.size):
                integrate(F, x0, 0.0, 1.0, steps)
            assert calls == [kind for k in (6, 6, 6, 2)
                             for kind in ["table"] + ["stage"] * 4 * k], name
            assert field_calls == [], name
    # the coupled Ermakov system declares its stage, which calls no realized
    # field either; without it the fields, neither constant nor linear, are
    # called per stage, each once
    calls = []
    fs = _field_calls(model_bundle("ermakov").system, calls)
    x0 = model_bundle("ermakov").default_state
    integrate(assemble(fs), x0, 0.0, 1.0, 0.05)
    assert calls == []
    integrate(assemble(dataclasses.replace(fs, combine=None)), x0, 0.0, 1.0, 0.05)
    assert calls == ["X1", "X2", "X3"] * 4 * 20
    # x' = 1 + x^2 blows up at t = pi/2: at the step and with the partial
    # trajectory of the per-field sum
    fs = model_bundle("riccati", a2=1.0).system
    for x0 in (np.array([0.0]), np.array([[0.0], [-0.5]])):
        got = _outcome(assemble(fs), x0, 2.0, 0.01)
        assert got[:2] == ("BlowUpError", 1.6)
        assert got == _outcome(_per_field_reference(fs), x0, 2.0, 0.01)


# --- the declared Ermakov stage --------------------------------------------------

def _ermakov_with(g, c1, c2, per_state):
    """The coupled Ermakov system with the constant coefficients g, returned
    as one row ``(3,)`` or one row per state ``(..., 3)``."""
    fs = ermakov_system(ErmakovSpec(omega2=lambda t, I: 1.0, c1=c1, c2=c2)).system
    g = np.array(g)
    return dataclasses.replace(fs, coeffs=(
        lambda t, x: np.broadcast_to(g, x.shape[:-1] + (3,)).copy()) if per_state
        else lambda t, x: g)


def _same_bits(a, b):
    """a and b equal bit for bit, but for the sign and payload of a NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and \
        np.where(nan, 0.0, a).tobytes() == np.where(nan, 0.0, b).tobytes()


_ENTRY = st.one_of(st.floats(-3.0, 3.0),
                   st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
# regular coefficients and states, so that some runs reach t1
_G = st.one_of(st.tuples(*[st.floats(-2.0, 2.0)] * 3), st.tuples(*[_ENTRY] * 3))
_STATE = st.one_of(st.tuples(*[st.floats(0.5, 1.5)] * 2, *[st.floats(-1.0, 1.0)] * 2),
                   st.tuples(*[_ENTRY] * 4))


@settings(max_examples=80, deadline=None)
@given(g=_G,
       c=st.tuples(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
                   st.floats(0.1, 2.0)),
       states=st.lists(_STATE, min_size=1, max_size=3),
       per_state=st.booleans(), guarded=st.booleans(),
       layout=st.sampled_from(["one state", "one grid", "one step per row"]),
       block_steps=st.integers(1, 4))
# the start from 0.0 decides the sign of a zero stage value on Python floats,
# a zero divisor (x = 0) falls back to numpy, and a regular run
@example(g=(1.0, -0.0, -1.0), c=(1.0, 1.0), states=[(0.5, 0.7, -0.0, 0.3)],
         per_state=False, guarded=True, layout="one state", block_steps=2)
@example(g=(1.0, 0.5, 1.2), c=(0.0, 1.3), states=[(0.0, 0.9, 0.1, 0.2), (-0.0, 0.0, 1.0, 0.0)],
         per_state=True, guarded=False, layout="one grid", block_steps=3)
@example(g=(1.0, 0.0, 1.1), c=(1.4, 1.2), states=[(1.1, 0.9, 0.2, 0.3), (1.3, 1.0, -0.1, 0.0)],
         per_state=True, guarded=True, layout="one step per row", block_steps=2)
def test_ermakov_stage_equals_the_per_field_sum_bitwise(g, c, states, per_state, guarded,
                                                        layout, block_steps):
    # coefficients and states with +-0.0, zero divisors (x = 0 or y = 0),
    # +-inf and NaN among them; with or without the domain guard, which
    # stops a run before a zero divisor
    fs = _ermakov_with(g, *c, per_state)
    if not guarded:
        fs = dataclasses.replace(fs, domain=None)
    F, G = assemble(fs), assemble(dataclasses.replace(fs, combine=None))
    assert F.route is fs.combine is not None and G.route is not fs.combine
    batch = np.array(states)
    x0 = batch[0] if layout == "one state" else batch
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the stage alone, on the coefficient rows of one state, each state
        # of the batch and the batch
        for x in (*batch, batch):
            assert _same_bits(F.func(0.0, x), G.func(0.0, x))
        # whole runs: trajectories, or the step and partial of a blow-up or
        # domain exit, over K, K + 1 and 2K + 1 steps of 0.2
        with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * block_steps * x0.size):
            for n in (block_steps, block_steps + 1, 2 * block_steps + 1):
                t1 = 0.2 * n
                steps = 0.2 if layout != "one step per row" else [
                    0.2, min(0.34, t1), t1][:len(batch)]
                assert _outcome(F, x0, t1, steps) == _outcome(G, x0, t1, steps)


# --- the rebuild contract ----------------------------------------------------

ROUTES = {
    "ermakov-stage": model_bundle("ermakov").system,
    "riccati-fused": TABLE_SYSTEMS["riccati-sin"],
    "simpson": TABLE_SYSTEMS["lax-expr"],
    "step-matrices": TABLE_SYSTEMS["ermakov-sin"],
}


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_a_field_rebuilt_from_its_func_takes_the_same_route_to_the_same_bits(name):
    # the perfbench tracer rebuilds every assembled field as a subclass
    # that times its calls, from (F.dim, F.func, domain=F.domain, name=F.name);
    # the subclass sees the stages of a batch, while one state on a declared
    # stage steps on Python floats and calls no field
    calls = []

    class Counted(TDependentVectorField):
        def __call__(self, t, x):
            calls.append(np.shape(x))
            return super().__call__(t, x)

    fs = ROUTES[name]
    F = assemble(fs)
    rebuilt = Counted(F.dim, F.func, domain=F.domain, name=F.name)
    assert F.table is not None and F.route is not None
    assert rebuilt.table is F.table and rebuilt.route is F.route
    rng = seeded_rng(22)
    box = fs.realized.box
    for x0, steps in ((box.sample(rng), 0.01), (box.sample_many(rng, 3), 0.01),
                      (box.sample_many(rng, 3), [0.01, 0.02, 0.03])):
        calls.clear()
        with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * 40 * x0.size):
            got = integrate(rebuilt, x0, 0.0, 1.0, steps)
            # a stage route calls the field at every stage of a batch, a
            # block route never
            stage = F.route not in (_sum_block, _product_block) and x0.ndim == 2
            assert calls == ([x0.shape] * 4 * 100 if stage else [])
            want = integrate(F, x0, 0.0, 1.0, steps)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()


NO_FUNC_ROUTES = dict(ROUTES, **{
    # the coupled Ermakov system without its declared stage: the per-field sum
    "per-field": dataclasses.replace(model_bundle("ermakov").system, combine=None),
    # a coefficient that cannot be evaluated at t = 1.75, on a stage and on
    # the time-only route
    "raises-stage": _configured_system("riccati", {"a0": "1+0*(1/(t-1.75))", "a2": -1}),
    "raises-time-only": _configured_system("hamilton_jacobi", {
        "n": 2, "hamiltonian": "P1/(t-1.75)"}),
})


@pytest.mark.parametrize("name", sorted(NO_FUNC_ROUTES))
def test_integrate_never_calls_the_func_of_a_tabled_field(name):
    # func, the Lie system at its own t and x, is not what integrate steps
    # (on the Ermakov chart it reads I at every stage): a block's table is
    # built from the stage times, also a step at a time after a ConfigError
    calls = []
    fs = NO_FUNC_ROUTES[name]
    F = assemble(fs)
    F = TDependentVectorField.tabled(F.dim, _counted("func", F.func, calls), F.table,
                                     F.route, domain=F.domain)
    box = fs.realized.box
    rng = seeded_rng(23)
    for x0, steps in ((box.sample(rng), 0.125), (box.sample_many(rng, 3), 0.125),
                      (box.sample_many(rng, 3), [0.125, 0.25, 0.5])):
        with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * 4 * x0.size):
            if name.startswith("raises-"):
                with pytest.raises(ConfigError, match="cannot be evaluated"):
                    integrate(F, x0, 0.0, 2.0, steps)
            else:
                integrate(F, x0, 0.0, 2.0, steps)
    assert calls == []


# --- one state on Python floats ------------------------------------------------

FLOAT_RUNS = {
    # name: the system, x0, the step, the steps n (odd) and how the run ends
    "ermakov": (model_bundle("ermakov").system, [1.0, 1.0, 0.0, 1.0], 0.125, 17,
                "trajectory"),
    "ermakov-reads-I": (_configured_system("ermakov", {"omega2": "1+0.02*I"}),
                        [1.2, 0.9, 0.1, 0.8], 0.125, 17, "trajectory"),
    # x^2 the largest term: a stage whose x^2 is x * x changes the bits
    "riccati-const": (_configured_system("riccati", {"a0": 100.0, "a2": -1.0}),
                      [-9.0], 0.01, 401, "trajectory"),
    "riccati-texpr": (_configured_system("riccati", {
        "a0": "4+2*sin(3*t)", "a1": "cos(t)", "a2": -1.0}), [2.0], 0.05, 401,
        "trajectory"),
    # x' = 1 + x^2 and x0 = 1e308: math.pow overflows, and the block re-runs
    # on numpy, which blows up at the step
    "riccati-blow-up": (_configured_system("riccati", {"a0": 1.0, "a2": 1.0}),
                        [0.0], 0.125, 17, "BlowUpError"),
    "riccati-1e308": (model_bundle("riccati").system, [1e308], 0.125, 17,
                      "BlowUpError"),
    # x' = vx = -1 reaches x = 0 at t = 0.5 with no domain guard: a zero
    # divisor, on numpy inf
    "ermakov-zero-divisor": (
        dataclasses.replace(_ermakov_with((1.0, 0.0, 0.0), 1.0, 0.0, False), domain=None),
        [0.5, 1.0, -1.0, 0.0], 0.125, 7, "BlowUpError"),
    # the table raises at t = 1.75, in the step from 1.625
    "table-raises": (NO_FUNC_ROUTES["raises-stage"], [0.5], 0.125, 17, "ConfigError"),
}


def _one_solution(F, x0, t1, h):
    """The run of F from x0, one state ``(N,)`` or a batch of one ``(1, N)``,
    as bytes of its one solution, or the error it raises with its message,
    and the time and partial trajectory of a blow-up or domain exit."""
    try:
        traj = integrate(F, x0, 0.0, t1, h)
    except (BlowUpError, DomainExitError) as exc:
        p = exc.partial  # states (T, N), or (T, 1, N) for the batch
        return (type(exc).__name__, str(exc), exc.t, None if p is None
                else (p.times.tobytes(), p.states.reshape(len(p), -1).tobytes()))
    except ConfigError as exc:
        return type(exc).__name__, str(exc)
    return "trajectory", traj.times.tobytes(), traj.states.reshape(len(traj), -1).tobytes()


@pytest.mark.parametrize("name", sorted(FLOAT_RUNS))
def test_one_state_on_python_floats_equals_its_batch_of_one_bitwise(name):
    # one state on a declared stage steps on the stage's float form, a batch
    # of one on numpy; Python raises on a zero divisor and where math.pow
    # overflows, and the block then re-runs on the numpy loop
    fs, x0, h, n, ends = FLOAT_RUNS[name]
    F = assemble(fs)
    assert F.route.floats is fs.combine.floats
    x0 = np.array(x0)
    float_steps, blocks = folsys_integrate._float_steps, []

    def recorded(*args):
        blocks.append(float_steps(*args))
        return blocks[-1]

    # blocks of K steps: runs of K, K + 1 and 2K + 1 steps
    for K in (n, n - 1, (n - 1) // 2):
        blocks.clear()
        with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * K * x0.size), \
                mock.patch.object(folsys_integrate, "_float_steps", recorded):
            got = _one_solution(F, x0, n * h, h)
            assert _one_solution(F, x0[None], n * h, h) == got
        assert got[0] == ends
        # a blow-up: the block re-run on numpy; else every block on floats
        assert blocks and (False in blocks) == (ends == "BlowUpError")


def _rational_terms(c0, c1, *x):
    """A rational, quadratic coordinate sum, on Python floats or on numpy
    columns alike: c0 x_{i-1} - c1 x_i^2 / (1 + |x|^2)."""
    s = 1.0
    for v in x:
        s = s + v * v
    return tuple(c0 * x[i - 1] - c1 * (x[i] * x[i]) / s for i in range(len(x)))


def _rational_system(n, floats=_rational_terms):
    """The Lie system of n coordinates on the declared stage
    ``_rational_terms``, with the float form ``floats``."""
    def combine(c, s):
        return np.concatenate(
            _rational_terms(*c, *np.moveaxis(s, -1, 0)[..., None]), axis=-1)

    combine.floats = floats
    fields = [VectorField(n, lambda x: x, name=f"X{a}") for a in (1, 2)]
    return lie_system(fields, lambda t, x: np.stack([np.cos(t), 0.5 + np.sin(t)], -1),
                      combine=combine)


_FLOAT_RUN = dict(n=st.integers(1, 6), h=st.floats(0.01, 0.5), K=st.integers(1, 8),
                  steps=st.integers(1, 20), data=st.data())


def _draw_state(data, n):
    return np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(**_FLOAT_RUN)
def test_one_state_on_the_float_block_equals_its_batch_of_one_bitwise(n, h, K, steps, data):
    F, x0 = _rational_system(n), _draw_state(data, n)
    assert F.route.floats is _rational_terms
    blocks = []

    def recorded(*args):
        blocks.append(_float_steps(*args))
        return blocks[-1]

    with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * K * n), \
            mock.patch.object(folsys_integrate, "_float_steps", recorded):
        one = integrate(F, x0, 0.0, steps * h, h)
        batch = integrate(F, x0[None], 0.0, steps * h, h)
    assert blocks and all(blocks)
    assert one.times.tobytes() == batch.times.tobytes()
    assert one.states.tobytes() == batch.states[:, 0].tobytes()
    # the step of each dimension is built once
    assert _float_block(n) is _float_block(n)


@settings(max_examples=60, deadline=None)
@given(**_FLOAT_RUN)
def test_a_float_block_that_raises_writes_nothing_and_reruns_on_numpy(n, h, K, steps, data):
    x0 = _draw_state(data, n)
    grid = time_grid(0.0, steps * h, h)
    # the stage call that raises, four a step
    at = data.draw(st.integers(0, 4 * (len(grid) - 1) - 1))

    def raising():
        calls = iter(range(at + 1))

        def form(*args):
            if next(calls, None) == at:
                raise ZeroDivisionError
            return _rational_terms(*args)
        return form

    # the first block, on its own: False, and its states untouched
    F = _rational_system(n, raising())
    with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * (at // 4 + 1) * n):
        k0, dts, _, values = next(_stage_values(F, x0, grid))
    states = np.full((len(grid), n), np.nan)
    states[0] = x0
    before = states.tobytes()
    assert not _float_steps(F.route.floats, states, k0, dts, values)
    assert states.tobytes() == before
    # in a run, the block holding the raising stage re-runs on numpy
    F, blocks = _rational_system(n, raising()), []

    def recorded(*args):
        blocks.append(_float_steps(*args))
        return blocks[-1]

    with mock.patch.object(folsys_integrate, "TABLE_BLOCK", 3 * K * n), \
            mock.patch.object(folsys_integrate, "_float_steps", recorded):
        one = integrate(F, x0, 0.0, steps * h, h)
        batch = integrate(F, x0[None], 0.0, steps * h, h)
    assert blocks.count(False) == 1
    assert one.states.tobytes() == batch.states[:, 0].tobytes()


# --- solve_matrix on the kernel ----------------------------------------------

def matrix_rk4_reference(action, coeffs, k, times):
    """RK4 written out on d x d matrices, as a reference for solve_matrix:
    the row-major entries ``(T, d*d)`` of the matrices."""
    def coeff_matrix(t):
        M = np.zeros_like(action.generators[0])
        for c, A in zip(coeffs(t, k), action.generators):
            M += c * A
        return M

    g = np.eye(action.generators[0].shape[0])
    out = [g]
    for t, t_next in zip(times[:-1], times[1:]):
        dt = t_next - t
        k1 = coeff_matrix(t) @ g
        k2 = coeff_matrix(t + 0.5 * dt) @ (g + 0.5 * dt * k1)
        k3 = coeff_matrix(t + 0.5 * dt) @ (g + 0.5 * dt * k2)
        k4 = coeff_matrix(t + dt) @ (g + dt * k3)
        g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(g)
    return np.array(out).reshape(len(out), -1)


def test_solve_matrix_matches_reference_loop():
    spec = ErmakovSpec(omega2=lambda t, I: 1.0 + 0.1 * np.sin(t) + 0.02 * I,
                       c1=0.0, c2=0.0)
    fs = ermakov_system(spec).system
    action = ermakov_matrix_action(spec)
    x0 = np.array([1.0, 1.2, 0.3, -0.2])
    erm = (action, reduce_system(fs, action), leaf_of(fs.chart, x0))

    glp = (group_action(MATRIX, SPLIT_MATRICES),
           lambda t, k: -np.stack([1.0 + 0.5 * np.sin(t), -0.7 * np.cos(t)], axis=-1),
           np.zeros(0))

    for case in (erm, glp):
        curve = solve_matrix(*case, 0.0, 1.0, 3e-3)
        assert curve.states.shape == (len(curve), 4)
        # the step matrices change the order of operations: the stated
        # tolerance against the reference, and the same bits on every run
        assert_within_tolerance(curve.states, matrix_rk4_reference(*case, curve.times))
        again = solve_matrix(*case, 0.0, 1.0, 3e-3)
        assert curve.states.tobytes() == again.states.tobytes()
