import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from folsys.algebra import builtin_realization
from folsys.automorphic import (MATRIX, AutomorphicSystem, reduce_system,
                                solve_matrix)
from folsys.errors import (BlowUpError, DimensionMismatchError,
                           DomainExitError, ErrorFloorError)
from folsys.fields import RealizedAlgebra, TDependentVectorField, VectorField
from folsys.foliated import (FoliatedSystem, FoliationChart, assemble,
                             leaf_of)
from folsys.integrate import (Trajectory, convergence_order, integrate,
                              interpolate, trajectory_to_csv)
from folsys.models import (MODEL_NAMES, ErmakovSpec, default_model,
                           ermakov_matrix_action, ermakov_system)
from folsys.util import Box, seeded_rng

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


def test_interpolate_constant_and_midpoint():
    traj = Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [2.0]]), 1.0)
    assert interpolate(traj, 0.5)[0] == pytest.approx(1.0)
    czero = integrate(ZERO, np.array([1.0, 2.0, 3.0]), 0.0, 1.0, 0.25)
    assert np.array_equal(interpolate(czero, 0.4), czero.states[0])


def test_interpolate_exact_at_nodes():
    traj = integrate(EXP, np.array([1.0]), 0.0, 1.0, 0.1)
    for k in (0, 3, len(traj) - 1):
        assert np.array_equal(interpolate(traj, traj.times[k]), traj.states[k])


def test_interpolate_out_of_range():
    traj = integrate(EXP, np.array([1.0]), 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        interpolate(traj, -0.1)
    with pytest.raises(ValueError):
        interpolate(traj, 1.1)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.0))
def test_interpolate_linear_between_nodes(t):
    traj = Trajectory(np.array([0.0, 1.0]), np.array([[0.0, 1.0], [2.0, 3.0]]), 1.0)
    val = interpolate(traj, t)
    assert np.allclose(val, [2.0 * t, 1.0 + 2.0 * t], atol=1e-12)


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

@pytest.mark.parametrize("name", MODEL_NAMES)
def test_batch_equals_single_runs(name):
    fs = default_model(name).system
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
                              domain=lambda x: x[0] < 0.5)
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
    ra = RealizedAlgebra(builtin_realization("abelian:1").algebra, (X,),
                         Box([-1.0], [1.0]))
    F = assemble(FoliatedSystem(ra, lambda t, x: np.ones(1), FoliationChart.split(1, 1)))
    assert integrate(F, np.array([0.0]), 0.0, 0.1, 0.01).final_state[0] > 0.0
    with pytest.raises(DimensionMismatchError):
        integrate(F, np.zeros((3, 1)), 0.0, 0.1, 0.01)


def test_csv_export_rejects_batch(tmp_path):
    traj = integrate(EXP, np.array([[1.0], [2.0]]), 0.0, 0.1, 1e-2)
    with pytest.raises(ValueError):
        trajectory_to_csv(traj, tmp_path / "batch.csv")


# --- solve_matrix on the kernel ----------------------------------------------

def matrix_rk4_reference(asys, k, times):
    """RK4 written out on d x d matrices, as a reference for solve_matrix."""
    def coeff_matrix(t):
        M = np.zeros_like(asys.generators[0])
        for c, A in zip(asys.coeffs(t, k), asys.generators):
            M += c * A
        return M

    g = np.eye(asys.generators[0].shape[0])
    out = [g]
    for t, t_next in zip(times[:-1], times[1:]):
        dt = t_next - t
        k1 = coeff_matrix(t) @ g
        k2 = coeff_matrix(t + 0.5 * dt) @ (g + 0.5 * dt * k1)
        k3 = coeff_matrix(t + 0.5 * dt) @ (g + 0.5 * dt * k2)
        k4 = coeff_matrix(t + dt) @ (g + dt * k3)
        g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(g)
    return np.array(out)


def test_solve_matrix_matches_reference_loop():
    spec = ErmakovSpec(omega2=lambda t, I: 1.0 + 0.1 * np.sin(t) + 0.02 * I,
                       c1=0.0, c2=0.0)
    fs = ermakov_system(spec).system
    erm = reduce_system(fs, ermakov_matrix_action(spec))
    k = leaf_of(fs.chart, np.array([1.0, 1.2, 0.3, -0.2]))

    real = builtin_realization("glp:1")
    glp = AutomorphicSystem.from_reduction(
        MATRIX, real.matrices,
        lambda t, k: np.array([1.0 + 0.5 * np.sin(t), -0.7 * np.cos(t)]), 0,
        algebra=real.algebra)

    for asys, kk in ((erm, k), (glp, np.zeros(0))):
        curve = solve_matrix(asys, kk, 0.0, 1.0, 3e-3)
        assert curve.elements.shape == (len(curve), 2, 2)
        assert np.array_equal(curve.elements,
                              matrix_rk4_reference(asys, kk, curve.times))
