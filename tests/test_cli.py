import dataclasses
import itertools
import json
import math
import re
import struct
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folsys.automorphic
import folsys.cli
import folsys.superposition
from folsys.cli import (ScenarioConfig, build_bundle, compile_expression,
                        main, run)
from folsys.algebra import builtin_algebra
from folsys.errors import ConfigError
from folsys.fields import RealizedAlgebra, TDependentVectorField, VectorField
from folsys.foliated import FoliatedSystem, FoliationChart, assemble
from folsys import models as mdl
from folsys.integrate import Trajectory, integrate, trajectory_to_csv
from folsys.superposition import rule_points
from folsys.util import Box


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "model": "hamilton_jacobi",
        "params": {"n": 2, "hamiltonian": "sum_cos"},
        "integration": {"t0": 0.0, "t1": 2.0, "step": 1e-3},
        "checks": ["leaf_drift", "superposition"],
        "seed": 42,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


# --- expression grammar --------------------------------------------------------

def test_expression_arithmetic_and_functions():
    fn = compile_expression("1 + 0.1*sin(t) - I/2 + pow(t, 2)", ("t", "I"))
    t, I = 0.7, 1.4
    assert fn(t, I) == pytest.approx(1 + 0.1 * np.sin(t) - I / 2 + t ** 2)
    fn2 = compile_expression("cos(t*P1) + P2**2", ("t", "P1", "P2"))
    assert fn2(0.5, 1.0, 2.0) == pytest.approx(np.cos(0.5) + 4.0)


def test_expression_rejects_unsafe_syntax():
    for bad in ("__import__('os')", "t.__class__", "exp(t)", "x", "[1,2]",
                "lambda: 1", "'s'"):
        with pytest.raises(ConfigError):
            compile_expression(bad, ("t",))


@pytest.mark.parametrize("text", ["1/(t-t)", "pow(-t, 0.5)", "(-t)**0.5",
                                  "10.0**(1000*t)"])
def test_expression_arithmetic_errors_are_config_errors(text):
    fn = compile_expression(text, ("t",))
    with pytest.raises(ConfigError, match="cannot be evaluated"):
        fn(1.0)


@pytest.mark.parametrize("text", ["sin(t, t)", "cos()", "pow(t)", "pow(t, I, t)"])
def test_expression_call_arity_is_checked_at_compile_time(text):
    with pytest.raises(ConfigError, match="argument"):
        compile_expression(text, ("t", "I"))


def test_cli_call_arity_error_exits_2_before_writing_output(tmp_path):
    path = write_config(tmp_path / "bad.json", model="ermakov",
                        params={"omega2": "sin(t, t)"}, checks=["lewis"])
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "folsys.cli", "--config", str(path),
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not out.exists()


def test_cli_integer_constant_beyond_float_range_exits_2(tmp_path):
    with pytest.raises(ConfigError, match="out of float range"):
        compile_expression("1" + "0" * 400, ("t",))
    path = write_config(tmp_path / "huge.json",
                        params={"n": 1, "hamiltonian": "1" + "0" * 400 + "*P1"})
    proc = subprocess.run([sys.executable, "-m", "folsys.cli", "--config", str(path),
                           "--out", str(tmp_path / "o")], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# fully parenthesised expressions over the whitelisted grammar
_VARIABLES = ("t", "P1", "I")
_LEAVES = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(_VARIABLES))


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("({0[0]} {0[1]} {0[2]})".format),
        st.tuples(inner, inner).map("({0[0]} ** {0[1]})".format),
        st.tuples(st.sampled_from("+-"), inner).map("{0[0]}({0[1]})".format),
        st.tuples(st.sampled_from(("sin", "cos")), inner).map("{0[0]}({0[1]})".format),
        st.tuples(inner, inner).map("pow({0[0]}, {0[1]})".format))


def _same_bits(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _compound, max_leaves=10),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_compiled_expression_matches_python_eval(text, values):
    fn = compile_expression(text, _VARIABLES)
    env = {"__builtins__": {}, "sin": math.sin, "cos": math.cos, "pow": math.pow}
    try:
        want = eval(text, env, dict(zip(_VARIABLES, values)))
    except (ArithmeticError, ValueError, TypeError):
        want = None
    if not isinstance(want, float):
        # the reference raised, or a negative base gave a complex power
        with pytest.raises(ConfigError, match="cannot be evaluated"):
            fn(*values)
        return
    got = fn(*values)
    assert _same_bits(got, want), (text, values, got, want)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _compound, max_leaves=10),
       st.lists(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_compiled_expression_on_a_block_matches_python_eval(text, rows):
    # one call on the columns of a block: every element bitwise equal to
    # Python's float evaluation of its row, and an error if any row raises
    fn = compile_expression(text, _VARIABLES)
    env = {"__builtins__": {}, "sin": math.sin, "cos": math.cos, "pow": math.pow}
    want = []
    for values in rows:
        try:
            want.append(eval(text, env, dict(zip(_VARIABLES, values))))
        except (ArithmeticError, ValueError, TypeError):
            want.append(None)
    columns = np.array(rows).T
    if not all(isinstance(w, float) for w in want):
        with pytest.raises(ConfigError, match="cannot be evaluated"):
            fn(*columns)
        return
    # an expression without variables gives one value for the whole block
    got = np.broadcast_to(fn(*columns), (len(rows),))
    for g, w in zip(got, want):
        assert _same_bits(float(g), w), (text, rows, got, want)


@pytest.mark.parametrize("text", ["1/(t-2)", "pow(1-t, 0.5)", "(1-t)**0.5",
                                  "10.0**(400*t)", "0.0**(1.5-t)", "sin(1e308*t*t)",
                                  "cos(1e308*t*t)"])
def test_expression_error_in_one_element_of_a_block(text):
    fn = compile_expression(text, ("t",))
    # each text raises at t = 2 and nowhere else in the block
    assert np.all(np.isfinite(fn(np.array([0.5, 0.25]))))
    with pytest.raises(ConfigError, match="cannot be evaluated"):
        fn(np.array([0.5, 2.0, 0.25]))


def test_expression_block_overflow_and_underflow_do_not_raise():
    # like Python floats: + - * overflow to inf, underflow is silent
    fn = compile_expression("1e308*t + 10.0**(-400*t) + 2.2e-308*t/1e10", ("t",))
    assert fn(np.array([10.0, 1.0]))[0] == math.inf
    assert fn(np.array([10.0, 1.0]))[1] == 1e308 + 10.0 ** -400 + 2.2e-308 / 1e10


# --- config validation -----------------------------------------------------------

def test_config_rejects_bad_step_and_horizon():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"model": "riccati",
                                  "integration": {"step": -1.0},
                                  "checks": ["superposition"]})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"model": "riccati",
                                  "integration": {"t0": 1.0, "t1": 0.0}})


def test_config_rejects_unknown_model_and_check():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"model": "pendulum"})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"model": "riccati", "checks": ["entropy"]})


def test_build_bundle_expression_models():
    cfg = ScenarioConfig.from_dict({
        "model": "ermakov",
        "params": {"omega2": "1+0.1*sin(t)", "c1": 1.0, "c2": 1.0},
    })
    bundle = build_bundle(cfg)
    assert bundle.name == "ermakov"
    cfg2 = ScenarioConfig.from_dict({
        "model": "hamilton_jacobi",
        "params": {"n": 1, "hamiltonian": "cos(t*P1)"},
    })
    b2 = build_bundle(cfg2)
    assert b2.spec.H(0.5, np.array([1.2])) == pytest.approx(np.cos(0.6))


# --- running scenarios -----------------------------------------------------------

def test_run_all_checks_pass(tmp_path):
    cfg = ScenarioConfig.from_dict({
        "model": "hamilton_jacobi",
        "params": {"n": 2},
        "integration": {"t0": 0.0, "t1": 2.0, "step": 1e-3},
        "checks": ["foliated", "leaf_drift", "superposition", "automorphic",
                   "poisson"],
        "seed": 42,
        "out": str(tmp_path / "out"),
    })
    reports, files = run(cfg)
    assert len(reports) >= 12
    assert all(r.status == "pass" for r in reports)
    assert Path(files["trajectory"]).exists()
    header = Path(files["trajectory"]).read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,x4"


def test_run_rejects_unsupported_check(tmp_path):
    for model, check in (("riccati", "spectrum"), ("lax", "lewis"),
                         ("ermakov", "superposition"), ("riccati", "automorphic")):
        cfg = ScenarioConfig.from_dict({
            "model": model, "checks": ["leaf_drift", check], "out": str(tmp_path),
        })
        with pytest.raises(ConfigError, match=f"check '{check}' not supported"):
            run(cfg)
        # rejected before any integration
        assert not (tmp_path / "trajectory.csv").exists()


def test_run_integrates_the_scenario_trajectory_once(tmp_path, monkeypatch):
    calls = []

    def counting(F, *args, **kwargs):
        calls.append(F.dim)
        return integrate(F, *args, **kwargs)

    for module in (folsys.cli, folsys.automorphic, folsys.superposition):
        monkeypatch.setattr(module, "integrate", counting)
    for checks in (["leaf_drift", "spectrum", "automorphic"],
                   ["leaf_drift", "superposition", "spectrum"]):
        calls.clear()
        cfg = ScenarioConfig.from_dict({
            "model": "lax", "checks": checks,
            "integration": {"t0": 0.0, "t1": 1.0, "step": 1e-2},
            "out": str(tmp_path),
        })
        reports, _ = run(cfg)
        assert all(r.status == "pass" for r in reports)
        # the scenario flow (state dimension 4) once: the superposition
        # trials ride in the scenario's batch; the reconstruction integrates
        # its abelian group curve (dimension 2) once more
        assert calls == [4] + [2] * ("automorphic" in checks)


@pytest.mark.parametrize("model, params", [
    ("riccati", {}),
    ("riccati", {"a0": "sin(t)", "a1": "0.5*cos(t)", "a2": -1}),
    ("hamilton_jacobi", {"n": 2}),
    ("lax", {"n": 2}),
    ("lax", {"n": 3, "hamiltonian": "cos(P1) + P2*P3 + t*P1**2"}),
])
def test_scenario_row_of_the_rule_batch_is_bitwise_its_own_run(model, params):
    bundle = build_bundle(ScenarioConfig.from_dict({"model": model,
                                                    "params": params}))
    pts = rule_points(bundle.rule, bundle.system, trials=3, seed=5,
                      min_separation=bundle.extras.get("rule_min_separation", 0.0))
    F = assemble(bundle.system)
    x0 = bundle.default_state
    alone = integrate(F, x0, 0.0, 1.0, 0.01).states
    joint = integrate(F, np.vstack([pts, x0]), 0.0, 1.0, 0.01).states
    assert np.array_equal(joint[:, -1], alone)


def test_failing_trials_keep_the_scenario_trajectory(tmp_path, capsys):
    # x' = x^2 from -0.5 stays finite; rule trials from positive states blow up
    path = write_config(tmp_path / "blow.json", model="riccati",
                        params={"a0": 0, "a1": 0, "a2": 1},
                        integration={"t0": 0, "t1": 3, "step": 0.01},
                        initial_state=[-0.5], checks=["superposition"])
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["--config", str(path), "--out", str(out)])
    assert rc == 2
    assert "blow-up at t=1.21" in capsys.readouterr().err
    bundle = build_bundle(ScenarioConfig.from_dict(json.loads(path.read_text())))
    trajectory_to_csv(integrate(assemble(bundle.system), np.array([-0.5]),
                                0.0, 3.0, 0.01), tmp_path / "alone.csv")
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def _count_integrate(monkeypatch):
    """Calls of ``integrate`` made by the runner and by ``convergence_order``."""
    calls = []

    def counting(F, *args, **kwargs):
        calls.append(F.dim)
        return integrate(F, *args, **kwargs)

    for module in (folsys.cli, sys.modules["folsys.integrate"]):
        monkeypatch.setattr(module, "integrate", counting)
    return calls


def test_convergence_runs_join_the_superposition_batch(tmp_path, monkeypatch):
    calls = _count_integrate(monkeypatch)
    for step, count in ((0.005, 1), (0.01, 1), (0.02, 4)):
        calls.clear()
        reports, _ = run(ScenarioConfig.from_dict({
            "model": "riccati", "checks": ["superposition", "convergence"],
            "integration": {"t0": 0.0, "t1": 2.0, "step": step},
            "out": str(tmp_path)}))
        assert all(r.status == "pass" for r in reports)
        # one batch when the scenario grid is the finest, (t1 - t0)/200 or less
        assert len(calls) == count, step


@pytest.mark.parametrize("params", [
    {},
    # coefficients that keep every sampled solution bounded up to t1
    {"a0": "1.4+0.1*sin(t)", "a1": "0.05*cos(t)", "a2": "-0.7+0.05*cos(t)"},
])
def test_convergence_order_is_bitwise_the_same_in_the_joint_batch(
        tmp_path, monkeypatch, params):
    calls = _count_integrate(monkeypatch)
    rows, csv = {}, {}
    for checks in (["convergence"], ["superposition", "convergence"]):
        calls.clear()
        out = tmp_path / str(len(checks))
        reports, files = run(ScenarioConfig.from_dict({
            "model": "riccati", "params": params, "checks": checks,
            "integration": {"t0": 0.0, "t1": 2.0, "step": 0.005},
            "out": str(out)}))
        # x0 alone and its three convergence runs, or the one joint batch
        assert len(calls) == (1 if "superposition" in checks else 4)
        rows[len(checks)] = {r.check: r.value for r in reports}
        csv[len(checks)] = Path(files["trajectory"]).read_bytes()
    assert rows[2]["convergence.order_gap"] == rows[1]["convergence.order_gap"]
    assert csv[2] == csv[1]


def test_blow_up_in_the_joint_batch_keeps_its_error_and_exit_code(tmp_path, capsys,
                                                                   monkeypatch):
    calls = _count_integrate(monkeypatch)
    path = write_config(tmp_path / "blow.json", model="riccati",
                        params={"a0": 1, "a2": 1},
                        integration={"t0": 0, "t1": 2, "step": 0.01},
                        checks=["superposition", "convergence"])
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["--config", str(path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: blow-up at t=1.6"
    # the joint batch, the trials with x0 on the scenario grid, then x0 alone
    assert len(calls) == 3
    assert not (out / "trajectory.csv").exists()


def test_step_count_beyond_the_cap_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path / "long.json",
                        integration={"t0": 0, "t1": 1e300, "step": 1e-10})
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: step 1e-10 makes inf steps from t0 to t1; at most 1000000 are allowed\n")
    assert not out.exists()
    ok = write_config(tmp_path / "ok.json")
    assert main(["--config", str(ok), "--out", str(out), "--step", "1e-7"]) == 2
    assert "makes 2e+07 steps" in capsys.readouterr().err
    assert not out.exists()
    ScenarioConfig(model="riccati", t1=1.0, step=2.0 ** -19)  # 524288 steps
    with pytest.raises(ConfigError):
        ScenarioConfig(model="riccati", t1=1.0, step=2.0 ** -20)


def test_state_array_beyond_the_cap_is_a_config_error(tmp_path, capsys, monkeypatch):
    def no_integration(*args):
        raise AssertionError("integrate reached")

    monkeypatch.setattr(folsys.cli, "integrate", no_integration)
    # 100002 samples x 7 rows (3 trials of 2 points, then x0) x 40 coordinates
    path = write_config(tmp_path / "big.json", params={"n": 20, "hamiltonian": "sum_cos"},
                        integration={"t0": 0, "t1": 2.0, "step": 2e-5})
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: the RK4 batch would hold 28000560 state values (7 rows of dimension "
        "40); at most 5000000 are allowed\n")
    assert not out.exists()
    # one row of 50 coordinates: 100000 samples reach the cap, 100001 exceed it
    for t1, allowed in ((49999.0, True), (49999.5, False)):
        cfg = ScenarioConfig(model="hamilton_jacobi", params={"n": 25}, t1=t1,
                             step=0.5, checks=("leaf_drift",), out=str(out / str(t1)))
        with pytest.raises(AssertionError if allowed else ConfigError):
            run(cfg)
        assert (out / str(t1)).exists() == allowed


def test_cli_exit_codes_and_reports(tmp_path):
    cfg_path = write_config(tmp_path / "ok.json",
                            checks=["leaf_drift", "spectrum"], model="lax")
    out = tmp_path / "out-ok"
    rc = main(["--config", str(cfg_path), "--out", str(out), "--format", "csv"])
    assert rc == 0
    rows = json.loads((out / "report.json").read_text())
    assert all(r["status"] == "pass" for r in rows)
    assert (out / "report.csv").exists()

    # a coarse step makes the conserved-quantity drift visibly fail
    bad_path = write_config(tmp_path / "bad.json", model="ermakov",
                            params={"omega2": "1+0.1*sin(t)"},
                            integration={"t0": 0.0, "t1": 5.0, "step": 0.5},
                            checks=["lewis"])
    rc = main(["--config", str(bad_path), "--out", str(tmp_path / "out-bad")])
    assert rc == 1
    rows = json.loads((tmp_path / "out-bad" / "report.json").read_text())
    assert any(r["status"] == "fail" for r in rows)


def test_cli_riccati_seed_2_fits_its_rule(tmp_path):
    # a seed whose cross-ratio fit lies beyond the pole of the rule in k
    config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "riccati.json"
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "folsys.cli", "--config", str(config),
                           "--seed", "2", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((out / "report.json").read_text())
    assert {"superposition.first_integral", "superposition.reconstruction"} <= {
        r["check"] for r in rows}


def test_cli_config_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"model": "riccati",
                                "integration": {"step": -1},
                                "checks": ["superposition"]}))
    rc = main(["--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("overrides", [
    {"integration": {"t0": 0.0, "t1": 1.0, "step": 2}},
    {"integration": {"step": "nan"}},
    {"integration": {"t1": "inf"}},
    {"model": "lax", "params": {"n": 0}},
    {"model": "lax", "params": {"n": 2.7}},
    {"model": "lax", "params": {"n": True}},
    {"model": "lax", "params": {"n": "3"}},
    {"initial_state": [[0.0, 0.0, 1.0, 1.5]]},
    {"integration": [1, 2]},
    {"params": [1]},
    {"model": "riccati", "params": {}, "initial_state": [0.1, 0.2]},
    {"model": "ermakov", "params": {"omega2": "1/(t-t)"}},
    {"seed": "abc"},
    {"seed": -1},
    {"checks": 5},
    {"model": "ermakov", "params": {"c1": "abc"}},
    {"model": "riccati", "params": {"a9": 1}},
    {"format": "xml"},
])
def test_cli_invalid_config_values_exit_2(tmp_path, capsys, overrides):
    path = write_config(tmp_path / "bad.json", **overrides)
    rc = main(["--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def _negated_constants(fs):
    alg = fs.realized.algebra
    realized = dataclasses.replace(
        fs.realized, algebra=dataclasses.replace(alg, structure=-alg.structure))
    return dataclasses.replace(fs, realized=realized)


def _nan_field(fs):
    # X2 is NaN for x < -0.5: inside the sampling box [-0.9, 0.9], but away
    # from the trajectory from x0 = 0, which rises to tanh(2)
    X2 = fs.realized.fields[2]
    nan = dataclasses.replace(
        X2, func=lambda x: np.where(x < -0.5, np.nan, X2.func(x)))
    realized = dataclasses.replace(fs.realized,
                                   fields=fs.realized.fields[:2] + (nan,))
    return dataclasses.replace(fs, realized=realized)


def _vanishing_field(fs):
    # one field vanishing for x < 0: the rank drops on half the sampling box,
    # and x0 = 0 stays put
    X = VectorField(1, lambda x: np.maximum(x, 0.0), name="X")
    ra = RealizedAlgebra(builtin_algebra("abelian:1"), (X,), Box([-1.0], [1.0]))
    return FoliatedSystem(ra, lambda t, x: np.ones(1), FoliationChart.split(1, 1))


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("model, broken, failing", [
    ("riccati", _negated_constants, {"foliated.structure"}),
    ("ermakov", _negated_constants, {"foliated.structure"}),
    ("riccati", _nan_field,
     {"foliated.com_residual", "foliated.rank", "foliated.structure"}),
    ("riccati", _vanishing_field, {"foliated.rank"}),
], ids=("riccati-negated", "ermakov-negated", "nan-field", "vanishing-field"))
def test_cli_foliated_rows_fail_on_broken_realizations(tmp_path, monkeypatch,
                                                       model, broken, failing):
    def build(cfg):
        bundle = build_bundle(cfg)
        return dataclasses.replace(bundle, system=broken(bundle.system))

    monkeypatch.setattr(folsys.cli, "build_bundle", build)
    cfg_path = write_config(tmp_path / "cfg.json", model=model, params={},
                            checks=["foliated"])
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 1
    rows = {r["check"]: r for r in json.loads((out / "report.json").read_text(),
                                              parse_constant=_reject_constant)}
    assert set(rows) == {"foliated.com_residual", "foliated.chart_residual",
                         "foliated.rank", "foliated.structure"}
    assert {name for name, r in rows.items() if r["status"] == "fail"} == failing
    if broken is _nan_field:
        # strict JSON: the NaN is written as a string
        assert rows["foliated.structure"]["value"] == "nan"
    elif broken is _vanishing_field:
        assert rows["foliated.rank"]["value"] == 1.0
    else:
        assert rows["foliated.structure"]["value"] > 1.0


def test_cli_lax_pair_row_fails_on_a_doubled_coefficient_map(tmp_path, monkeypatch):
    # doubled coefficients still leave P, hence the spectrum, constant, but
    # the assembled field is no longer the commutator [V, M]
    def build(cfg):
        bundle = build_bundle(cfg)
        fs = bundle.system
        doubled = dataclasses.replace(fs, coeffs=lambda t, x: 2.0 * fs.coeffs(t, x))
        return dataclasses.replace(bundle, system=doubled)

    monkeypatch.setattr(folsys.cli, "build_bundle", build)
    cfg_path = write_config(tmp_path / "cfg.json", model="lax", checks=["spectrum"])
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 1
    rows = {r["check"]: r for r in json.loads((out / "report.json").read_text())}
    assert set(rows) == {"spectrum.drift", "spectrum.lax_pair"}
    assert rows["spectrum.drift"]["status"] == "pass"
    assert rows["spectrum.lax_pair"]["status"] == "fail"
    assert rows["spectrum.lax_pair"]["value"] > 0.1


def test_cli_ermakov_uncoupled_automorphic(tmp_path):
    cfg = ScenarioConfig.from_dict({
        "model": "ermakov",
        "params": {"omega2": "1+0.1*sin(t)", "c1": 0.0, "c2": 0.0},
        "integration": {"t0": 0.0, "t1": 2.0, "step": 1e-3},
        "checks": ["automorphic", "lewis"],
        "out": str(tmp_path / "out"),
        "initial_state": [1.0, 1.2, 0.3, -0.2],
    })
    reports, _ = run(cfg)
    assert all(r.status == "pass" for r in reports)


def test_report_render_empty(tmp_path, capsys):
    from folsys.cli import report_render
    written = report_render([], tmp_path)
    assert json.loads(Path(written["report_json"]).read_text()) == []
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1  # header only


def test_cli_list_models(capsys):
    assert main(["--list-models"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["riccati", "hamilton_jacobi", "lax", "ermakov"]


def test_cli_subprocess_list_models():
    proc = subprocess.run([sys.executable, "-m", "folsys.cli", "--list-models"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    names = proc.stdout.split()
    assert "riccati" in names and "ermakov" in names


def test_repeated_runs_identical_reports(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main(["--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    rows_a = json.loads((outs[0] / "report.json").read_text())
    rows_b = json.loads((outs[1] / "report.json").read_text())
    # runtime_s is a wall-clock measurement; every reported value must agree
    # bitwise between runs
    for ra, rb in zip(rows_a, rows_b):
        ra.pop("runtime_s")
        rb.pop("runtime_s")
    assert rows_a == rows_b
    assert (outs[0] / "trajectory.csv").read_bytes() == \
        (outs[1] / "trajectory.csv").read_bytes()


def test_rows_of_one_call_share_its_runtime(tmp_path, monkeypatch):
    # a clock that advances by one at every reading: a row timed alone, or
    # rows computed by one call, span exactly one reading after their start
    clock = itertools.count()
    monkeypatch.setattr(folsys.cli, "time",
                        types.SimpleNamespace(perf_counter=lambda: float(next(clock))))
    cfg = ScenarioConfig.from_dict({
        "model": "lax", "integration": {"t0": 0.0, "t1": 1.0, "step": 0.01},
        "checks": ["foliated", "superposition", "spectrum", "poisson", "convergence"],
        "out": str(tmp_path)})
    reports, _ = run(cfg)
    assert len(reports) == 4 + 2 + 2 + 5 + 1
    assert {r.runtime_s for r in reports} == {1.0}


def test_a_scenario_assembles_its_field_once(tmp_path, monkeypatch):
    calls = []

    def counting(fs):
        calls.append(fs.name)
        return assemble(fs)

    monkeypatch.setattr(folsys.cli, "assemble", counting)
    # no superposition: the convergence runs do not join a batch
    reports, _ = run(ScenarioConfig.from_dict({
        "model": "lax", "checks": ["spectrum", "convergence"],
        "integration": {"t0": 0.0, "t1": 1.0, "step": 0.01}, "out": str(tmp_path)}))
    assert [r.check for r in reports] == ["convergence.order_gap", "spectrum.drift",
                                          "spectrum.lax_pair"]
    assert len(calls) == 1


# --- coefficient tables against the per-stage field ----------------------------

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _per_stage_assemble(fs):
    """The assembled field called per stage: a plain function drops the table
    and combine that a copy rebuilt from ``func`` keeps.  The step-matrix
    route stays, since it changes the order of operations (test_integrate
    checks it against the per-stage loop within its tolerance)."""
    F = assemble(fs)
    func = F.func if F.matrices is not None else (lambda t, x: F.func(t, x))
    return TDependentVectorField(F.dim, func, domain=F.domain, name=F.name)


def _leafwise_per_stage(x0):
    """``_per_stage_assemble`` of the leafwise system through x0: every
    stage reads the coefficients at x0 instead of at its own state."""
    def build(fs):
        return _per_stage_assemble(dataclasses.replace(
            fs, coeffs=lambda t, x: fs.coeffs(t, np.broadcast_to(x0, x.shape))))
    return build


def _outputs(raw, out):
    """The report rows, their values as bytes, and the trajectory csv of ``raw``."""
    reports, files = run(ScenarioConfig.from_dict(dict(raw, out=str(out))))
    return ([(r.check, struct.pack("<d", r.value)) for r in reports],
            Path(files["trajectory"]).read_bytes())


def _csv_states(text: bytes) -> np.ndarray:
    return np.loadtxt(text.decode().splitlines()[1:], delimiter=",", ndmin=2)[:, 1:]


# the bundled configs, an interpreted hamilton_jacobi whose convergence runs
# join the superposition batch (one step per row), a single-state
# interpreted lax, an uncoupled Ermakov (step matrices) and a coupled one
# whose frequency reads I.  Every Ermakov run starts at the config's x0, so
# its leafwise system is the one through x0
BITWISE_CONFIGS = [pytest.param(json.loads(path.read_text()), id=path.stem)
                   for path in sorted(CONFIGS.glob("*.json"))] + [
    pytest.param({"model": "hamilton_jacobi",
                  "params": {"n": 3, "hamiltonian": "cos(t*P1)+P2*P3+0.3*sin(t)*P1**2"},
                  "integration": {"t0": 0.0, "t1": 1.0, "step": 0.004},
                  "checks": ["superposition", "convergence", "automorphic"]},
                 id="hamilton_jacobi-expr-joint"),
    pytest.param({"model": "lax",
                  "params": {"n": 2, "hamiltonian": "cos(t*P1)+0.7*P1*P2"},
                  "integration": {"t0": 0.0, "t1": 1.5, "step": 0.003},
                  "checks": ["leaf_drift", "spectrum", "automorphic", "convergence"]},
                 id="lax-expr-single"),
    pytest.param({"model": "ermakov",
                  "params": {"omega2": "0.9+0.05*sin(t)", "c1": 0.0, "c2": 0.0},
                  "integration": {"t0": 0.0, "t1": 1.0, "step": 0.002},
                  "initial_state": [1.2, 1.1, 0.1, -0.1],
                  "checks": ["automorphic", "foliated", "lewis", "convergence"]},
                 id="ermakov-uncoupled"),
    pytest.param({"model": "ermakov",
                  "params": {"omega2": "1+0.1*sin(t)+0.05*I"},
                  "integration": {"t0": 0.0, "t1": 1.0, "step": 0.002},
                  "checks": ["leaf_drift", "lewis", "convergence"]},
                 id="ermakov-reads-I"),
]


@pytest.mark.parametrize("raw", BITWISE_CONFIGS)
def test_bundled_configs_are_bitwise_the_same_on_the_per_stage_field(
        raw, tmp_path, monkeypatch):
    tabled = _outputs(raw, tmp_path / "tabled")
    per_stage = _per_stage_assemble
    if raw["model"] == "ermakov":
        cfg = ScenarioConfig.from_dict(raw)
        x0 = (build_bundle(cfg).default_state if cfg.initial_state is None
              else np.array(cfg.initial_state))
        per_stage = _leafwise_per_stage(x0)
    monkeypatch.setattr(folsys.cli, "assemble", per_stage)
    assert _outputs(raw, tmp_path / "per-stage") == tabled
    if raw["model"] == "ermakov":
        # the full per-stage field reads the coefficients at each stage
        # state: within the stated tolerance, 1e-10 max(1, max|x|)
        monkeypatch.setattr(folsys.cli, "assemble", _per_stage_assemble)
        got, want = (_csv_states(out[1]) for out in (
            tabled, _outputs(raw, tmp_path / "full")))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def _stderr_lines(config: dict, tmp_path) -> tuple[int, list[str]]:
    """Exit code and stderr of ``python -m folsys.cli`` on ``config``, each
    warning's location cut to the file name."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    proc = subprocess.run([sys.executable, "-m", "folsys.cli", "--config", str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    return proc.returncode, [re.sub(r"^\S*/(\w+\.py):\d+:", r"\1:", line)
                             for line in proc.stderr.splitlines()]


def test_an_error_in_a_coefficient_table_keeps_the_blow_up_before_it(tmp_path):
    # the table of the only block cannot be built (a0 divides by zero at
    # t = 1.75); stepped per stage, the run blows up at t = 0.375 first
    rc, err = _stderr_lines({
        "model": "riccati", "params": {"a0": "1+0*(1/(t-1.75))", "a2": 1},
        "initial_state": [10.0], "checks": ["foliated"],
        "integration": {"t0": 0, "t1": 2, "step": 0.125}}, tmp_path)
    assert rc == 2
    # the per-stage loop warns about none of its non-finite values
    assert err == ["error: blow-up at t=0.375"]


def test_riccati_blow_up_keeps_its_warnings_and_error(tmp_path):
    rc, err = _stderr_lines({
        "model": "riccati", "params": {"a0": 1, "a2": 1},
        "checks": ["foliated", "superposition"],
        "integration": {"t0": 0, "t1": 2, "step": 0.01}}, tmp_path)
    assert rc == 2
    # the RK4 loop warns about neither the overflow in x^2 nor the NaN after it
    assert err == ["error: blow-up at t=1.6"]


def _moving_lax_trajectory(bundle, samples):
    """Samples of the lax model whose labels (the spectrum) grow with time."""
    n = bundle.spec.n
    times = np.linspace(0.0, 2.0, samples)
    states = np.tile(bundle.default_state, (samples, 1))
    states[:, n:] *= 1.0 + 0.1 * times[:, None]
    return Trajectory(times, states, times[1])


def test_spectrum_rows_over_blocks_equal_one_pass_and_bound_memory():
    cfg = ScenarioConfig.from_dict({"model": "lax", "checks": ["spectrum"],
                                    "params": {"n": 8, "hamiltonian": "sum_cos"}})
    bundle = build_bundle(cfg)
    fs = bundle.system
    # doubled coefficients: the field is no longer [V, M], by more as t grows
    bundle = dataclasses.replace(bundle, system=dataclasses.replace(
        fs, coeffs=lambda t, x: 2.0 * fs.coeffs(t, x)))
    F = assemble(bundle.system)

    def spectrum_rows(traj):
        scenario = folsys.cli.Scenario(cfg, bundle, F, traj)
        return [row for group in folsys.cli.CHECKS["spectrum"].rows(scenario)
                for row in group]

    traj = _moving_lax_trajectory(bundle, 2001)
    rows = spectrum_rows(traj)
    # the rows as evaluated on the whole trajectory at once
    spectra = bundle.observables["spectrum"](traj.states)
    gaps = np.abs(F.func(traj.times, traj.states)
                  - mdl.lax_pair_rhs(bundle.spec, traj.times, traj.states))
    assert [value for _, value, _ in rows] == [np.max(np.abs(spectra - spectra[0])),
                                               np.max(gaps)]
    # both maxima lie beyond the first block of 256 samples
    assert np.argmax(np.abs(spectra - spectra[0]).max(axis=1)) == 2000
    assert np.argmax(gaps.max(axis=1)) > 256
    # the (16, 16) matrices of 2001 and of 8001 samples: 16.8 and 67 MB at
    # once, about 2.2 MB a block at a time
    for samples in (2001, 8001):
        long = _moving_lax_trajectory(bundle, samples)
        tracemalloc.start()
        try:
            spectrum_rows(long)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, (samples, peak)
