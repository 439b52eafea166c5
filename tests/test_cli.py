import json
import math
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folsys.automorphic
import folsys.cli
from folsys.cli import (ScenarioConfig, build_bundle, compile_expression,
                        main, run)
from folsys.errors import ConfigError
from folsys.integrate import integrate


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
    for model, check in (("riccati", "spectrum"), ("lax", "lewis")):
        cfg = ScenarioConfig.from_dict({
            "model": model, "checks": [check], "out": str(tmp_path),
        })
        with pytest.raises(ConfigError, match=f"check '{check}' not supported"):
            run(cfg)


def test_run_integrates_the_scenario_trajectory_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    for module in (folsys.cli, folsys.automorphic):
        monkeypatch.setattr(module, "integrate", counting)
    cfg = ScenarioConfig.from_dict({
        "model": "lax", "checks": ["leaf_drift", "spectrum", "automorphic"],
        "integration": {"t0": 0.0, "t1": 1.0, "step": 1e-2},
        "out": str(tmp_path),
    })
    reports, _ = run(cfg)
    assert all(r.status == "pass" for r in reports)
    # the scenario flow, then the abelian quadrature of the reconstruction
    assert len(calls) == 2


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
