"""The reference scenarios of ``scripts/output_digest.py``, run once through
``cli.run``: the rows they report, and their trajectories against an
independent solver."""
import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from folsys.cli import ROWS, ScenarioConfig, build_bundle, run
from folsys.foliated import coefficient_values

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
# DOP853 tolerances, and the bound on its sup gap to each RK4 trajectory,
# relative to max(1, max|x|): the gap is the RK4 error of the reference steps
SOLVER_TOL = 1e-11
GAP_BOUND = 1e-8


def _reference_configs():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.reference_configs())


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """(name, config, reports, trajectory) of every reference scenario."""
    out = []
    for i, (name, raw) in enumerate(_reference_configs()):
        cfg = ScenarioConfig.from_dict(dict(raw, out=str(tmp_path_factory.mktemp(f"ref{i}"))))
        with contextlib.redirect_stdout(io.StringIO()):
            reports, files = run(cfg)
        traj = np.loadtxt(files["trajectory"], delimiter=",", skiprows=1, ndmin=2)
        out.append((name, cfg, reports, traj))
    return out


def test_the_references_report_every_row_of_ROWS_and_no_other(references):
    assert len(references) == 50
    assert {r.check for _, _, reports, _ in references for r in reports} == set(ROWS)


def test_every_reference_trajectory_agrees_with_an_independent_solver(references):
    # the full Lie system sum_a g_a(t, x) X_a(x), its coefficients read at
    # every state: no table, no route and no declared stage of folsys
    worst = []
    for name, cfg, _, traj in references:
        fs = build_bundle(cfg).system
        r = len(fs.fields)

        def rhs(t, x):
            c = coefficient_values(fs.coeffs, r, np.asarray(t), x)
            return sum(c[a] * X(x) for a, X in enumerate(fs.fields))

        times, states = traj[:, 0], traj[:, 1:]
        sol = solve_ivp(rhs, (times[0], times[-1]), states[0], method="DOP853",
                        t_eval=times, rtol=SOLVER_TOL, atol=SOLVER_TOL)
        assert sol.success, (name, sol.message)
        gap = np.max(np.abs(sol.y.T - states)) / max(1.0, np.max(np.abs(states)))
        worst.append((gap / GAP_BOUND, name))
    assert max(worst)[0] <= 1.0, sorted(worst)[-5:]
