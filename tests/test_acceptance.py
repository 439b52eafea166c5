"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import json
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from folsys.algebra import InvariantMetric, builtin_algebra, killing_form
from folsys.automorphic import (MATRIX, reconstruct, reconstruction_error,
                                reduce_system, solve_abelian, solve_matrix)
from folsys.fields import directional_derivative, structure_residual
from folsys.foliated import assemble, leaf_drift, verify_foliated
from folsys.integrate import convergence_order, integrate
from folsys.fields import TDependentVectorField
from folsys.models import hj_system, lax_spectrum, lax_system, sum_cos_gradient
from folsys.poisson import (adjoint_foliated_system, check_rmatrix_hamiltonian,
                            hamiltonian_residual, is_foliated_lie_hamilton,
                            jacobiator, kirillov_bivector, linear_coordinates,
                            poisson_bracket, rmatrix_bivector_aff)
from folsys.superposition import verify_rule
from folsys.util import coordinate_function, seeded_rng

from .conftest import group_action, model_bundle


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_algebra_axioms():
    worst_j = 0.0
    for name in ("sl2", "abelian:2", "abelian:3"):
        c = builtin_algebra(name).structure
        # [[e_a, e_b], e_g] summed over the cyclic permutations of (a, b, g)
        term = np.einsum("abm,mgn->abgn", c, c)
        cyclic = term + term.transpose(1, 2, 0, 3) + term.transpose(2, 0, 1, 3)
        worst_j = max(worst_j, float(np.max(np.abs(cyclic))))
    K = killing_form(builtin_algebra("sl2"))
    expected = np.array([[0.0, 0.0, 4.0], [0.0, 8.0, 0.0], [4.0, 0.0, 0.0]])
    killing_exact = np.array_equal(K, expected)
    ok = worst_j <= 1e-12 and killing_exact
    report(1, "algebra axioms", ok,
           f"jacobi={worst_j:.2e} killing_exact={killing_exact}")


def test_criterion_02_integrator_order():
    F = TDependentVectorField(1, lambda t, x: x.copy())
    order = convergence_order(F, np.array([1.0]), 0.0, 1.0, 0.05)
    err = abs(integrate(F, np.array([1.0]), 0.0, 1.0, 1e-3).final_state[0] - math.e)
    ok = 3.8 <= order <= 4.2 and err <= 1e-11
    report(2, "integrator order", ok, f"order={order:.3f} |x(1)-e|={err:.2e}")


def test_criterion_03_foliated_verification():
    worst = 0.0
    all_rank = True
    systems = [hj_system(n, sum_cos_gradient).system for n in (1, 2, 3)]
    systems += [lax_system(n, sum_cos_gradient).system for n in (1, 2, 3)]
    systems.append(model_bundle("ermakov").system)
    for fs in systems:
        rep = verify_foliated(fs, trials=100, seed=42)
        worst = max(worst, rep.com_residual)
        all_rank = all_rank and rep.rank_shortfall == 0.0
    ok = worst <= 1e-6 and all_rank
    report(3, "foliated verification", ok,
           f"max com_residual={worst:.2e} rank_ok={all_rank}")


def test_criterion_04_leaf_invariance():
    drifts = {}
    for name in ("hamilton_jacobi", "lax"):
        b = model_bundle(name)
        traj = integrate(assemble(b.system), b.default_state, 0.0, 2.0, 1e-3)
        drifts[name] = leaf_drift(traj, b.system.chart)
    erm = model_bundle("ermakov")
    traj = integrate(assemble(erm.system), erm.default_state, 0.0, 5.0, 1e-3)
    rel = leaf_drift(traj, erm.system.chart) / abs(
        erm.observables["lewis"](erm.default_state))
    ok = drifts["hamilton_jacobi"] == 0.0 and drifts["lax"] == 0.0 and rel <= 1e-6
    report(4, "leaf invariance", ok,
           f"hj={drifts['hamilton_jacobi']} lax={drifts['lax']} "
           f"ermakov_rel={rel:.2e}")


def test_criterion_05_minimal_solution_counts(minimal_solutions):
    # least m whose field values on blocks of m points reach rank dim V
    systems = {name: model_bundle(name).system
               for name in ("riccati", "hamilton_jacobi", "lax")}
    counts = {name: minimal_solutions(fs.algebra, fs.fields, fs.box)
              for name, fs in systems.items()}
    ok = counts == {"riccati": 3, "hamilton_jacobi": 1, "lax": 1}
    report(5, "minimal solution counts", ok, f"{counts}")


def test_criterion_06_superposition():
    hj = model_bundle("hamilton_jacobi")
    rep_hj = verify_rule(hj.rule, hj.system, (0.0, 2.0), trials=3, seed=42)
    lax = model_bundle("lax")
    rep_lax = verify_rule(lax.rule, lax.system, (0.0, 2.0), trials=3, seed=42)

    ric = model_bundle("riccati")
    F = assemble(ric.system)
    trajs = [integrate(F, np.array([u]), 0.0, 2.0, 1e-3)
             for u in (-0.8, -0.3, 0.3, 0.8)]

    def cross_ratio(us):
        u1, u2, u3, u4 = us
        return ((u1 - u3) * (u2 - u4)) / ((u2 - u3) * (u1 - u4))

    ref = cross_ratio([tr.states[0, 0] for tr in trajs])
    cr_drift = max(abs(cross_ratio([tr.states[i, 0] for tr in trajs]) - ref)
                   for i in range(len(trajs[0])))

    counts_ok = all(
        b.rule.m * b.rule.param_dim >= b.system.algebra.dim for b in (hj, lax, ric))
    ok = (rep_hj.max_reconstruction_error <= 1e-8
          and rep_lax.max_reconstruction_error <= 1e-8
          and cr_drift <= 1e-6 and counts_ok)
    report(6, "superposition", ok,
           f"hj={rep_hj.max_reconstruction_error:.2e} "
           f"lax={rep_lax.max_reconstruction_error:.2e} "
           f"cross_ratio_drift={cr_drift:.2e} counts_ok={counts_ok}")


def test_criterion_07_group_reconstruction():
    rng = seeded_rng(10)
    errs = {}
    for name in ("hamilton_jacobi", "lax"):
        b = model_bundle(name)
        x0 = b.system.box.sample(rng)
        direct = integrate(assemble(b.system), x0, 0.0, 2.0, 1e-3)
        errs[name] = reconstruction_error(b.system, b.action, direct)

    e1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    h1 = np.array([[2.0, 0.0], [0.0, 0.0]])
    worst_mat = 0.0
    for gen, coeff in ((e1, 1.0), (h1, 1.0), (h1, -0.7)):
        curve = solve_matrix(group_action(MATRIX, (gen,)),
                             lambda t, k, _c=coeff: np.array([-_c]),
                             np.zeros(0), 0.0, 1.0, 1e-3)
        closed = scipy.linalg.expm(-coeff * gen)
        worst_mat = max(worst_mat, float(np.max(np.abs(curve.states[-1].reshape(2, 2) - closed))))

    hj = model_bundle("hamilton_jacobi")
    curve0 = solve_abelian(hj.action, lambda t, k: -np.zeros(2), np.array([1.0, 1.5]),
                           0.0, 2.0, 1e-3)
    x0 = np.array([0.3, -0.4, 1.0, 1.5])
    rec0 = reconstruct(hj.action, curve0, x0)
    identity_exact = bool(np.all(rec0.states == x0))

    ok = (errs["hamilton_jacobi"] <= 1e-8 and errs["lax"] <= 1e-8
          and worst_mat <= 1e-10 and identity_exact)
    report(7, "group reconstruction", ok,
           f"hj={errs['hamilton_jacobi']:.2e} lax={errs['lax']:.2e} "
           f"matrix_vs_exp={worst_mat:.2e} identity_exact={identity_exact}")


def test_criterion_08_shared_reduction():
    # the Hamiltonian and block models reduce to one translation system,
    # and each reconstructs its own flow from it
    hj, lax = model_bundle("hamilton_jacobi"), model_bundle("lax")
    hj_red = reduce_system(hj.system, hj.action)
    lax_red = reduce_system(lax.system, lax.action)
    rng = seeded_rng(8)
    ts = rng.uniform(0.0, 2.0, 50)
    ks = rng.uniform(0.5, 2.0, size=(50, 2))
    coeff = max(float(np.max(np.abs(hj_red(t, k) - lax_red(t, k))))
                for t, k in zip(ts, ks))
    errs = {}
    for b in (hj, lax):
        direct = integrate(assemble(b.system), b.default_state, 0.0, 2.0, 1e-3)
        errs[b.system.name] = reconstruction_error(b.system, b.action, direct)
    traj = integrate(assemble(hj_system(1, sum_cos_gradient).system),
                     np.array([0.0, 1.0]), 0.0, np.pi, 1e-3)
    q_err = abs(traj.final_state[0] - np.pi)
    ok = (coeff <= 1e-12 and errs["hamilton_jacobi"] <= 1e-8
          and errs["lax"] <= 1e-8 and q_err <= 1e-8)
    report(8, "shared reduction", ok,
           f"coeff={coeff:.2e} hj={errs['hamilton_jacobi']:.2e} "
           f"lax={errs['lax']:.2e} |Q(pi)-pi|={q_err:.2e}")


def test_criterion_09_ermakov_structure():
    erm = model_bundle("ermakov")
    X1, X2, X3 = erm.system.fields
    lw = erm.observables["lewis"]
    rng = seeded_rng(42)
    pts = np.array([erm.system.box.sample(rng) for _ in range(100)])
    # [X1, X2] = X1, [X1, X3] = 2 X2, [X2, X3] = X3
    worst_br = structure_residual(erm.system.algebra, erm.system.fields, pts)
    worst_dd = 0.0
    for s in pts:
        for X in (X1, X2, X3):
            worst_dd = max(worst_dd, abs(directional_derivative(X, lw, s)))
    ok = worst_br <= 1e-6 and worst_dd <= 1e-8
    report(9, "ermakov structure", ok,
           f"bracket={worst_br:.2e} X(invariant)={worst_dd:.2e}")


def test_criterion_10_poisson_layer():
    sl2 = builtin_algebra("sl2")
    metric = InvariantMetric(sl2, killing_form(sl2))
    L = kirillov_bivector(sl2, metric)
    lin = linear_coordinates(metric)
    c = sl2.structure
    rng = seeded_rng(42)
    pts = rng.uniform(-2, 2, size=(100, 3))
    ident = max(abs(poisson_bracket(L.at(v), lin[a], lin[b])
                    - sum(c[a, b, g] * lin[g](v) for g in range(3)))
                for v in pts for a in range(3) for b in range(3))
    coords3 = [coordinate_function(i, 3) for i in range(3)]
    jac_k = max(abs(jacobiator(L.at(v), *coords3)) for v in pts)

    Lr = rmatrix_bivector_aff(2)
    aff_pts = np.column_stack([rng.uniform(0.5, 2, 100), rng.uniform(-1, 1, 100),
                               rng.uniform(0.5, 2, 100), rng.uniform(-1, 1, 100)])
    coords4 = [coordinate_function(i, 4) for i in range(4)]
    jac_r = max(abs(jacobiator(Lr.at(x), coords4[i], coords4[j], coords4[k]))
                for x in aff_pts
                for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4))

    adj = adjoint_foliated_system(sl2, metric)
    adj_pts = adj.box.sample_many(rng, 100)
    adj_res = max(hamiltonian_residual(L.at(adj_pts), X, f)
                  for X, f in zip(adj.fields, lin))
    rmat_res = max(check_rmatrix_hamiltonian(2, aff_pts[:50]))
    flh = max(is_foliated_lie_hamilton(adj, L, lin, trials=100, seed=42))

    ok = (ident <= 1e-12 and jac_k <= 1e-10 and jac_r <= 1e-10
          and adj_res <= 1e-8 and rmat_res <= 1e-8 and flh <= 1e-8)
    report(10, "poisson layer", ok,
           f"identity={ident:.2e} jacobiators=({jac_k:.2e},{jac_r:.2e}) "
           f"adjoint={adj_res:.2e} rmatrix={rmat_res:.2e} lie_hamilton={flh:.2e}")


def test_criterion_11_isospectrality():
    worst = 0.0
    for n in (1, 2, 3):
        bundle = lax_system(n, sum_cos_gradient)
        traj = integrate(assemble(bundle.system), bundle.default_state,
                         0.0, 2.0, 1e-3)
        ref = lax_spectrum(n, traj.states[0])
        worst = max(worst, max(float(np.max(np.abs(lax_spectrum(n, s) - ref)))
                               for s in traj.states))
    ok = worst <= 1e-12
    report(11, "isospectrality", ok, f"max spectrum drift={worst:.2e}")


def test_criterion_12_cli_determinism(tmp_path):
    cfg = {
        "model": "hamilton_jacobi",
        "params": {"n": 2, "hamiltonian": "sum_cos"},
        "integration": {"t0": 0.0, "t1": 2.0, "step": 1e-3},
        "checks": ["leaf_drift", "superposition", "automorphic"],
        "seed": 42,
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg))
    reports = []
    for sub in ("run-a", "run-b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "folsys.cli", "--config", str(cfg_path),
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports.append(out)
    rows = []
    for out in reports:
        data = json.loads((out / "report.json").read_text())
        for r in data:
            r.pop("runtime_s")  # wall-clock measurement, not a check value
        rows.append(data)
    same_rows = rows[0] == rows[1]
    same_traj = (reports[0] / "trajectory.csv").read_bytes() == \
        (reports[1] / "trajectory.csv").read_bytes()
    ok = same_rows and same_traj
    report(12, "cli determinism", ok,
           f"reports_identical={same_rows} trajectory_identical={same_traj}")
