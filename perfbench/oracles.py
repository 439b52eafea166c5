"""Checks on the files a scenario writes: report rows, closed forms, repeats.

A scenario fails when it raised, when its ``report.json`` is missing or has
a row whose status is not ``pass`` or lacks a row for a requested check,
when its ``trajectory.csv`` departs from the member's closed form, or when a
repeat of the same config writes different deterministic output.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from scenarios import ORACLE_TOL

# report.json fields that must repeat bit for bit (runtime_s is wall clock)
DETERMINISTIC_FIELDS = ("check", "model", "status", "value", "tolerance", "seed")


def riccati_closed_form(a0: float, a1: float, a2: float, x0: float,
                        t0: float, t: np.ndarray) -> np.ndarray:
    """x' = a0 + a1 x + a2 x^2 with two real roots r1, r2:
    u = (x - r1)/(x - r2) obeys u' = a2 (r1 - r2) u."""
    d = math.sqrt(a1 * a1 - 4.0 * a0 * a2)
    r1, r2 = (-a1 + d) / (2.0 * a2), (-a1 - d) / (2.0 * a2)
    u = (x0 - r1) / (x0 - r2) * np.exp(a2 * (r1 - r2) * (t - t0))
    return ((r1 - r2 * u) / (1.0 - u))[:, None]


def translation_closed_form(scale: float, amplitudes, cross: float,
                            state0: np.ndarray, t0: float,
                            t: np.ndarray) -> np.ndarray:
    """Momentum-conserving flow of H = sum_i A_i cos(t P_i) + C P_1 P_2.

    Q_i' = scale * (A_i t sin(t P_i) - C P_j), so Q_i(t) = Q_i(t0) +
    scale * [A_i (sin tP - tP cos tP) / P^2 - C P_j t] between t0 and t;
    scale is 1 for hamilton_jacobi and 2 for the block model.
    """
    n = len(amplitudes)
    P = state0[n:]
    out = np.empty((t.size, 2 * n))
    out[:, n:] = P

    def F(tt, i):
        tp = tt * P[i]
        return amplitudes[i] * (np.sin(tp) - tp * np.cos(tp)) / P[i] ** 2

    for i in range(n):
        drift = F(t, i) - F(t0, i)
        if cross:
            drift = drift - cross * P[1 - i] * (t - t0)
        out[:, i] = state0[i] + scale * drift
    return out


def harmonic_closed_form(omega2: float, state0: np.ndarray, t0: float,
                         t: np.ndarray) -> np.ndarray:
    """Uncoupled Ermakov (x, y, vx, vy) with constant frequency: x'' = -w^2 x."""
    w = math.sqrt(omega2)
    c, s = np.cos(w * (t - t0)), np.sin(w * (t - t0))
    x, y, vx, vy = state0
    return np.column_stack([x * c + vx / w * s, y * c + vy / w * s,
                            -x * w * s + vx * c, -y * w * s + vy * c])


def closed_form(oracle: dict, state0: np.ndarray, t0: float,
                t: np.ndarray) -> np.ndarray:
    kind = oracle["kind"]
    if kind == "riccati":
        return riccati_closed_form(oracle["a0"], oracle["a1"], oracle["a2"],
                                   float(state0[0]), t0, t)
    if kind == "translation":
        return translation_closed_form(oracle["scale"], oracle["amplitudes"],
                                       oracle["cross"], state0, t0, t)
    if kind == "harmonic":
        return harmonic_closed_form(oracle["omega2"], state0, t0, t)
    raise ValueError(f"unknown oracle kind {kind!r}")


def oracle_error(member: dict, trajectory: np.ndarray) -> float:
    """Sup-norm gap between the written trajectory and the closed form
    through the config's initial state."""
    cfg = member["config"]
    exact = closed_form(member["oracle"], np.asarray(cfg["initial_state"], dtype=float),
                        cfg["integration"]["t0"], trajectory[:, 0])
    return float(np.max(np.abs(trajectory[:, 1:] - exact)))


class Verifier:
    """Checks scenario outputs and remembers each member's first output digest."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.oracle_checks = 0
        self.oracle_worst = 0.0
        self.repeat_checks = 0

    def check(self, member: dict, out_dir: Path, error: str | None) -> list[str]:
        """Problems found in one scenario; empty when it is verified."""
        if error is not None:
            return [f"raised {error}"]
        report_path = out_dir / "report.json"
        traj_path = out_dir / "trajectory.csv"
        if not report_path.is_file():
            return ["missing report.json"]
        if not traj_path.is_file():
            return ["missing trajectory.csv"]
        problems = []
        rows = json.loads(report_path.read_text(encoding="utf-8"))
        for row in rows:
            if row.get("status") != "pass":
                problems.append(f"row {row.get('check')} status {row.get('status')}")
        reported = {str(row.get("check", "")).split(".")[0] for row in rows}
        missing = set(member["config"]["checks"]) - reported
        if missing:
            problems.append(f"no rows for checks {sorted(missing)}")

        raw = traj_path.read_bytes()
        if member["oracle"] is not None:
            trajectory = np.loadtxt(traj_path, delimiter=",", skiprows=1, ndmin=2)
            horizon = member["config"]["integration"]
            if (trajectory[0, 0], trajectory[-1, 0]) != (horizon["t0"], horizon["t1"]):
                problems.append("trajectory does not span the horizon")
            err = oracle_error(member, trajectory)
            self.oracle_checks += 1
            self.oracle_worst = max(self.oracle_worst, err)
            if not err <= ORACLE_TOL:
                problems.append(f"trajectory off closed form by {err:.3e}")

        kept = [{k: row.get(k) for k in DETERMINISTIC_FIELDS} for row in rows]
        digest = hashlib.sha256(
            raw + json.dumps(kept, sort_keys=True).encode()).hexdigest()
        first = self.digests.get(member["name"])
        if first is None:
            self.digests[member["name"]] = digest
        else:
            self.repeat_checks += 1
            if first != digest:
                problems.append("output differs from an earlier repeat of the same config")
        return problems
