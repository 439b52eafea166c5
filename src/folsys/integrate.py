"""Classical fixed-step RK4 with trajectory storage and order diagnostics.

Fixed step only: the verification harness needs reproducible, bitwise
deterministic runs, not adaptive efficiency.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BlowUpError, DomainExitError, ErrorFloorError
from .fields import TDependentVectorField

DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution curve; the last interval may be shorter.

    ``states`` has shape ``(T, N)`` for one solution or ``(T, B, N)`` for a
    batch of B solutions sampled on the same grid.
    """

    times: np.ndarray
    states: np.ndarray
    step: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or x.ndim not in (2, 3) or t.size != x.shape[0]:
            raise ValueError("times and states must be aligned 1-d / 2-d or 3-d arrays")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        t.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)

    def __len__(self) -> int:
        return self.times.size

    @property
    def state_dim(self) -> int:
        return self.states.shape[-1]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()


def _time_grid(t0: float, t1: float, h: float) -> np.ndarray:
    n_full = int(np.floor((t1 - t0) / h + 1e-9))
    times = t0 + h * np.arange(n_full + 1)
    if times[-1] < t1 - 1e-9 * h:
        times = np.append(times, t1)
    else:
        times[-1] = t1  # land on t1 exactly, absorbing grid roundoff
    return times


def integrate(F: TDependentVectorField, x0, t0: float, t1: float,
              h: float = DEFAULT_STEP) -> Trajectory:
    """Classical 4th-order Runge-Kutta from t0 to t1 (reached exactly).

    ``x0`` is one state ``(N,)`` or a batch ``(B, N)`` of independent states
    stepped together on one grid; ``F`` is then called on the whole batch and
    must return an array of the same shape.  Every row of a batch goes
    through the domain guard, and a blow-up or domain exit in any row raises
    at the earliest failing step with the whole batch as ``partial``.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[-1] != F.dim:
        raise ValueError(f"initial state must have shape ({F.dim},) or (B, {F.dim})")
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    if not 0.0 < h <= t1 - t0:
        raise ValueError("need 0 < h <= t1 - t0")
    inside = F.domain
    if inside is not None and x0.ndim == 2:
        inside = lambda x: all(F.domain(row) for row in x)
    if inside is not None and not inside(x0):
        raise DomainExitError(t0, "initial state outside domain")

    times = _time_grid(t0, t1, h)
    states = np.empty((times.size,) + x0.shape)
    states[0] = x0
    x = x0.copy()
    grid = times.tolist()  # Python floats: no numpy scalar per stage
    for k in range(times.size - 1):
        t = grid[k]
        dt = grid[k + 1] - t
        mid = t + 0.5 * dt
        k1 = F(t, x)
        k2 = F(mid, x + 0.5 * dt * k1)
        k3 = F(mid, x + 0.5 * dt * k2)
        k4 = F(t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise BlowUpError(times[k + 1], partial=_partial(times, states, k, h))
        if inside is not None and not inside(x):
            raise DomainExitError(times[k + 1],
                                  partial=_partial(times, states, k, h))
        states[k + 1] = x
    return Trajectory(times, states, h)


def _partial(times, states, k, h):
    # samples up to the last accepted step; reported alongside guard exits
    if k < 1:
        return None
    return Trajectory(times[:k + 1].copy(), states[:k + 1].copy(), h)


def interpolate(traj: Trajectory, t: float) -> np.ndarray:
    """Piecewise-linear interpolation; bitwise exact at stored sample times."""
    times = traj.times
    if t < times[0] or t > times[-1]:
        raise ValueError(f"t out of range: {t} not in [{times[0]}, {times[-1]}]")
    idx = int(np.searchsorted(times, t))
    if idx < times.size and times[idx] == t:
        return traj.states[idx].copy()
    lo, hi = idx - 1, idx
    w = (t - times[lo]) / (times[hi] - times[lo])
    return (1.0 - w) * traj.states[lo] + w * traj.states[hi]


def convergence_order(F: TDependentVectorField, x0, t0: float, t1: float,
                      h: float) -> float:
    """log2 of the terminal-error ratio between steps h and h/2.

    The h/4 run serves as the reference; the expected value for a smooth
    problem is log2((1 - 4^-4)/(2^-4 - 4^-4)) = log2(17) ~ 4.09.
    """
    ref = integrate(F, x0, t0, t1, h / 4.0).final_state
    e1 = float(np.max(np.abs(integrate(F, x0, t0, t1, h).final_state - ref)))
    e2 = float(np.max(np.abs(integrate(F, x0, t0, t1, h / 2.0).final_state - ref)))
    if e2 < 1e-14:
        raise ErrorFloorError("error floor reached")
    return float(np.log2(e1 / e2))


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write header ``t,x1,...,xN`` and one row per sample, 17 significant digits."""
    if traj.states.ndim != 2:
        raise ValueError("CSV export takes a single trajectory, not a batch")
    cols = ",".join(f"x{i + 1}" for i in range(traj.state_dim))
    table = np.column_stack([traj.times, traj.states])
    # one format for all rows; "%.17g" formats a float as f"{v:.17g}" does
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    text = (line * len(table)) % tuple(table.ravel().tolist())
    Path(path).write_text(f"t,{cols}\n{text}", encoding="utf-8")
