"""Classical fixed-step RK4 with trajectory storage and order diagnostics.

Fixed step only: the verification harness needs reproducible, bitwise
deterministic runs, not adaptive efficiency.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import count
from pathlib import Path

import numpy as np

from .errors import BlowUpError, ConfigError, DomainExitError, ErrorFloorError
from .fields import TDependentVectorField

DEFAULT_STEP = 1e-3
# stage state values, 3 stages x K steps x B rows x N, of one block of steps;
# building the coefficient table of a block then peaks at 0.23-0.30 MB
# (tracemalloc) on the interpreted riccati, hamilton_jacobi and lax models.
# Stage matrices hold N times as many: 0.13 MB for a block of Ermakov steps
TABLE_BLOCK = 2 ** 12


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution curve; the last interval may be shorter.

    ``states`` has shape ``(T, N)`` for one solution or ``(T, B, N)`` for a
    batch of B solutions sampled on the same grid (see ``integrate`` for a
    batch with one step per row).
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


def time_grid(t0: float, t1: float, h: float) -> np.ndarray:
    """Sample times from t0 to t1 (reached exactly) in steps of h, the last
    step possibly shorter; ValueError unless t0 < t1 and 0 < h <= t1 - t0."""
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    if not 0.0 < h <= t1 - t0:
        raise ValueError("need 0 < h <= t1 - t0")
    n_full = int(np.floor((t1 - t0) / h + 1e-9))
    times = t0 + h * np.arange(n_full + 1)
    if times[-1] < t1 - 1e-9 * h:
        times = np.append(times, t1)
    else:
        times[-1] = t1  # land on t1 exactly, absorbing grid roundoff
    return times


def integrate(F: TDependentVectorField, x0, t0: float, t1: float,
              h: float | list[float] = DEFAULT_STEP) -> Trajectory:
    """Classical 4th-order Runge-Kutta from t0 to t1 (reached exactly).

    ``x0`` is one state ``(N,)`` or a batch ``(B, N)`` of independent states
    stepped together; ``F`` is then called on the whole batch and must
    return an array of the same shape.  The domain guard ``F.domain`` maps
    states ``(..., N)`` to bools ``(...)``: it is called on x0, on each new
    state when ``F`` is called per stage, and once on the states of any
    other block, and a blow-up or domain exit in any row raises at the
    earliest failing step with the whole batch as ``partial``.

    ``h`` is one step for every row, on the grid ``time_grid(t0, t1, h)``,
    or, for a batch, a sequence of one step per row.  Each row then runs on
    its own ``time_grid(t0, t1, h_i)``, all rows stepped in lockstep by the
    same loop with ``F`` called on one time per row; a row whose grid has
    ended holds its state at t1 with ``dt = 0`` (x + 0 k = x, up to the sign
    of a zero).  The trajectory is sampled on the grid of the smallest step,
    which has the most samples: the rows on that step are on its times at
    every sample, and ``states[-1]`` is every row at t1.

    The steps go in blocks of at most TABLE_BLOCK stage state values
    (3 stages x K steps x B rows x N).  A field without a table is called
    per stage with the stage times, numpy scalars on one grid, and the
    domain guard checks each new state.  A tabled field (see
    TDependentVectorField) has its table built once per block from the
    block's stage times ``(3, K)``, ``(3, K, 1)`` for a batch on one grid or
    ``(3, K, B)`` for one step per row, and takes the route it names:

    - ``_sum_block``: the rows are the stage values of a time-only field;
      then k2 = k3, RK4 is Simpson's rule on each step, and the block's
      increments are formed at once and added to the last state in step
      order, the loop's states bit for bit.
    - ``_product_block``: the rows are the stage matrices A_0, A_1, A_2
      ``(3, K, ..., N, N)`` of a field linear along a solution, which steps
      by the RK4 step matrices, x_{k+1} = P_k x_k.  The states come from the
      cumulative products P_k ... P_0, formed by a scan in about log2 K
      batched matmuls; a block whose scanned states are not all finite
      re-runs step by step.  The order of operations is not the loop's:
      after K steps the states agree with the per-stage loop to within
      max(1e-12, K 2^-52) max(1, max|x|), a bound that grows with K like
      accumulated roundoff, and bit for bit between runs.
    - a stage: the RK4 loop calls F's copy with ``func = route`` on the
      table rows (laid out by field, summed from 0.0) in place of the stage
      times, so a subclass of F sees every stage of a batch.  One state
      steps on the float form ``route.floats`` in a straight-line step per
      dimension (``_float_steps``), which no subclass sees; a block where
      Python raises re-runs on the loop, which forms its 0.5 dt and dt/6 once.

    A block whose table raises a ConfigError (a coefficient that cannot be
    evaluated at some time) is rebuilt one step at a time on the same
    route, so the error surfaces at its own step; any other error of a
    table, such as the DimensionMismatchError of a map of the wrong shape,
    raises.  ``integrate`` never calls a tabled field's ``func``.  No route
    warns about an overflow, a zero divisor or an invalid value in its steps
    or domain guard (each block is stepped and checked under one errstate):
    the first non-finite state raises BlowUpError with the loop's partial
    trajectory, and the domain guard checks the states before it in step
    order, also when a stage or a table raises past them.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[-1] != F.dim:
        raise ValueError(f"initial state must have shape ({F.dim},) or (B, {F.dim})")
    if np.ndim(h) == 0:
        grid = times = time_grid(t0, t1, h)
    else:
        row_steps = np.asarray(h, dtype=float)
        if x0.ndim != 2 or row_steps.shape != x0.shape[:1]:
            raise ValueError("per-row steps need a batch (B, N) and one step per row")
        grids = [time_grid(t0, t1, s) for s in row_steps.tolist()]
        h = float(row_steps.min())
        times = grids[int(np.argmin(row_steps))]
        # (T, B): each row's grid, held at t1 once it has ended
        grid = np.column_stack(
            [np.pad(g, (0, times.size - g.size), mode="edge") for g in grids])
    inside = F.domain
    if inside is not None and not np.all(inside(x0)):
        raise DomainExitError(t0, "initial state outside domain")

    states = np.empty((times.size,) + x0.shape)
    states[0] = x0
    floats = getattr(F.route, "floats", None) if x0.ndim == 1 else None
    for k0, dts, f, values in _stage_values(F, x0, grid):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if f in _BLOCK_ROUTES:
                f(states[k0:k0 + len(dts) + 1], dts, values)
                _guard_block(states, k0, len(dts), times, h, inside)
                continue
            if floats is not None and _float_steps(floats, states, k0, dts, values):
                _guard_block(states, k0, len(dts), times, h, inside)
                continue
            x = states[k0].copy()
            k = k0
            try:
                for k, dt, half, sixth, t, mid, end in zip(
                        count(k0), dts, 0.5 * dts, dts / 6.0, *values):
                    k1 = f(t, x)
                    k2 = f(mid, x + half * k1)
                    k3 = f(mid, x + half * k2)
                    k4 = f(end, x + dt * k3)
                    x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    states[k + 1] = x
                    if f is F:  # a user's domain may take one step, its field fail past it
                        _guard_block(states, k, 1, times, h, inside)
                k += 1
            finally:
                if f is not F:  # the block's states, or those before a raising stage
                    _guard_block(states, k0, k - k0, times, h, inside)
    return Trajectory(times, states, h)


def _stage_values(F, x0, grid):
    """Per block of at most ``TABLE_BLOCK // (3 * x0.size)`` steps (at
    least one) of ``grid`` ``(T,)``, or of grids side by side ``(T, B)``:
    its first step, the steps dt, how to step it, and the values at the
    stage times ``(3, K, ...)``, the start, midpoint and end of each step.
    The block routes ``_product_block`` and ``_sum_block`` take the stage
    matrices or values, with dt shaped to multiply them.  Otherwise the RK4
    loop calls f(value, x) on table rows, for a stage route not on floats,
    or on stage times, for a field without a table."""
    one_grid = grid.ndim == 1
    # a batch on one grid: one time per step, against the rows of x0
    spread = one_grid and x0.ndim == 2
    table, f = F.table, F.route
    if table is None:
        f = F
    elif f not in _BLOCK_ROUTES:  # F's class, so a subclass sees each stage
        f = replace(F, func=f)
    size = max(1, TABLE_BLOCK // (3 * x0.size))
    for k0 in range(0, len(grid) - 1, size):
        block = grid[k0:k0 + size + 1]
        t = block[:-1]
        dt = block[1:] - t
        times = np.stack([t, t + 0.5 * dt, t + dt])
        if table is None:
            parts = [(k0, dt, times)]
        else:
            times = times[..., None] if spread else times
            try:
                parts = [(k0, dt, table(times, x0))]
            except ConfigError:
                # one step at a time: the steps before the failing one are
                # stepped and guarded, and its table raises in its place
                parts = ((k0 + j, dt[j:j + 1], table(times[:, j:j + 1], x0))
                         for j in range(len(dt)))
        for k, steps, values in parts:
            if f in _BLOCK_ROUTES:
                steps = steps.reshape(steps.shape + (1,) * (values.ndim - 1 - steps.ndim))
            elif not one_grid:
                steps = steps[..., None]  # one step per row, against states (B, N)
            yield k, steps, f, values


def _float_steps(form, states, k0, dts, values):
    """Fill the states after ``states[k0]`` of one state by ``_float_block``
    on the stage ``form(*c, *x)`` of table rows c; False, writing nothing,
    where Python raises (a zero divisor, ``math.pow`` overflowing)."""
    try:
        out = _float_block(states.shape[-1])(
            form, states[k0].tolist(), dts.tolist(), *values.tolist())
    except (ZeroDivisionError, OverflowError):
        return False
    states[k0 + 1:k0 + len(out) + 1] = out
    return True


@cache
def _float_block(n):
    """``steps(form, x, dts, c0s, c1s, c2s)``: the states after x, a tuple a
    step, of RK4 written out on local floats x0, ..., x{n-1}, so no stage
    builds a list; each coordinate in the numpy loop's order of operations,
    so bit for bit.  Generated from ``range(n)``, compiled once per n."""
    def each(term):  # term at each coordinate i, each followed by a comma
        return " ".join(term.format(i=i) + "," for i in range(n))
    x = each("x{i}")
    exec(f"""def steps(form, x, dts, c0s, c1s, c2s):
    {x} = x
    out = []
    for dt, c0, c1, c2 in zip(dts, c0s, c1s, c2s):
        half, sixth = 0.5 * dt, dt / 6.0
        {each("a{i}")} = form(*c0, {x})
        {each("b{i}")} = form(*c1, {each("x{i} + half * a{i}")})
        {each("d{i}")} = form(*c1, {each("x{i} + half * b{i}")})
        {each("e{i}")} = form(*c2, {each("x{i} + dt * d{i}")})
        {x} = {each("x{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * d{i} + e{i})")}
        out.append(({x}))
    return out""", scope := {})
    return scope["steps"]


def _sum_block(block, dt, v):
    """Fill ``block[1:]`` with the states after ``block[0]`` of a time-only
    field, given its stage values ``v`` ``(3, K, ...)``.

    No stage reads the state, so k2 = k3 and RK4 is Simpson's rule on each
    step (Hairer, Norsett, Wanner, *Solving ODEs I*, Sec. II.1): the
    increments (dt/6)(v0 + 2 v1 + 2 v1 + v2), in the order of operations of
    the RK4 loop, added to the last state in step order, equal the loop's
    states bit for bit."""
    block[1:] = (dt / 6.0) * (v[0] + 2.0 * v[1] + 2.0 * v[1] + v[2])
    np.add.accumulate(block, axis=0, out=block)


def _product_block(block, dt, A):
    """Fill ``block[1:]`` with the states after ``block[0]`` of a field
    linear along the solution, given its stage matrices ``A``
    ``(3, K, ..., N, N)``.

    RK4 of x' = A(t) x is one matrix per step, x_{k+1} = P_k x_k, a
    polynomial in the stage matrices (Hairer, Norsett, Wanner, *Solving
    ODEs I*, Sec. II.1, with the stages written as matrix products):
    K1 = A0, K2 = A1 (I + dt/2 K1), K3 = A1 (I + dt/2 K2),
    K4 = A2 (I + dt K3) and P = I + (dt/6)(K1 + 2 K2 + 2 K3 + K4), built
    for the whole block by batched matmuls.  The states are
    x_{k+1} = Q_k x_0 with the cumulative products Q_k = P_k ... P_0, formed
    by a scan on the step axis in ceil(log2 K) batched matmuls (Hillis and
    Steele, "Data parallel algorithms", CACM 29 (1986)).  A block whose
    scanned states are not all finite, where a product may overflow or meet
    inf * 0 before the states do, re-runs step by step, x_{k+1} = P_k x_k,
    so a blow-up or domain exit is at the loop's step.  The loop's stage
    sum (K1 + 2 K2 + 2 K3 + K4) x can overflow a step before its state
    does; the state after such a step is set to inf, so the blow-up is at
    the loop's step."""
    eye = np.eye(A.shape[-1])
    K1 = A[0]
    K2 = A[1] @ (eye + (0.5 * dt) * K1)
    K3 = A[1] @ (eye + (0.5 * dt) * K2)
    K4 = A[2] @ (eye + dt * K3)
    S = K1 + 2.0 * K2 + 2.0 * K3 + K4
    P = eye + (dt / 6.0) * S
    cols = block[..., None]  # each state a column, written in place
    Q = P.copy()
    s = 1
    while s < len(Q):
        Q[s:] = Q[s:] @ Q[:-s]
        s *= 2
    np.matmul(Q, cols[0], out=cols[1:])
    if not np.isfinite(block[1:]).all():
        for k, step in enumerate(P):
            np.matmul(step, cols[k], out=cols[k + 1])
    sums = S @ cols[:-1]
    block[1:][~np.isfinite(sums).reshape(len(sums), -1).all(axis=1)] = np.inf


_BLOCK_ROUTES = (_sum_block, _product_block)


def _guard_block(states, k0, n, times, h, inside):
    """Check the states of the n steps from k0, filled into ``states``, as
    the RK4 loop checks each new state: the first non-finite state raises
    BlowUpError, and one call of the domain guard on the states before it
    finds the first one outside, each raising with the loop's partial
    trajectory at its step."""
    block = states[k0 + 1:k0 + n + 1]
    finite = np.isfinite(block).all(axis=tuple(range(1, block.ndim)))
    stop = int(finite.argmin()) if not finite.all() else n
    if inside is not None and stop > 0:
        ok = inside(block[:stop]).reshape(stop, -1).all(axis=1)
        if not ok.all():
            i = int(ok.argmin())
            raise DomainExitError(times[k0 + i + 1],
                                  partial=partial_trajectory(times, states, k0 + i, h))
    if stop < n:
        raise BlowUpError(times[k0 + stop + 1],
                          partial=partial_trajectory(times, states, k0 + stop, h))


def partial_trajectory(times, states, k, h):
    """Samples up to step k, the last accepted one, reported alongside guard
    exits; None when only the initial state was accepted (k = 0)."""
    if k < 1:
        return None
    return Trajectory(times[:k + 1].copy(), states[:k + 1].copy(), h)


def convergence_steps(h: float) -> tuple[float, float, float]:
    """Steps of the convergence runs: the reference h/4, then h and h/2."""
    return h / 4.0, h, h / 2.0


def order_from_finals(ref, coarse, fine) -> float:
    """log2 of the terminal-error ratio between the final states of the runs
    on steps h (``coarse``) and h/2 (``fine``), against the h/4 run ``ref``.

    The expected value for a smooth problem is
    log2((1 - 4^-4)/(2^-4 - 4^-4)) = log2(17) ~ 4.09; ErrorFloorError when
    the h/2 error is below 1e-14.
    """
    e1 = float(np.max(np.abs(coarse - ref)))
    e2 = float(np.max(np.abs(fine - ref)))
    if e2 < 1e-14:
        raise ErrorFloorError("error floor reached")
    return float(np.log2(e1 / e2))


def convergence_order(F: TDependentVectorField, x0, t0: float, t1: float,
                      h: float) -> float:
    """``order_from_finals`` of x0 integrated alone on the convergence steps."""
    return order_from_finals(*(integrate(F, x0, t0, t1, s).final_state
                               for s in convergence_steps(h)))


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
