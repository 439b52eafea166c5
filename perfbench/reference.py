"""A fixed piece of interpreter work that measures the machine's current speed.

On a shared host the same scenario can take twice as long from one second
to the next, and CPU time swings as much as wall time.  The benchmark times
``work`` right before and right after each measured interval and reports
the interval scaled to reference speed:

    seconds at reference speed = measured seconds * REFERENCE_S / kernel seconds

where the kernel time is the mean of the two bracketing runs.  ``work``
uses only the interpreter and ``math`` (no numpy), so a fresh process can
time it before importing anything.  It is benchmark code that no change to
the program touches; only the machine's speed, or work the program leaves
running in the background, changes its time.
"""
import math
import time

# seconds ``work`` takes at reference speed, near its median on a 2-core
# Xeon host; any constant serves, since only ratios between runs matter
REFERENCE_S = 0.004


def work() -> float:
    """RK4 on a 4-dimensional linear system, with Python lists."""

    def f(t, x):
        return [x[2], x[3], -x[0] * (1.0 + 0.1 * math.sin(t)), -x[1]]

    x = [1.0, 0.5, -0.2, 0.3]
    h = 1e-3
    for k in range(600):
        t = k * h
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, [a + 0.5 * h * b for a, b in zip(x, k1)])
        k3 = f(t + 0.5 * h, [a + 0.5 * h * b for a, b in zip(x, k2)])
        k4 = f(t + h, [a + h * b for a, b in zip(x, k3)])
        x = [a + h / 6.0 * (p + 2.0 * q + 2.0 * r + s)
             for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
    return x[0]


def kernel_seconds() -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def speed_factor(before_s: float, after_s: float) -> float:
    """Multiply measured seconds by this to get seconds at reference speed."""
    return REFERENCE_S / (0.5 * (before_s + after_s))
