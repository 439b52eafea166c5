"""Let ``python -m folsys.cli`` subprocesses import this checkout's package,
as ``pythonpath`` in pyproject.toml does for the test process itself; and
share the count of particular solutions of a realization."""
import os
from pathlib import Path

import numpy as np
import pytest

from folsys.fields import rank_at
from folsys.util import seeded_rng

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def minimal_solution_count(ra, cap: int = 10, samples: int = 5):
    """Least m whose m-fold diagonal prolongations reach rank dim V at most of
    ``samples`` seeded joint points, or None when no m <= cap does.

    A field acts on the last axis, so its values on a block ``(P, m, N)`` of
    points, reshaped to ``(P, m*N)``, are the values of its prolongation.
    """
    rng = seeded_rng(42)
    n = ra.ambient_dim
    for m in range(1, cap + 1):
        block = ra.box.sample_many(rng, samples * m).reshape(samples, m, n)
        values = [X(block).reshape(samples, m * n) for X in ra.fields]
        ranks = rank_at(ra.fields, block.reshape(samples, m * n), values=values)
        if np.sum(ranks == ra.algebra.dim) > samples // 2:
            return m
    return None


@pytest.fixture
def minimal_solutions():
    return minimal_solution_count
