"""Let ``python -m folsys.cli`` subprocesses import this checkout's package,
as ``pythonpath`` in pyproject.toml does for the test process itself; and
share the bundles of the configured models, the per-stage reference field,
the count of particular solutions of a realization, the split extension
[h, e] = 2 e, and groups acting on themselves."""
import os
from pathlib import Path

import numpy as np
import pytest

from folsys.algebra import LieAlgebra
from folsys.automorphic import ABELIAN, MATRIX, GroupAction
from folsys.cli import ScenarioConfig, build_bundle
from folsys.fields import TDependentVectorField, rank_at
from folsys.util import seeded_rng

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def model_bundle(name: str, **params):
    """The bundle of the model ``name`` of ``cli.MODELS``, its params at their
    defaults but for ``params``."""
    return build_bundle(ScenarioConfig(model=name, params=params))


def per_stage(F):
    """F called per stage, the reference for every route: a plain function
    drops the table and route that a copy rebuilt from ``F.func`` keeps."""
    return TDependentVectorField(F.dim, lambda t, x: F.func(t, x),
                                 domain=F.domain, name=F.name)


def split_extension(copies: int = 1) -> LieAlgebra:
    """The split extension [h, e] = 2 e, or the block sum of ``copies`` of it
    in the basis (e_1, ..., e_n, h_1, ..., h_n): a solvable algebra with
    nonzero brackets and a nonzero, degenerate Killing form."""
    n = copies
    c = np.zeros((2 * n,) * 3)
    for i in range(n):
        c[n + i, i, i] = 2.0   # [h_i, e_i] = 2 e_i
        c[i, n + i, i] = -2.0
    labels = tuple(f"e{i + 1}" for i in range(n)) + tuple(f"h{i + 1}" for i in range(n))
    return LieAlgebra(2 * n, labels, c)


# the generators e, h of split_extension() as 2 x 2 matrices
SPLIT_MATRICES = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[2.0, 0.0], [0.0, 0.0]]))


def group_action(kind: str, generators) -> GroupAction:
    """The group R^r (``ABELIAN``) or of invertible d x d matrices
    (``MATRIX``) acting on itself, by translation or by left multiplication
    of the row-major entries, with ``generators`` and the group's identity."""
    gens = tuple(np.asarray(A, dtype=float) for A in generators)
    if kind == ABELIAN:
        return GroupAction(ABELIAN, np.add, np.zeros(gens[0].shape), gens)
    d = gens[0].shape[0]

    def act(g, x):
        gx = g @ x.reshape(x.shape[:-1] + (d, d))
        return gx.reshape(gx.shape[:-2] + (d * d,))

    return GroupAction(MATRIX, act, np.eye(d), gens)


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
