"""Shared fixtures and the project-wide hypothesis profile.

Strategies and plain graph builders live in :mod:`helpers`
(``tests/helpers.py``); test modules import them with
``from helpers import ...``.  The ``sys.path`` insert below makes that (and
``dense_model``) importable from any test module regardless of pytest's
import mode.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

# make tests/helpers.py and tests/dense_model.py importable from any module
sys.path.insert(0, str(Path(__file__).resolve().parent))
import pytest
from hypothesis import HealthCheck, settings

from repro import grb

# Project-wide hypothesis profile: modest example counts keep the suite fast.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_directed_graph():
    """The 4-node diamond used across the docs: 0→1, 0→2, 1→3, 2→3."""
    from repro import lagraph as lg

    A = grb.Matrix.from_coo([0, 0, 1, 2], [1, 2, 3, 3],
                            np.ones(4, dtype=np.bool_), 4, 4)
    return lg.Graph(A, lg.ADJACENCY_DIRECTED)


@pytest.fixture
def triangle_graph():
    """Undirected triangle plus a pendant node."""
    from repro import lagraph as lg

    r = np.array([0, 1, 1, 2, 0, 2, 2, 3])
    c = np.array([1, 0, 2, 1, 2, 0, 3, 2])
    A = grb.Matrix.from_coo(r, c, np.ones(r.size, dtype=np.bool_), 4, 4)
    return lg.Graph(A, lg.ADJACENCY_UNDIRECTED)


# The two serving-size graphs the ratio guards time (``ab_ratio`` in
# tests/helpers.py): built once per session with every property cached, as
# GAP builds its CSR outside the timed region.  Read-only — a test that
# mutates one breaks the others.

def _suite_graph(name):
    from repro.gap import datasets

    g = datasets.build(name, "small")
    g.cache_all()
    return g


@pytest.fixture(scope="session")
def kron_small():
    return _suite_graph("kron")


@pytest.fixture(scope="session")
def road_small():
    return _suite_graph("road")
