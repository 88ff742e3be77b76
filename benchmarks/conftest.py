"""Shared benchmark fixtures.

Graph size is controlled by the ``REPRO_BENCH_SIZE`` environment variable
(``tiny`` | ``small`` | ``medium``; default ``tiny`` so the whole suite runs
in seconds).  ``REPRO_BENCH_SIZE=small`` reproduces the Table III rows
reported in EXPERIMENTS.md.

Graphs are generated once per session and shared; benchmarks must not
mutate them (Basic-mode property caching is done eagerly here so timing
loops measure the kernel, not the cache fill — matching how GAP pre-builds
its CSR structures outside the timed region).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.gap import datasets


BENCH_SIZE = os.environ.get("REPRO_BENCH_SIZE", "tiny")
GRAPHS = ("kron", "urand", "twitter", "web", "road")


@pytest.fixture(scope="session")
def suite():
    """name -> unweighted Graph, with all properties cached."""
    out = {}
    for name in GRAPHS:
        g = datasets.build(name, BENCH_SIZE)
        g.cache_all()
        out[name] = g
    return out


@pytest.fixture(scope="session")
def suite_weighted():
    """name -> weighted Graph (for SSSP)."""
    out = {}
    for name in GRAPHS:
        g = datasets.build(name, BENCH_SIZE, weighted=True)
        g.cache_all()
        out[name] = g
    return out


@pytest.fixture(scope="session")
def sources():
    """name -> four GAP-style non-isolated source nodes."""
    rng = np.random.default_rng(0)

    def pick(g):
        deg = np.diff(g.A.indptr)
        cand = np.flatnonzero(deg > 0)
        return rng.choice(cand, size=min(4, cand.size), replace=False)

    return pick


@pytest.fixture(scope="session", autouse=True)
def obs_artifact():
    """Dump the observability snapshot after the run when requested.

    ``REPRO_OBS_ARTIFACT=/path/to/obs.json`` makes the session write
    :func:`repro.obs.json_snapshot` — every registry metric, the kernel /
    rule / decision tables, and the plan-cache counters — once all
    benchmarks have finished, so CI can archive the run's counters next
    to the pytest-benchmark JSON.
    """
    yield
    path = os.environ.get("REPRO_OBS_ARTIFACT")
    if not path:
        return
    import json

    from repro import obs

    with open(path, "w") as fh:
        json.dump(obs.json_snapshot(), fh, indent=2, default=str)
