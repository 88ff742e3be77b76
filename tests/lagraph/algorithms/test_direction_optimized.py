"""Direction-optimised BFS: parity with the GAP reference BFS.

The one raw-array frontier loop (``msbfs._sweep``) runs Alg. 2 per row:
its one-row case is ``bfs_parent_do`` and Basic ``bfs()``'s parents, and
its batches serve queries.  Its parents must be *identical* — entry for
entry — to the GAP reference BFS's (``bfs_parent_reference``: raw arrays,
no GraphBLAS call), whatever mix of push and pull levels each row ran,
and each batch row must equal its one-row sweep; its levels must pass the
GAP reference check (``bfs_level`` is their one-row case, so it cannot be
their reference).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (MATRIX_LAYOUTS, ab_ratio, bfs_parent_reference,
                     in_layout, random_graph_np, random_graphs)
from repro import grb
from repro import lagraph as lg
from repro.gap import datasets, verify
from repro.gap.harness import _sources
from repro.grb.engine import cost

# every chooser tunable (the push/pull constants) lives in the engine's
# unified cost model


@pytest.fixture(scope="module")
def road():
    return datasets.build("road", "tiny")


@pytest.fixture(scope="module")
def kron():
    return datasets.build("kron", "tiny")


def one_row(g, s):
    """The one-row sweep's parents, computing no graph property."""
    return lg.msbfs_parents(g, [s]).extract_row(0)


class TestOneRowParents:
    @given(random_graphs())
    def test_matches_reference_on_random_directed(self, g):
        assert one_row(g, 0).isequal(bfs_parent_reference(g, 0))

    @given(random_graphs(directed=False))
    def test_matches_reference_on_random_undirected(self, g):
        assert one_row(g, 1).isequal(bfs_parent_reference(g, 1))

    @pytest.mark.parametrize("name", ("road", "kron"))
    def test_matches_reference_on_suite(self, name, road, kron):
        g = {"road": road, "kron": kron}[name]
        rng = np.random.default_rng(0)
        deg = np.diff(g.A.indptr)
        for s in rng.choice(np.flatnonzero(deg > 0), 6, replace=False):
            p = one_row(g, int(s))
            assert p.isequal(bfs_parent_reference(g, int(s)))
            verify.verify_bfs_parent(g, int(s), p)

    def test_pull_only_matches_reference(self, kron, monkeypatch):
        # force every level through the CSC/bitmap pull probe
        monkeypatch.setattr(cost, "PUSHPULL_ALPHA", float("inf"))
        monkeypatch.setattr(cost, "PUSHPULL_BETA", float("inf"))
        assert one_row(kron, 0).isequal(bfs_parent_reference(kron, 0))

    def test_push_forced_matches_reference(self, kron, monkeypatch):
        monkeypatch.setattr(cost, "PUSHPULL_ALPHA", 0.0)   # push always wins
        assert one_row(kron, 0).isequal(bfs_parent_reference(kron, 0))

    def test_uses_cached_properties_when_present(self, road):
        road.cache_all()
        s = int(np.flatnonzero(np.diff(road.A.indptr) > 0)[0])
        assert one_row(road, s).isequal(bfs_parent_reference(road, s))

    @pytest.mark.parametrize("layout", MATRIX_LAYOUTS)
    def test_pull_probe_in_every_layout(self, layout, monkeypatch):
        # every level pulls, probing the adjacency's transpose in the
        # layout under test (cold, or pre-built as a registered graph's)
        g = random_graph_np(np.random.default_rng(2), n=50, p=0.1)
        in_layout(g.A, layout)
        monkeypatch.setattr(cost, "PUSHPULL_ALPHA", float("inf"))
        monkeypatch.setattr(cost, "PUSHPULL_BETA", float("inf"))
        p = one_row(g, 3)
        assert g.AT is None                 # the store's own transpose fed
        # the reference reads A's transpose too, so it runs last
        assert p.isequal(bfs_parent_reference(g, 3))

    def test_isolated_source(self):
        g = random_graph_np(np.random.default_rng(4), n=20, p=0.0)
        p = one_row(g, 5)
        assert p.nvals == 1 and p[5] == 5

    def test_basic_mode_routes_through_the_sweep(self, kron):
        p, _ = lg.bfs(kron, 0)
        assert p.isequal(bfs_parent_reference(kron, 0))
        assert kron.AT is not None          # Basic mode still caches

    def test_beats_push_forced_on_kron(self, kron_small):
        """Ratio guard: what direction optimisation buys on the
        low-diameter graph.  Basic ``bfs()``'s parents against the same
        sweep with ``cost.PUSHPULL_ALPHA = 0``, which pushes every level
        that has an unexplored edge.  Measured 2.07–2.35× (12 reads,
        median 2.26); the floor is below ½ of that."""
        s = int(_sources(kron_small, 1)[0])

        def basic():
            return lg.bfs(kron_small, s)[0]

        def push():
            with mock.patch.object(cost, "PUSHPULL_ALPHA", 0.0):
                return lg.bfs(kron_small, s)[0]

        assert basic().isequal(push())
        assert ab_ratio(basic, push, reps=20) >= 1.1


#: The chooser's three regimes: every level pulls, every level with an
#: unexplored edge pushes, and the GAP constants.
DIRECTION_SETTINGS = {
    "all-pull": {"PUSHPULL_ALPHA": float("inf"),
                 "PUSHPULL_BETA": float("inf")},
    "push-heavy": {"PUSHPULL_ALPHA": 0.0},
    "defaults": {"PUSHPULL_ALPHA": cost.PUSHPULL_ALPHA,
                 "PUSHPULL_BETA": cost.PUSHPULL_BETA},
}


def in_setting(setting):
    return mock.patch.multiple(cost, **DIRECTION_SETTINGS[setting])


@st.composite
def graphs_and_sources(draw, directed: bool):
    """A random graph and 0–6 sources drawn with replacement (so
    duplicates come up), plus every isolated node of the graph."""
    g = draw(random_graphs(directed=directed))
    sources = draw(st.lists(st.integers(0, g.n - 1), max_size=6))
    deg = np.diff(g.A.indptr) + np.diff(g.A.T.indptr)
    return g, sources + np.flatnonzero(deg == 0).tolist()[:2]


def check_sweep(g, sources):
    """Every row of both batched sweeps against its reference and against
    its own one-row sweep."""
    P = lg.msbfs_parents(g, sources)
    L = lg.msbfs_levels(g, sources)
    assert P.shape == L.shape == (len(sources), g.n)
    for k, s in enumerate(sources):
        p = P.extract_row(k)
        assert p.isequal(bfs_parent_reference(g, s)), k
        assert p.isequal(one_row(g, s)), k
        lv = L.extract_row(k)
        verify.verify_bfs_level(g, s, lv)
        assert lv.isequal(lg.bfs_level(g, s)), k


@pytest.mark.parametrize("setting", sorted(DIRECTION_SETTINGS))
class TestSweepDirections:
    """The batched sweep under each regime of the per-row chooser."""

    @given(graphs_and_sources(directed=True))
    def test_random_directed(self, setting, case):
        with in_setting(setting):
            check_sweep(*case)

    @given(graphs_and_sources(directed=False))
    def test_random_undirected(self, setting, case):
        with in_setting(setting):
            check_sweep(*case)

    def test_suite_batch_with_duplicates_and_an_isolated_source(
            self, setting, road, kron):
        for g in (road, kron):
            isolated = np.flatnonzero(np.diff(g.A.indptr) == 0)
            srcs = [int(s) for s in _sources(g, 5)]
            srcs += srcs[:2] + [int(s) for s in isolated[:1]]
            with in_setting(setting):
                check_sweep(g, srcs)

    def test_empty_batch(self, setting, kron):
        with in_setting(setting):
            for sweep in (lg.msbfs_parents, lg.msbfs_levels):
                out = sweep(kron, [])
                assert out.shape == (0, kron.n) and out.nvals == 0
                assert out.type == grb.INT64
