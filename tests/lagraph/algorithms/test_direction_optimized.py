"""Direction-optimised BFS and fused msbfs: parity with the push reference.

``bfs_parent_auto`` (push/pull chooser on the storage engine) and the
fused msbfs parents must be *identical* — entry for entry — to the
Alg. 1 push implementations, whatever mix of step kinds ran; fused msbfs
levels must equal the GAP reference BFS's (``bfs_level`` is their
one-row case, so it cannot be their reference).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given

from helpers import (MATRIX_LAYOUTS, ab_ratio, in_layout, random_graph_np,
                     random_graphs)
from repro import lagraph as lg
from repro.gap import datasets, verify
from repro.gap.harness import _sources
from repro.grb.engine import cost

# every chooser tunable (push/pull constants, msbfs fusion threshold)
# lives in the engine's unified cost model


@pytest.fixture(scope="module")
def road():
    return datasets.build("road", "tiny")


@pytest.fixture(scope="module")
def kron():
    return datasets.build("kron", "tiny")


class TestBfsParentAuto:
    @given(random_graphs())
    def test_matches_push_on_random_directed(self, g):
        assert lg.bfs_parent_auto(g, 0).isequal(lg.bfs_parent_push(g, 0))

    @given(random_graphs(directed=False))
    def test_matches_push_on_random_undirected(self, g):
        assert lg.bfs_parent_auto(g, 1).isequal(lg.bfs_parent_push(g, 1))

    @pytest.mark.parametrize("name", ("road", "kron"))
    def test_matches_push_on_suite(self, name, road, kron):
        g = {"road": road, "kron": kron}[name]
        rng = np.random.default_rng(0)
        deg = np.diff(g.A.indptr)
        for s in rng.choice(np.flatnonzero(deg > 0), 6, replace=False):
            p = lg.bfs_parent_auto(g, int(s))
            assert p.isequal(lg.bfs_parent_push(g, int(s)))
            verify.verify_bfs_parent(g, int(s), p)

    def test_pull_only_matches_push(self, kron, monkeypatch):
        # force every level through the CSC/bitmap pull probe
        monkeypatch.setattr(cost, "PUSHPULL_ALPHA", float("inf"))
        monkeypatch.setattr(cost, "PUSHPULL_BETA", float("inf"))
        p_pull = lg.bfs_parent_auto(kron, 0)
        assert p_pull.isequal(lg.bfs_parent_push(kron, 0))

    def test_push_only_matches_push(self, kron, monkeypatch):
        monkeypatch.setattr(cost, "PUSHPULL_ALPHA", 0.0)   # push always wins
        p = lg.bfs_parent_auto(kron, 0)
        assert p.isequal(lg.bfs_parent_push(kron, 0))

    def test_uses_cached_properties_when_present(self, road):
        road.cache_all()
        s = int(np.flatnonzero(np.diff(road.A.indptr) > 0)[0])
        assert lg.bfs_parent_auto(road, s).isequal(lg.bfs_parent_push(road, s))

    @pytest.mark.parametrize("layout", MATRIX_LAYOUTS)
    def test_pull_probe_in_every_layout(self, layout, monkeypatch):
        # every level pulls, probing the adjacency's transpose in the
        # layout under test (cold, or pre-built as a registered graph's)
        g = random_graph_np(np.random.default_rng(2), n=50, p=0.1)
        ref = lg.bfs_parent_push(g, 3)
        in_layout(g.A, layout)
        assert g.AT is None                 # the store's own transpose feeds
        monkeypatch.setattr(cost, "PUSHPULL_ALPHA", float("inf"))
        monkeypatch.setattr(cost, "PUSHPULL_BETA", float("inf"))
        assert lg.bfs_parent_auto(g, 3).isequal(ref)

    def test_isolated_source(self):
        g = random_graph_np(np.random.default_rng(4), n=20, p=0.0)
        p = lg.bfs_parent_auto(g, 5)
        assert p.nvals == 1 and p[5] == 5

    def test_basic_mode_routes_through_auto(self, kron):
        p_do, _ = lg.bfs(kron, 0, direction_optimizing=True)
        assert p_do.isequal(lg.bfs_parent_push(kron, 0))
        assert kron.AT is not None          # Basic mode still caches

    def test_beats_csr_pinned_push_on_road(self, road_small):
        """Ratio guard: on the high-diameter grid the direction-optimised
        sweep over the policy-chosen stores against the Alg. 1 push loop
        on an adjacency pinned to CSR, which pays a masked write-back per
        level (measured 2.8-3.0x)."""
        s = int(_sources(road_small, 1)[0])
        pinned = lg.Graph(road_small.A.dup().set_format("csr"),
                          road_small.kind)

        def auto():
            return lg.bfs_parent_auto(road_small, s)

        def push():
            return lg.bfs_parent_push(pinned, s)

        assert auto().isequal(push())
        assert ab_ratio(auto, push, reps=5) >= 1.4


class TestMsbfsFusion:
    @pytest.mark.parametrize("k", (0, 3, 10**9), ids=("off", "mixed", "always"))
    def test_parents_identical_at_any_threshold(self, road, k, monkeypatch):
        monkeypatch.setattr(cost, "MSBFS_FUSE_FRONTIER_K", k)
        rng = np.random.default_rng(1)
        srcs = rng.choice(np.flatnonzero(np.diff(road.A.indptr) > 0), 5,
                          replace=False)
        P = lg.msbfs_parents(road, srcs)
        for r, s in enumerate(srcs):
            assert P.extract_row(r).isequal(
                lg.bfs_parent_push(road, int(s))), (k, r)

    @pytest.mark.parametrize("k", (0, 3, 10**9), ids=("off", "mixed", "always"))
    def test_levels_identical_at_any_threshold(self, road, k, monkeypatch):
        monkeypatch.setattr(cost, "MSBFS_FUSE_FRONTIER_K", k)
        rng = np.random.default_rng(1)
        srcs = rng.choice(np.flatnonzero(np.diff(road.A.indptr) > 0), 5,
                          replace=False)
        L = lg.msbfs_levels(road, srcs)
        for r, s in enumerate(srcs):
            verify.verify_bfs_level(road, int(s), L.extract_row(r))

    @given(random_graphs(max_n=12))
    def test_fully_fused_random_graphs(self, g):
        srcs = [0, 1, min(2, g.n - 1)]
        with mock.patch.object(cost, "MSBFS_FUSE_FRONTIER_K", 10**9):
            P = lg.msbfs_parents(g, srcs)
            L = lg.msbfs_levels(g, srcs)
        for r, s in enumerate(srcs):
            assert P.extract_row(r).isequal(lg.bfs_parent_push(g, int(s)))
            verify.verify_bfs_level(g, int(s), L.extract_row(r))

    def test_fused_levels_hold_parity_on_road(self, road_small):
        """Ratio guard: 64 sources over the 72 x 72 grid, hundreds of
        levels under the threshold, against the per-level masked ``mxm``
        loop (threshold 0).  Measured 1.6-1.9x — 13x before in-place
        write-back made a near-empty level cheap; unchanged by
        ``mxm-small-expand``, which claims the ~50 of the loop's ~130
        levels that fit its gate — so parity is asserted."""
        srcs = _sources(road_small, 64)

        def fused():
            return lg.msbfs_levels(road_small, srcs)

        unfused = mock.patch.object(cost, "MSBFS_FUSE_FRONTIER_K", 0)(fused)
        assert fused().isequal(unfused())
        assert ab_ratio(fused, unfused) >= 1 / 1.2

    def test_duplicate_sources_fused(self, road, monkeypatch):
        monkeypatch.setattr(cost, "MSBFS_FUSE_FRONTIER_K", 10**9)
        s = int(np.flatnonzero(np.diff(road.A.indptr) > 0)[0])
        P = lg.msbfs_parents(road, [s, s])
        assert P.extract_row(0).isequal(P.extract_row(1))
