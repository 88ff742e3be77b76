"""Tests for batched multi-source BFS (the serving kernels).

The contract under test is strong: every row of a batched sweep is
*bit-identical* to the corresponding single-source Advanced-mode call, at
every batch size — a one-source batch runs the same compiled-product +
witness-probe loop as a twelve-source one.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import ab_ratio, random_graph_np, random_graphs
from repro import grb
from repro import lagraph as lg
from repro.gap.harness import _sources
from repro.grb._kernels import matmul
from repro.grb.engine import cost

# the module, not the ``msbfs`` function the package re-exports
msbfs = importlib.import_module("repro.lagraph.algorithms.msbfs")


class TestMsbfsParents:
    def test_diamond(self, small_directed_graph):
        p = lg.msbfs_parents(small_directed_graph, [0, 3])
        assert p.shape == (2, 4)
        assert p[0, 0] == 0 and p[0, 1] == 0 and p[0, 2] == 0
        assert p[1, 3] == 3 and p.extract_row(1).nvals == 1  # 3 reaches nothing

    @pytest.mark.parametrize("batch", [1, 12])
    @pytest.mark.parametrize("directed", [True, False])
    def test_rows_match_single_source_push(self, rng, batch, directed):
        g = random_graph_np(rng, n=60, p=0.08, directed=directed)
        sources = rng.integers(0, g.n, size=batch)
        p = lg.msbfs_parents(g, sources)
        for k, s in enumerate(sources):
            assert p.extract_row(k).isequal(lg.bfs_parent_push(g, int(s)))

    @given(g=random_graphs(directed=True))
    @settings(max_examples=15)
    def test_random_graphs_match_push(self, g):
        sources = np.arange(min(g.n, 5), dtype=np.int64)
        p = lg.msbfs_parents(g, sources)
        for k, s in enumerate(sources):
            assert p.extract_row(k).isequal(lg.bfs_parent_push(g, int(s)))

    def test_duplicate_sources_are_independent_rows(self, small_directed_graph):
        p = lg.msbfs_parents(small_directed_graph, [0, 0, 1])
        assert p.extract_row(0).isequal(p.extract_row(1))
        assert p.extract_row(2).isequal(
            lg.bfs_parent_push(small_directed_graph, 1))

    def test_empty_batch(self, small_directed_graph):
        p = lg.msbfs_parents(small_directed_graph, [])
        assert p.shape == (0, 4) and p.nvals == 0

    def test_bad_source(self, small_directed_graph):
        with pytest.raises(grb.IndexOutOfBounds):
            lg.msbfs_parents(small_directed_graph, [0, 9])

    def test_computes_no_graph_properties(self, small_directed_graph):
        lg.msbfs_parents(small_directed_graph, [0, 1])
        assert small_directed_graph.AT is None


class TestProbeRoundFallbacks:
    """The straggler fallbacks of the two witness probes: after their round
    cap, ``msbfs._first_frontier_in_neighbor`` and ``mxv_pull_probe`` finish
    with one ragged gather.  The default cap leaves that gather to rare
    high-degree stragglers, so the caps are forced to 0 (every candidate
    takes the gather) and 1, with every msbfs level on the probe leg and
    every ``bfs_parent_auto`` level pulling — the parents must still be the
    push reference's."""

    @pytest.fixture(autouse=True)
    def _probe_every_level(self, monkeypatch):
        monkeypatch.setattr(cost, "MSBFS_FUSE_FRONTIER_K", 0)
        monkeypatch.setattr(cost, "MSBFS_PROBE_DENSITY", 0.0)
        monkeypatch.setattr(cost, "PUSHPULL_ALPHA", float("inf"))
        monkeypatch.setattr(cost, "PUSHPULL_BETA", float("inf"))

    @pytest.mark.parametrize("rounds", [0, 1])
    @pytest.mark.parametrize("graph", ["kron_small", "road_small"])
    def test_fallback_matches_push(self, request, monkeypatch, graph,
                                   rounds):
        g = request.getfixturevalue(graph)
        monkeypatch.setattr(msbfs, "PROBE_ROUNDS", rounds)
        monkeypatch.setattr(matmul, "PULL_PROBE_ROUNDS", rounds)
        sources = _sources(g, 4)
        p = lg.msbfs_parents(g, sources)
        for k, s in enumerate(sources):
            ref = lg.bfs_parent_push(g, int(s))
            assert p.extract_row(k).isequal(ref), (graph, rounds, k)
            assert lg.bfs_parent_auto(g, int(s)).isequal(ref), \
                (graph, rounds, k)


class TestMsbfsLevels:
    def test_diamond(self, small_directed_graph):
        lv = lg.msbfs_levels(small_directed_graph, [0, 1])
        assert lv[0, 0] == 0 and lv[0, 1] == 1 and lv[0, 3] == 2
        assert lv[1, 1] == 0 and lv[1, 3] == 1

    @pytest.mark.parametrize("batch", [1, 12])
    @pytest.mark.parametrize("directed", [True, False])
    def test_rows_match_single_source(self, rng, batch, directed):
        g = random_graph_np(rng, n=60, p=0.08, directed=directed)
        sources = rng.integers(0, g.n, size=batch)
        lv = lg.msbfs_levels(g, sources)
        for k, s in enumerate(sources):
            assert lv.extract_row(k).isequal(lg.bfs_level(g, int(s)))

    @given(g=random_graphs(directed=False))
    @settings(max_examples=15)
    def test_random_undirected_match(self, g):
        sources = np.arange(min(g.n, 4), dtype=np.int64)
        lv = lg.msbfs_levels(g, sources)
        for k, s in enumerate(sources):
            assert lv.extract_row(k).isequal(lg.bfs_level(g, int(s)))

    @pytest.mark.parametrize("kernel", ["levels", "parents"])
    def test_dense_frontiers_go_bitmap(self, rng, monkeypatch, kernel):
        # at serving sizes a low-diameter sweep's frontier and level
        # matrices cross the density line and become bitmap-resident
        # (derived arrays read-only, in-place write-back); a 12 x 60 grid
        # only gets there with the policy's size floor lowered
        from repro.grb.storage import policy
        from repro.grb.engine import cost
        monkeypatch.setattr(policy, "MATRIX_BITMAP_MIN_GRID", 1)
        monkeypatch.setattr(cost, "MSBFS_FUSE_FRONTIER_K", 0)
        g = random_graph_np(rng, n=60, p=0.15)
        sources = rng.integers(0, g.n, size=12)
        if kernel == "levels":
            out = lg.msbfs_levels(g, sources)
            single = lg.bfs_level
        else:
            out = lg.msbfs_parents(g, sources)
            single = lg.bfs_parent_push
        assert out.format == "bitmap"
        for k, s in enumerate(sources):
            assert out.extract_row(k).isequal(single(g, int(s)))

    def test_basic_wrapper_returns_requested(self, small_directed_graph):
        p, lv = lg.msbfs(small_directed_graph, [0, 1], parent=True, level=True)
        assert p is not None and lv is not None
        p2, lv2 = lg.msbfs(small_directed_graph, [0], parent=False, level=True)
        assert p2 is None and lv2 is not None


class TestBatchRatioGuard:
    """What coalescing buys: one 64-source sweep against the 64 public
    single-source calls it replaces, on kron-small (``ab_ratio``: arms
    alternate, best of 5, ratio only).  Measured 2.0-2.2x — it was 5x
    before the sort-free reduction made a lone ``bfs_level`` 3x faster —
    so what is asserted is that batching does not lose."""

    def test_batched_levels_beat_sequential(self, kron_small):
        g = kron_small
        srcs = _sources(g, 64)

        def batched():
            return lg.msbfs_levels(g, srcs)

        def sequential():
            return [lg.bfs_level(g, int(s)) for s in srcs]

        lv = batched()
        for k, row in enumerate(sequential()):
            assert lv.extract_row(k).isequal(row)
        assert ab_ratio(batched, sequential) >= 1.0


class TestSingletonRatioGuard:
    """What the serve layer's one-kernel route buys a lone BFS query: a
    one-source ``msbfs_levels`` against the public ``bfs_level`` call it
    replaced, on road-small, whose hundreds of near-empty levels are where
    the two loops differ most.  Measured 3.2-3.4x, floor half of that."""

    def test_one_source_batch_beats_bfs_level_on_road(self, road_small):
        g = road_small
        s = int(_sources(g, 1)[0])

        def batched():
            return lg.msbfs_levels(g, [s])

        def direct():
            return lg.bfs_level(g, s)

        assert batched().extract_row(0).isequal(direct())
        assert ab_ratio(batched, direct) >= 1.5
