"""Tests for batched multi-source BFS / SSSP (the serving kernels).

The contract under test is strong: every row of a batched sweep is
*bit-identical* to the corresponding single-source Advanced-mode call, at
every batch size — a one-source batch runs the same compiled-product +
witness-probe loop as a twelve-source one.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import ab_ratio, random_graph_np, random_graphs
from repro import grb
from repro import lagraph as lg
from repro.gap.harness import _sources


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


class TestSsspBatch:
    @pytest.mark.parametrize("directed", [True, False])
    def test_rows_match_bellman_ford(self, rng, directed):
        g = random_graph_np(rng, n=50, p=0.1, directed=directed, weighted=True)
        sources = rng.integers(0, g.n, size=10)
        d = lg.sssp_batch(g, sources)
        for k, s in enumerate(sources):
            assert d.extract_row(k).isequal(lg.sssp_bellman_ford(g, int(s)))

    def test_rows_match_delta_stepping(self, rng):
        g = random_graph_np(rng, n=40, p=0.12, weighted=True)
        sources = rng.integers(0, g.n, size=6)
        d = lg.sssp_batch(g, sources)
        for k, s in enumerate(sources):
            assert d.extract_row(k).isequal(
                lg.sssp_delta_stepping(g, int(s), delta=3.0))

    def test_unreached_nodes_have_no_entry(self):
        A = grb.Matrix.from_coo([0], [1], [2.0], 3, 3)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        d = lg.sssp_batch(g, [0, 2])
        assert d.extract_row(0).nvals == 2      # 0 and 1
        assert d.extract_row(1).nvals == 1      # just the source
        assert d[0, 1] == 2.0 and d[1, 2] == 0.0

    def test_negative_weights_rejected(self):
        A = grb.Matrix.from_coo([0], [1], [-1.0], 2, 2)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        with pytest.raises(grb.InvalidValue):
            lg.sssp_batch(g, [0])

    def test_bad_source(self, rng):
        g = random_graph_np(rng, n=10, p=0.2, weighted=True)
        with pytest.raises(grb.IndexOutOfBounds):
            lg.sssp_batch(g, [0, 99])

    def test_empty_batch(self, rng):
        g = random_graph_np(rng, n=10, p=0.2, weighted=True)
        d = lg.sssp_batch(g, [])
        assert d.shape == (0, 10) and d.nvals == 0
