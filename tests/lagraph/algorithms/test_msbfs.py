"""Tests for batched multi-source BFS (the serving kernels).

The contract under test is strong: every row of a parents sweep is
*bit-identical* to the GAP reference BFS's parents from its source
(``bfs_parent_reference``), at every batch size — a one-source batch runs
the same raw-array frontier loop (push gathers and pull probes, chosen
per row) as a twelve-source one.
``bfs_level`` *is* the one-row levels sweep, so levels rows are checked
against the GAP reference BFS (``gap.verify.verify_bfs_level``) instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (ab_ratio, bfs_parent_reference, random_graph_np,
                     random_graphs)
from repro import grb, obs
from repro import lagraph as lg
from repro.gap import verify
from repro.gap.harness import _sources
from repro.grb._kernels import matmul
from repro.grb.engine import cost


def _verify_rows(g, sources, lv):
    """Every row of a levels sweep against the reference BFS."""
    assert lv.shape == (len(sources), g.n)
    for k, s in enumerate(sources):
        verify.verify_bfs_level(g, int(s), lv.extract_row(k))


class TestMsbfsParents:
    def test_diamond(self, small_directed_graph):
        p = lg.msbfs_parents(small_directed_graph, [0, 3])
        assert p.shape == (2, 4)
        assert p[0, 0] == 0 and p[0, 1] == 0 and p[0, 2] == 0
        assert p[1, 3] == 3 and p.extract_row(1).nvals == 1  # 3 reaches nothing

    @pytest.mark.parametrize("batch", [1, 12])
    @pytest.mark.parametrize("directed", [True, False])
    def test_rows_match_reference(self, rng, batch, directed):
        g = random_graph_np(rng, n=60, p=0.08, directed=directed)
        sources = rng.integers(0, g.n, size=batch)
        p = lg.msbfs_parents(g, sources)
        for k, s in enumerate(sources):
            assert p.extract_row(k).isequal(bfs_parent_reference(g, int(s)))

    @given(g=random_graphs(directed=True))
    @settings(max_examples=15)
    def test_random_graphs_match_reference(self, g):
        sources = np.arange(min(g.n, 5), dtype=np.int64)
        p = lg.msbfs_parents(g, sources)
        for k, s in enumerate(sources):
            assert p.extract_row(k).isequal(bfs_parent_reference(g, int(s)))

    def test_duplicate_sources_are_independent_rows(self, small_directed_graph):
        p = lg.msbfs_parents(small_directed_graph, [0, 0, 1])
        assert p.extract_row(0).isequal(p.extract_row(1))
        assert p.extract_row(2).isequal(
            bfs_parent_reference(small_directed_graph, 1))

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
    """The straggler fallback of the pull probe, ``mxv_pull_probe``: after
    ``PULL_PROBE_ROUNDS`` rounds it finishes with one ragged gather.  The
    default cap leaves that gather to rare high-degree stragglers, so the
    cap is forced to 0 (every candidate takes the gather) and 1, with
    every level of every row pulling — the parents must still be the GAP
    reference's, batched and one row at a time (Basic ``bfs()``)."""

    @pytest.fixture(autouse=True)
    def _pull_every_level(self, monkeypatch):
        monkeypatch.setattr(cost, "PUSHPULL_ALPHA", float("inf"))
        monkeypatch.setattr(cost, "PUSHPULL_BETA", float("inf"))

    @pytest.mark.parametrize("rounds", [0, 1])
    @pytest.mark.parametrize("graph", ["kron_small", "road_small"])
    def test_fallback_matches_reference(self, request, monkeypatch, graph,
                                   rounds):
        g = request.getfixturevalue(graph)
        monkeypatch.setattr(matmul, "PULL_PROBE_ROUNDS", rounds)
        sources = _sources(g, 4)
        p = lg.msbfs_parents(g, sources)
        for k, s in enumerate(sources):
            ref = bfs_parent_reference(g, int(s))
            assert p.extract_row(k).isequal(ref), (graph, rounds, k)
            assert lg.bfs(g, int(s))[0].isequal(ref), (graph, rounds, k)


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
        _verify_rows(g, sources, lg.msbfs_levels(g, sources))

    @given(g=random_graphs(directed=False))
    @settings(max_examples=15)
    def test_random_undirected_match(self, g):
        sources = np.arange(min(g.n, 4), dtype=np.int64)
        _verify_rows(g, sources, lg.msbfs_levels(g, sources))

    @given(g=random_graphs(directed=True))
    @settings(max_examples=15)
    def test_random_directed_bfs_level_matches_reference(self, g):
        for s in range(min(g.n, 4)):
            lv = lg.bfs_level(g, s)
            assert lv.type == grb.INT64
            verify.verify_bfs_level(g, s, lv)

    @pytest.mark.parametrize("kernel", ["levels", "parents"])
    def test_dense_output_goes_bitmap(self, rng, kernel):
        # a low-diameter sweep's output crosses the density line and is
        # built bitmap-resident, at any grid size
        g = random_graph_np(rng, n=60, p=0.15)
        sources = rng.integers(0, g.n, size=12)
        sweep = lg.msbfs_levels if kernel == "levels" else lg.msbfs_parents
        out = sweep(g, sources)
        assert out.format == "bitmap"
        if kernel == "levels":
            _verify_rows(g, sources, out)
        else:
            for k, s in enumerate(sources):
                assert out.extract_row(k).isequal(
                    bfs_parent_reference(g, int(s)))

    def test_basic_wrapper_returns_requested(self, small_directed_graph):
        p, lv = lg.msbfs(small_directed_graph, [0, 1], parent=True, level=True)
        assert p is not None and lv is not None
        p2, lv2 = lg.msbfs(small_directed_graph, [0], parent=False, level=True)
        assert p2 is None and lv2 is not None


class TestDirectionRecords:
    """A batched level makes one ``choose_direction`` call: one
    ``bfs_step`` record, counting the rows that push and pull.  A row
    whose frontier has emptied makes no choice."""

    @pytest.mark.parametrize("pull_only", [False, True])
    def test_one_record_per_level(self, kron_small, monkeypatch, pull_only):
        if pull_only:
            monkeypatch.setattr(cost, "PUSHPULL_ALPHA", float("inf"))
            monkeypatch.setattr(cost, "PUSHPULL_BETA", float("inf"))
        sources = _sources(kron_small, 8)
        with obs.tracing() as trace:
            lv = lg.msbfs_levels(kron_small, sources)
        depth = np.array([lv.extract_row(k).values.max()
                          for k in range(sources.size)])
        records = trace.decisions("bfs_step")
        # level d expands the rows reaching depth d - 1; the level after
        # the deepest finds nothing and ends the sweep
        assert len(records) == depth.max() + 1
        for d, e in enumerate(records, start=1):
            assert e["push_rows"] + e["pull_rows"] == (depth >= d - 1).sum()
        pulled = sum(e["pull_rows"] for e in records)
        pushed = sum(e["push_rows"] for e in records)
        if pull_only:
            assert pushed == 0
        else:
            assert pushed and pulled      # kron's middle levels pull


class TestBatchRatioGuard:
    """What coalescing buys: one 64-source sweep against the 64 public
    single-source calls it replaces, on kron-small (``ab_ratio``: arms
    alternate, best of 5, ratio only).  Each ``bfs_level`` call is the
    same sweep with one row, so this is the batch against 64 one-row
    batches.  Measured 1.7-2.5x (median 2.05 over 30 reads) — it was 5x
    before the sort-free reduction made a lone ``bfs_level`` 3x faster —
    so what is asserted is that batching does not lose."""

    def test_batched_levels_beat_sequential(self, kron_small):
        g = kron_small
        srcs = _sources(g, 64)

        def batched():
            return lg.msbfs_levels(g, srcs)

        def sequential():
            return [lg.bfs_level(g, int(s)) for s in srcs]

        _verify_rows(g, srcs, batched())
        for s, row in zip(srcs, sequential()):
            verify.verify_bfs_level(g, int(s), row)
        assert ab_ratio(batched, sequential) >= 1.0
