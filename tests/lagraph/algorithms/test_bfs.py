"""Tests for BFS (Algorithms 1 and 2)."""

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import bfs_parent_reference, random_graph_np, random_graphs
from repro import grb
from repro import lagraph as lg
from repro import obs
from repro.gap import baselines, verify
from repro.lagraph.errors import PropertyMissing


def _check_advanced(g):
    """``bfs_parent_do``'s tree verifies, and it is the reference's tree,
    not merely an equivalent one."""
    g.cache_at()
    g.cache_row_degree()
    p = lg.bfs_parent_do(g, 0)
    verify.verify_bfs_parent(g, 0, p)
    assert p.isequal(bfs_parent_reference(g, 0))


class TestParents:
    """Basic ``bfs()``'s parents: Alg. 2's tree, which is Alg. 1's."""

    def test_diamond(self, small_directed_graph):
        p, _ = lg.bfs(small_directed_graph, 0)
        assert p[0] == 0
        assert p[1] == 0 and p[2] == 0
        assert p[3] == 1        # any.secondi keeps the smallest frontier node

    def test_unreached_nodes_have_no_entry(self):
        A = grb.Matrix.from_coo([0], [1], [True], 3, 3)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        p, _ = lg.bfs(g, 0)
        assert p.nvals == 2 and 2 not in p

    def test_isolated_source(self):
        A = grb.Matrix.from_coo([1], [2], [True], 3, 3)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        p, _ = lg.bfs(g, 0)
        assert p.nvals == 1 and p[0] == 0

    def test_bad_source(self, small_directed_graph):
        with pytest.raises(grb.IndexOutOfBounds):
            lg.bfs(small_directed_graph, 7)

    @given(g=random_graphs(directed=True))
    @settings(max_examples=20)
    def test_valid_bfs_tree_on_random_graphs(self, g):
        p, _ = lg.bfs(g, 0)
        verify.verify_bfs_parent(g, 0, p)

    @given(g=random_graphs(directed=True))
    @settings(max_examples=20)
    def test_identical_to_reference_directed(self, g):
        p, _ = lg.bfs(g, 0)
        assert p.isequal(bfs_parent_reference(g, 0))

    @given(g=random_graphs(directed=False))
    @settings(max_examples=10)
    def test_identical_to_reference_undirected(self, g):
        p, _ = lg.bfs(g, 0)
        assert p.isequal(bfs_parent_reference(g, 0))


class TestDirectionOptimizing:
    def test_advanced_mode_demands_properties(self, small_directed_graph):
        with pytest.raises(PropertyMissing):
            lg.bfs_parent_do(small_directed_graph, 0)
        small_directed_graph.cache_at()
        with pytest.raises(PropertyMissing):
            lg.bfs_parent_do(small_directed_graph, 0)

    def test_matches_reference(self, small_directed_graph):
        g = small_directed_graph
        g.cache_at()
        g.cache_row_degree()
        assert lg.bfs_parent_do(g, 0).isequal(bfs_parent_reference(g, 0))

    def test_computes_no_properties(self, small_directed_graph):
        g = small_directed_graph
        g.cache_at()
        g.cache_row_degree()
        lg.bfs_parent_do(g, 0)
        assert g.col_degree is None and g.ndiag == -1
        assert g.A_pattern_is_symmetric == lg.BOOLEAN_UNKNOWN

    @given(g=random_graphs(directed=True))
    @settings(max_examples=20)
    def test_valid_tree_on_random_graphs(self, g):
        _check_advanced(g)

    @given(g=random_graphs(directed=False))
    @settings(max_examples=15)
    def test_undirected(self, g):
        _check_advanced(g)


class TestOneLoop:
    """A parents BFS is the raw-array sweep: each level is one push/pull
    choice (one ``bfs_step`` record) and dispatches no engine call."""

    RUNS = {
        "bfs_parent_do": lambda g: lg.bfs_parent_do(g, 0),
        "bfs": lambda g: lg.bfs(g, 0),
    }

    @pytest.mark.parametrize("run", ["bfs_parent_do", "bfs"])
    def test_every_level_is_one_choice(self, rng, run):
        g = random_graph_np(rng, n=60, p=0.06)
        g.cache_at()
        g.cache_row_degree()
        _, depth = lg.bfs_level(g, 0).to_coo()
        levels = int(depth.max()) + 1     # the last level finds no frontier
        assert levels > 3
        with obs.tracing() as trace:
            self.RUNS[run](g)
        records = trace.decisions()
        assert {e["op"] for e in records} == {"bfs_step"}
        assert len(records) == levels
        assert all(e["push_rows"] + e["pull_rows"] == 1 for e in records)


class TestLevelBFS:
    def test_diamond_levels(self, small_directed_graph):
        lv = lg.bfs_level(small_directed_graph, 0)
        assert lv[0] == 0 and lv[1] == 1 and lv[2] == 1 and lv[3] == 2

    @given(g=random_graphs(directed=True))
    @settings(max_examples=20)
    def test_matches_reference(self, g):
        lv = lg.bfs_level(g, 0)
        verify.verify_bfs_level(g, 0, lv)


class TestBasicMode:
    def test_returns_requested_outputs(self, small_directed_graph):
        p, lv = lg.bfs(small_directed_graph, 0, parent=True, level=True)
        assert p is not None and lv is not None
        p2, lv2 = lg.bfs(small_directed_graph, 0, parent=False, level=True)
        assert p2 is None and lv2 is not None

    def test_basic_mode_caches_properties(self, small_directed_graph):
        g = small_directed_graph
        lg.bfs(g, 0)
        assert g.AT is not None and g.row_degree is not None

    def test_levels_only_caches_nothing(self, small_directed_graph):
        g = small_directed_graph
        lg.bfs(g, 0, parent=False, level=True)
        assert g.AT is None and g.row_degree is None

    def test_parent_matches_baseline_reached_set(self, rng):
        g = random_graph_np(rng, n=50, p=0.08)
        p, _ = lg.bfs(g, 3)
        ref = baselines.bfs_parent(g, 3)
        np.testing.assert_array_equal(p.indices, np.flatnonzero(ref >= 0))
