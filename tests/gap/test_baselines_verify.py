"""Tests for the reference baselines and the GAP-style verifiers."""

import numpy as np
import pytest

from helpers import random_graph_np
from repro import grb
from repro import lagraph as lg
from repro.gap import baselines, verify

nx = pytest.importorskip("networkx")


def _to_nx(g, weighted=False):
    r, c, v = g.A.to_coo()
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n))
    if weighted:
        G.add_weighted_edges_from(zip(r.tolist(), c.tolist(), v.tolist()))
    else:
        G.add_edges_from(zip(r.tolist(), c.tolist()))
    return G


class TestBaselineBFS:
    def test_parent_tree_valid(self, rng):
        g = random_graph_np(rng, n=60, p=0.06)
        parent = baselines.bfs_parent(g, 0)
        level = baselines.bfs_level(g, 0)
        assert parent[0] == 0
        reached = np.flatnonzero(parent >= 0)
        np.testing.assert_array_equal(reached, np.flatnonzero(level >= 0))
        for v in reached:
            if v != 0:
                assert level[parent[v]] == level[v] - 1

    def test_level_matches_networkx(self, rng):
        g = random_graph_np(rng, n=50, p=0.08)
        level = baselines.bfs_level(g, 0)
        ref = nx.single_source_shortest_path_length(_to_nx(g), 0)
        for v, d in ref.items():
            assert level[v] == d
        assert (level >= 0).sum() == len(ref)

    def test_pull_path_taken_on_dense_graph(self, rng):
        # high density forces the heuristic into the pull branch at least once
        g = random_graph_np(rng, n=40, p=0.5)
        parent = baselines.bfs_parent(g, 0)
        assert (parent >= 0).sum() == 40


class TestBaselinePR:
    def test_matches_networkx_when_no_dangling(self, rng):
        n = 12
        A = grb.Matrix.from_coo(range(n), np.roll(range(n), -1),
                                np.ones(n, bool), n, n)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        rank, _ = baselines.pagerank(g, tol=1e-13, itermax=500)
        ref = nx.pagerank(_to_nx(g), alpha=0.85, tol=1e-14, max_iter=1000)
        np.testing.assert_allclose(rank, [ref[i] for i in range(n)],
                                   atol=1e-9)

    def test_ignores_edge_weights(self):
        """PageRank is structural: on a weighted adjacency the reference
        must agree with ``pagerank_gap`` (it used to multiply by the stored
        weights and diverge to 1e178 on weighted kron)."""
        from repro.gap import datasets
        g = datasets.build("kron", "tiny", weighted=True)
        g.cache_all()
        rank, _ = baselines.pagerank(g)
        assert np.isfinite(rank).all() and rank.max() <= 1.0
        ours, _ = lg.pagerank_gap(g)
        assert verify.verify_pr(g, ours, tol=1e-4)
        plain, _ = baselines.pagerank(datasets.build("kron", "tiny"))
        np.testing.assert_array_equal(rank, plain)


class TestBaselineBC:
    def test_matches_networkx(self, rng):
        g = random_graph_np(rng, n=25, p=0.15)
        ref = nx.betweenness_centrality(_to_nx(g), normalized=False)
        ours = baselines.betweenness_centrality(g, range(25))
        np.testing.assert_allclose(ours, [ref[i] for i in range(25)],
                                   atol=1e-9)


class TestBaselineSSSPandCC:
    def test_dijkstra_vs_networkx(self, rng):
        g = random_graph_np(rng, n=40, p=0.1, weighted=True)
        dist = baselines.sssp_dijkstra(g, 0)
        ref = nx.single_source_dijkstra_path_length(_to_nx(g, weighted=True), 0)
        for v, d in ref.items():
            assert dist[v] == pytest.approx(d)

    def test_delta_numpy_matches_dijkstra(self, rng):
        g = random_graph_np(rng, n=40, p=0.1, weighted=True)
        d1 = baselines.sssp_delta_numpy(g, 0, delta=2.0)
        d2 = baselines.sssp_dijkstra(g, 0)
        np.testing.assert_allclose(d1, d2)

    def test_cc_labels_min_normalised(self, rng):
        g = random_graph_np(rng, n=30, p=0.05, directed=False)
        labels = baselines.connected_components(g)
        for comp_id in np.unique(labels):
            members = np.flatnonzero(labels == comp_id)
            assert members.min() == comp_id


class TestVerifiers:
    """The verifiers must catch corrupted outputs, not just bless good ones."""

    def test_bfs_verifier_rejects_wrong_parent(self, small_directed_graph):
        p = lg.bfs_parent_push(small_directed_graph, 0)
        p[3] = 0   # 0 is not 3's parent (no edge 0→3)
        with pytest.raises(AssertionError):
            verify.verify_bfs_parent(small_directed_graph, 0, p)

    def test_bfs_verifier_rejects_missing_node(self, small_directed_graph):
        p = lg.bfs_parent_push(small_directed_graph, 0)
        p.remove_element(3)
        with pytest.raises(AssertionError):
            verify.verify_bfs_parent(small_directed_graph, 0, p)

    def test_level_verifier_rejects_off_by_one(self, small_directed_graph):
        lv = lg.bfs_level(small_directed_graph, 0)
        lv[3] = 5
        with pytest.raises(AssertionError):
            verify.verify_bfs_level(small_directed_graph, 0, lv)

    def test_sssp_verifier_rejects_wrong_distance(self):
        A = grb.Matrix.from_coo([0], [1], [2.0], 2, 2)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        d = lg.sssp(g, 0)
        d[1] = 1.0
        with pytest.raises(AssertionError):
            verify.verify_sssp(g, 0, d)

    def test_cc_verifier_rejects_merged_components(self):
        A = grb.Matrix.from_coo([0, 1], [1, 0], np.ones(2, bool), 4, 4)
        g = lg.Graph(A, lg.ADJACENCY_UNDIRECTED)
        comp = lg.fastsv(g)
        comp[3] = 0  # wrongly merge node 3 into component 0
        with pytest.raises(AssertionError):
            verify.verify_cc(g, comp)

    def test_pr_verifier_rejects_garbage(self, rng):
        g = random_graph_np(rng, n=20, p=0.2)
        rank, _ = lg.pagerank(g)
        bad = grb.Vector.from_dense(np.zeros(20))
        with pytest.raises(AssertionError):
            verify.verify_pr(g, bad)
        assert verify.verify_pr(g, rank, tol=1e-3)

    def test_tc_verifier(self, rng):
        g = random_graph_np(rng, n=20, p=0.2, directed=False)
        count = lg.triangle_count_basic(g)
        assert verify.verify_tc(g, count)
        with pytest.raises(AssertionError):
            verify.verify_tc(g, count + 1)

    def test_bc_verifier(self, rng):
        g = random_graph_np(rng, n=15, p=0.2)
        cent = lg.betweenness_centrality(g, sources=[0, 1])
        assert verify.verify_bc(g, [0, 1], cent)
