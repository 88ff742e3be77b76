"""Tests for triangle counting (Alg. 6) and connected components (Alg. 7)."""

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import ab_ratio, random_graph_np, random_graphs
from repro import grb
from repro import lagraph as lg
from repro.gap import baselines, verify
from repro.lagraph.algorithms import TC_METHODS
from repro.lagraph.errors import InvalidKind, PropertyMissing

nx = pytest.importorskip("networkx")


def _undirected(rng, n=40, p=0.15):
    return random_graph_np(rng, n=n, p=p, directed=False)


class TestTriangleCountAdvanced:
    def test_requires_ndiag(self, triangle_graph):
        with pytest.raises(PropertyMissing):
            lg.triangle_count(triangle_graph, presort=None)

    def test_requires_symmetry_info_for_directed(self, small_directed_graph):
        small_directed_graph.cache_ndiag()
        with pytest.raises(InvalidKind):
            lg.triangle_count(small_directed_graph, presort=None)

    def test_rejects_nonzero_diagonal(self):
        A = grb.Matrix.from_coo([0, 1, 0], [1, 0, 0], np.ones(3, bool), 2, 2)
        g = lg.Graph(A, lg.ADJACENCY_UNDIRECTED)
        g.cache_ndiag()
        with pytest.raises(InvalidKind):
            lg.triangle_count(g, presort=None)

    def test_presort_auto_requires_degree(self, triangle_graph):
        triangle_graph.cache_ndiag()
        with pytest.raises(PropertyMissing):
            lg.triangle_count(triangle_graph, presort="auto")

    def test_triangle_plus_pendant(self, triangle_graph):
        triangle_graph.cache_ndiag()
        assert lg.triangle_count(triangle_graph, presort=None) == 1

    @pytest.mark.parametrize("method", TC_METHODS)
    def test_all_methods_agree(self, rng, method):
        g = _undirected(rng)
        g.cache_ndiag()
        g.cache_row_degree()
        expected = baselines.triangle_count(g)
        assert lg.triangle_count(g, method=method, presort=None) == expected

    @pytest.mark.parametrize("presort", [None, "ascending", "descending", "auto"])
    def test_presort_invariance(self, rng, presort):
        """The permutation is a performance heuristic — counts must not change."""
        g = _undirected(rng)
        g.cache_ndiag()
        g.cache_row_degree()
        assert lg.triangle_count(g, presort=presort) == \
            baselines.triangle_count(g)

    def test_unknown_method(self, triangle_graph):
        triangle_graph.cache_ndiag()
        with pytest.raises(ValueError):
            lg.triangle_count(triangle_graph, method="quantum", presort=None)

    @given(g=random_graphs(directed=False, max_n=12))
    @settings(max_examples=15)
    def test_property_matches_networkx(self, g):
        g.cache_ndiag()
        if g.ndiag:
            g = lg.Graph(g.A.offdiag(), lg.ADJACENCY_UNDIRECTED)
            g.cache_ndiag()
        r, c, _ = g.A.to_coo()
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(zip(r.tolist(), c.tolist()))
        expected = sum(nx.triangles(G).values()) // 3
        assert lg.triangle_count(g, presort=None) == expected


class TestTriangleCountBasic:
    def test_fixes_up_directed_input(self, rng):
        g = random_graph_np(rng, n=30, p=0.15, directed=True)
        count = lg.triangle_count_basic(g)
        verify.verify_tc(g, count)

    def test_strips_self_loops(self):
        A = grb.Matrix.from_dense(np.ones((3, 3), dtype=bool))
        g = lg.Graph(A, lg.ADJACENCY_UNDIRECTED)
        assert lg.triangle_count_basic(g) == 1

    def test_node_iterator_oracle_agrees(self, rng):
        g = _undirected(rng, n=25)
        assert baselines.triangle_count(g) == \
            baselines.triangle_count_node_iterator(g)

    def test_empty_graph(self):
        g = lg.Graph(grb.Matrix(grb.BOOL, 5, 5), lg.ADJACENCY_UNDIRECTED)
        assert lg.triangle_count_basic(g) == 0


class TestConnectedComponents:
    def test_two_components(self):
        A = grb.Matrix.from_coo([0, 1, 2, 3], [1, 0, 3, 2],
                                np.ones(4, bool), 5, 5)
        g = lg.Graph(A, lg.ADJACENCY_UNDIRECTED)
        comp = lg.fastsv(g).to_dense()
        np.testing.assert_array_equal(comp, [0, 0, 2, 2, 4])

    def test_labels_are_min_node_ids(self, rng):
        g = _undirected(rng, n=50, p=0.04)
        comp = lg.fastsv(g)
        verify.verify_cc(g, comp)

    def test_advanced_requires_symmetry(self, small_directed_graph):
        with pytest.raises(InvalidKind):
            lg.fastsv(small_directed_graph)

    def test_advanced_accepts_cached_symmetric_directed(self):
        A = grb.Matrix.from_coo([0, 1], [1, 0], np.ones(2, bool), 3, 3)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        g.cache_symmetric_pattern()
        comp = lg.fastsv(g).to_dense()
        np.testing.assert_array_equal(comp, [0, 0, 2])

    def test_basic_mode_symmetrises(self, rng):
        g = random_graph_np(rng, n=60, p=0.03, directed=True)
        comp = lg.connected_components(g)
        verify.verify_cc(g, comp)

    def test_isolated_nodes_are_their_own_component(self):
        g = lg.Graph(grb.Matrix(grb.BOOL, 4, 4), lg.ADJACENCY_UNDIRECTED)
        comp = lg.fastsv(g).to_dense()
        np.testing.assert_array_equal(comp, [0, 1, 2, 3])

    def test_path_graph_single_component(self):
        n = 30
        r = np.concatenate([np.arange(n - 1), np.arange(1, n)])
        c = np.concatenate([np.arange(1, n), np.arange(n - 1)])
        A = grb.Matrix.from_coo(r, c, np.ones(r.size, bool), n, n)
        g = lg.Graph(A, lg.ADJACENCY_UNDIRECTED)
        assert (lg.fastsv(g).to_dense() == 0).all()

    @given(g=random_graphs(directed=False))
    @settings(max_examples=20)
    def test_property_matches_scipy(self, g):
        verify.verify_cc(g, lg.fastsv(g))

    @given(g=random_graphs(directed=True))
    @settings(max_examples=15)
    def test_property_weak_components_directed(self, g):
        verify.verify_cc(g, lg.connected_components(g))

    def test_fastsv_agrees_with_scipy(self, rng):
        g = _undirected(rng, n=40, p=0.05)
        np.testing.assert_array_equal(lg.fastsv(g).to_dense(),
                                      baselines.connected_components(g))


def _undirected_from_edges(edges, n):
    r, c = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    A = grb.Matrix.from_coo(np.concatenate((r, c)), np.concatenate((c, r)),
                            np.ones(2 * r.size, bool), n, n)
    return lg.Graph(A, lg.ADJACENCY_UNDIRECTED)


class TestAfforestSampling:
    """FastSV hooks a 4-out sample, finds the giant tree, then finishes
    over the edges that touch a node outside it."""

    def test_remainder_is_symmetric(self):
        """Vertex 14 has six neighbours, and the sample keeps 2, 4, 10
        and 11 of them.  The sample's giant tree is rooted at 2; the
        component's minimum id 0 roots the tree {0, 12, 13, 16}, which
        meets the giant tree only in rows 12 and 13.  A remainder of only
        the rows outside the giant tree labels vertices 2-8, 10, 11, 14,
        15 and 17 with 2."""
        g = _undirected_from_edges(
            [(0, 12), (2, 14), (4, 6), (4, 8), (5, 4), (5, 6), (5, 7),
             (7, 17), (8, 3), (11, 14), (12, 14), (12, 16), (13, 12),
             (14, 4), (14, 10), (14, 13), (15, 5), (17, 15)], 18)
        expect = [0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0]
        np.testing.assert_array_equal(lg.fastsv(g).to_dense(), expect)
        np.testing.assert_array_equal(baselines.connected_components(g),
                                      expect)

    @pytest.mark.parametrize("kind", (lg.ADJACENCY_UNDIRECTED,
                                      lg.ADJACENCY_DIRECTED))
    def test_empty_graph(self, kind):
        g = lg.Graph(grb.Matrix(grb.BOOL, 0, 0), kind)
        comp = lg.connected_components(g)
        assert comp.size == 0 and comp.type == grb.INT64

    def test_short_rows_sample_everything(self):
        """Every row holds at most 4 entries, so the sample is ``A`` and
        the remainder is empty."""
        g = _undirected_from_edges(
            [(i, i + 1) for i in range(9)] + [(0, 5), (12, 13), (13, 14)],
            16)
        np.testing.assert_array_equal(
            lg.fastsv(g).to_dense(), [0] * 10 + [10, 11, 12, 12, 12, 15])
        s = g.derived_operand(("cc", "sample"), None)
        np.testing.assert_array_equal(s.indptr, g.A.indptr)
        np.testing.assert_array_equal(s.indices, g.A.indices)

    def test_sample_keeps_first_four_of_each_row(self, rng):
        g = _undirected(rng, n=30, p=0.3)
        lg.fastsv(g)
        s = g.derived_operand(("cc", "sample"), None)
        for i in range(g.n):
            a_row = g.A.indices[g.A.indptr[i]:g.A.indptr[i + 1]]
            s_row = s.indices[s.indptr[i]:s.indptr[i + 1]]
            np.testing.assert_array_equal(s_row, a_row[:4])

    def test_random_graphs_match_scipy(self):
        for seed in range(500):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 31))
            g = random_graph_np(rng, n=n, p=rng.uniform(0.5, 3) / n,
                                directed=False)
            np.testing.assert_array_equal(
                lg.fastsv(g).to_dense(), baselines.connected_components(g),
                err_msg=f"seed {seed}")

    def test_directed_basic_builds_operands_once(self, rng, monkeypatch):
        g = random_graph_np(rng, n=40, p=0.05, directed=True)
        calls = []
        ewise_add = grb.Matrix.ewise_add

        def spy(self, *args, **kwargs):
            calls.append(self)
            return ewise_add(self, *args, **kwargs)

        monkeypatch.setattr(grb.Matrix, "ewise_add", spy)
        first = lg.connected_components(g)
        second = lg.connected_components(g)
        assert len(calls) == 1
        assert first.isequal(second)
        verify.verify_cc(g, second)


class TestAfforestRatioGuard:
    """What the sample buys on kron-small: ``fastsv`` with its sample
    cached against the full rounds over ``A`` it replaced.  Measured
    5.6-6.1x warm (5.3-5.7x with the sample rebuilt each call, after
    ``invalidate_properties()``); the floor is under half of that."""

    def test_sampled_beats_full_rounds(self, kron_small):
        from repro.lagraph.algorithms.cc import _rounds
        g = kron_small

        def sampled():
            return lg.fastsv(g)

        def full():
            return _rounds(g.A, np.arange(g.n, dtype=np.int64))

        np.testing.assert_array_equal(sampled().to_dense(), full())
        assert ab_ratio(sampled, full) >= 1.3
