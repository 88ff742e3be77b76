"""Tests for betweenness centrality (Alg. 3) and PageRank (Alg. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import random_graph_np, random_graphs
from repro import grb
from repro import lagraph as lg
from repro.gap import baselines, datasets
from repro.lagraph.errors import PropertyMissing

nx = pytest.importorskip("networkx")


def _to_nx(g):
    r, c, _ = g.A.to_coo()
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(zip(r.tolist(), c.tolist()))
    return G


class TestBetweennessCentrality:
    def test_advanced_requires_at(self, small_directed_graph):
        with pytest.raises(PropertyMissing):
            lg.betweenness_centrality_batch(small_directed_graph, [0])

    def test_diamond_exact(self, small_directed_graph):
        # node 1 and 2 each lie on half the 0→3 shortest paths
        cent = lg.betweenness_centrality(small_directed_graph,
                                         sources=range(4))
        vals = cent.to_dense()
        assert vals[0] == 0.0 and vals[3] == 0.0
        assert vals[1] == pytest.approx(0.5)
        assert vals[2] == pytest.approx(0.5)

    def test_matches_networkx_exact(self, rng):
        g = random_graph_np(rng, n=30, p=0.12)
        cent = lg.betweenness_centrality(g, sources=range(30)).to_dense()
        ref = nx.betweenness_centrality(_to_nx(g), normalized=False)
        np.testing.assert_allclose(cent, [ref[i] for i in range(30)],
                                   atol=1e-9)

    def test_matches_baseline_on_batch(self, rng):
        g = random_graph_np(rng, n=40, p=0.1)
        sources = [0, 7, 13]
        cent = lg.betweenness_centrality(g, sources=sources).to_dense()
        ref = baselines.betweenness_centrality(g, sources)
        np.testing.assert_allclose(cent, ref, atol=1e-9)

    @given(g=random_graphs(directed=True, max_n=10))
    @settings(max_examples=10)
    def test_property_nonnegative_and_endpoints_zero_on_dag_sources(self, g):
        cent = lg.betweenness_centrality(g, sources=range(g.n)).to_dense()
        assert (cent > -1e-9).all()

    def test_batching_is_additive(self, rng):
        g = random_graph_np(rng, n=25, p=0.15)
        all_at_once = lg.betweenness_centrality(
            g, sources=[1, 2, 3, 4], batch_size=4).to_dense()
        two_batches = lg.betweenness_centrality(
            g, sources=[1, 2, 3, 4], batch_size=2).to_dense()
        np.testing.assert_allclose(all_at_once, two_batches, atol=1e-9)

    def test_random_sources_draw(self, rng):
        g = random_graph_np(rng, n=20, p=0.2)
        cent = lg.betweenness_centrality(g, batch_size=3, seed=7)
        assert cent.size == 20

    def test_empty_sources(self, small_directed_graph):
        small_directed_graph.cache_at()
        cent = lg.betweenness_centrality_batch(small_directed_graph, [])
        np.testing.assert_array_equal(cent.to_dense(), np.zeros(4))


def _bc_batch_reference(g, sources):
    """Alg. 3 as this repository wrote it before ``P`` and ``B`` were
    pinned to bitmap and updated in accumulate form: every update rebuilds
    its output, ``B += W ×∩ P`` is an eWiseAdd of a materialised product.
    Kept as the bit-identity reference for the shipped formulation."""
    sr = grb.semiring("plus", "first")
    n, ns = g.n, len(sources)
    p = grb.Matrix.from_coo(np.arange(ns), sources, np.ones(ns), ns, n)
    f = grb.Matrix(grb.FP64, ns, n)
    not_p = lambda: grb.complement(grb.structure(p))   # noqa: E731
    grb.mxm(f, p, g.A, sr, mask=not_p())
    levels = []
    while f.nvals:
        levels.append(f.pattern())
        p = p.ewise_add(f, grb.binary.PLUS)
        grb.mxm(f, f, g.A, sr, mask=not_p(), replace=True)
    b = grb.Matrix.from_dense(np.ones((ns, n)))
    w = grb.Matrix(grb.FP64, ns, n)
    for i in range(len(levels) - 1, 0, -1):
        grb.ewise_mult(w, b, p, grb.binary.DIV,
                       mask=grb.structure(levels[i]), replace=True)
        grb.mxm(w, w, g.AT, sr, mask=grb.structure(levels[i - 1]),
                replace=True)
        b = b.ewise_add(w.ewise_mult(p, grb.binary.TIMES), grb.binary.PLUS)
    centrality = grb.Vector.from_dense(np.full(n, -float(ns)))
    grb.reduce_colwise(centrality, b, grb.monoid.PLUS_MONOID,
                       accum=grb.binary.PLUS)
    return centrality


def _two_islands():
    """Two random components with no edge between them, plus isolated
    nodes: frontiers die at different levels, rows of P never fill."""
    a = random_graph_np(None, n=14, p=0.25, seed=3).A.to_dense()
    b = random_graph_np(None, n=9, p=0.3, seed=4).A.to_dense()
    dense = np.zeros((26, 26), dtype=bool)
    dense[:14, :14], dense[14:23, 14:23] = a, b
    r, c = np.nonzero(dense)
    return lg.Graph(grb.Matrix.from_coo(r, c, np.ones(r.size, bool), 26, 26),
                    lg.ADJACENCY_DIRECTED)


class TestAccumulateFormBC:
    """The shipped Alg. 3 (bitmap-pinned ``P``/``B``, in-place accumulate
    writes, probe-driven intersections) against the reference above and
    the GAP baseline."""

    GRAPHS = {
        "kron-tiny": lambda: datasets.build("kron", "tiny"),
        "road-tiny": lambda: datasets.build("road", "tiny"),
        "two-islands": _two_islands,
    }

    @staticmethod
    def _sources(g):
        deg = np.diff(g.A.indptr)
        return np.flatnonzero(deg > 0)[[0, 3, 5, -1]].tolist()

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_bit_identical_to_the_rebuild_formulation(self, name):
        g = self.GRAPHS[name]()
        g.cache_at()
        sources = self._sources(g)
        got = lg.betweenness_centrality_batch(g, sources)
        assert got.isequal(_bc_batch_reference(g, sources))
        np.testing.assert_allclose(
            got.to_dense(), baselines.betweenness_centrality(g, sources),
            atol=1e-9)

    def test_updates_are_written_in_place(self):
        from repro import obs
        g = self.GRAPHS["road-tiny"]()
        g.cache_at()
        with obs.tracing() as tr:
            lg.betweenness_centrality_batch(g, self._sources(g))
        kernels = [r for r in tr.records() if r["name"].startswith("kernel:")]
        delta = {r["parent_id"] for r in tr.find("write")
                 if r["args"]["delta"]}
        by_rule = {}
        for k in kernels:
            by_rule.setdefault(k["name"], []).append(k["span_id"] in delta)
        assert all(by_rule["kernel:update-write"])          # P += F
        probes = by_rule["kernel:ewise-intersect"]          # both ∩ per level
        assert probes and sum(probes) * 2 == len(probes)    # B += W ×∩ P
        # ... and each walks a sorted side, never the whole grid's flags
        assert {e["layout"] for e in tr.decisions()
                if e["op"] == "ewise_mult"} == {"probe"}


class TestPageRankGAP:
    def test_advanced_requires_properties(self, small_directed_graph):
        with pytest.raises(PropertyMissing):
            lg.pagerank_gap(small_directed_graph)

    def test_matches_baseline_exactly(self, rng):
        g = random_graph_np(rng, n=50, p=0.08)
        rank, iters = lg.pagerank(g, tol=1e-10)
        ref, ref_iters = baselines.pagerank(g, tol=1e-10)
        np.testing.assert_allclose(rank.to_dense(), ref, atol=1e-12)
        assert iters == ref_iters

    def test_dangling_mass_leaks(self):
        # GAP PR drops dangling mass — the sum falls below 1 (Sec. IV-C)
        A = grb.Matrix.from_coo([0, 1], [1, 2], [True, True], 3, 3)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)   # node 2 dangles
        rank, _ = lg.pagerank(g, variant="gap", tol=1e-12, itermax=200)
        assert rank.to_dense().sum() < 0.999

    def test_respects_itermax(self, rng):
        g = random_graph_np(rng, n=30, p=0.1)
        _, iters = lg.pagerank(g, tol=0.0, itermax=5)
        assert iters == 5


class TestPageRankGraphalytics:
    def test_sums_to_one_with_dangling(self):
        A = grb.Matrix.from_coo([0, 1], [1, 2], [True, True], 3, 3)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        rank, _ = lg.pagerank(g, variant="graphalytics", tol=1e-12,
                              itermax=300)
        assert rank.to_dense().sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_networkx(self, rng):
        g = random_graph_np(rng, n=40, p=0.1)
        rank, _ = lg.pagerank(g, variant="graphalytics", tol=1e-12,
                              itermax=500)
        ref = nx.pagerank(_to_nx(g), alpha=0.85, tol=1e-13, max_iter=1000)
        np.testing.assert_allclose(rank.to_dense(),
                                   [ref[i] for i in range(40)], atol=1e-8)

    def test_variants_agree_without_dangling_nodes(self, rng):
        # complete cycle: no dangling nodes → the variants coincide
        n = 12
        A = grb.Matrix.from_coo(range(n), np.roll(range(n), -1),
                                np.ones(n, bool), n, n)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        r1, _ = lg.pagerank(g, variant="gap", tol=1e-14, itermax=500)
        r2, _ = lg.pagerank(g, variant="graphalytics", tol=1e-14, itermax=500)
        np.testing.assert_allclose(r1.to_dense(), r2.to_dense(), atol=1e-10)

    def test_unknown_variant(self, small_directed_graph):
        with pytest.raises(ValueError):
            lg.pagerank(small_directed_graph, variant="bogus")
