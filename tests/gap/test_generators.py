"""Tests for the GAP graph generators (Table IV stand-ins)."""

import numpy as np
import pytest

from helpers import oracle_build
from repro import grb
from repro import lagraph as lg
from repro.gap import datasets
from repro.gap import generators as gen
from repro.gap.generators import graphs
from repro.gap.generators.rmat import GRAPH500_ABCD, rmat_edges


class TestRmat:
    def test_edge_count_and_range(self):
        src, dst = rmat_edges(scale=6, edge_factor=8, seed=1)
        assert src.size == dst.size == 8 * 64
        assert src.min() >= 0 and src.max() < 64
        assert dst.min() >= 0 and dst.max() < 64

    def test_deterministic_per_seed(self):
        a = rmat_edges(5, 4, seed=3)
        b = rmat_edges(5, 4, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = rmat_edges(5, 4, seed=4)
        assert not np.array_equal(a[0], c[0])

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            rmat_edges(4, 4, abcd=(0.5, 0.5, 0.5, 0.5))

    def test_skew_produces_heavy_tail(self):
        """RMAT must have a fatter degree tail than uniform sampling."""
        src, _ = rmat_edges(10, 16, GRAPH500_ABCD, seed=2)
        deg = np.bincount(src, minlength=1 << 10)
        rng = np.random.default_rng(2)
        usrc = rng.integers(0, 1 << 10, size=src.size)
        udeg = np.bincount(usrc, minlength=1 << 10)
        assert deg.max() > 2 * udeg.max()


class TestGenerators:
    @pytest.mark.parametrize("name,kind", [
        ("kron", lg.ADJACENCY_UNDIRECTED),
        ("urand", lg.ADJACENCY_UNDIRECTED),
        ("twitter", lg.ADJACENCY_DIRECTED),
        ("web", lg.ADJACENCY_DIRECTED),
    ])
    def test_kind_and_scale(self, name, kind):
        g = gen.make_graph(name, scale=8)
        assert g.kind is kind
        assert g.n == 256
        g.check()

    def test_road_shape(self):
        g = gen.make_graph("road", side=10)
        assert g.n == 100
        assert g.kind is lg.ADJACENCY_DIRECTED
        g.check()

    def test_undirected_graphs_symmetric(self):
        for name in ("kron", "urand"):
            g = gen.make_graph(name, scale=7)
            assert g.A.is_symmetric_pattern(), name

    def test_no_self_loops(self):
        for name in ("kron", "urand", "twitter", "web"):
            assert gen.make_graph(name, scale=7).A.ndiag() == 0, name
        assert gen.make_graph("road", side=8).A.ndiag() == 0

    def test_weighted_variant(self):
        g = gen.kron(scale=7, weighted=True)
        assert g.A.dtype == np.float64
        assert g.A.values.min() >= 1 and g.A.values.max() <= 255
        # symmetric weights for undirected graphs
        assert g.A.isequal(g.A.T)

    def test_road_weighted_by_default(self):
        g = gen.road(side=8)
        assert g.A.dtype == np.float64

    def test_road_high_diameter(self):
        """The Road graph's defining property (Sec. VI-B discussion)."""
        from repro.gap.baselines import bfs_level
        g = gen.road(side=16, diag_fraction=0.0, weighted=False)
        level = bfs_level(g, 0)
        assert level.max() >= 30   # corner-to-corner ≈ 2·(side−1)

    def test_kron_heavier_tail_than_urand(self):
        k = gen.kron(scale=9)
        u = gen.urand(scale=9)
        kd = np.diff(k.A.indptr)
        ud = np.diff(u.A.indptr)
        assert kd.max() > 2 * ud.max()

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            gen.make_graph("facebook")

    def test_twitter_asymmetric(self):
        g = gen.twitter(scale=7)
        assert not g.A.is_symmetric_pattern()


def _oracle_matrix(src, dst, vals, n, dup_op):
    keys, vals = oracle_build(src * np.int64(n) + dst, vals, vals.dtype,
                              dup_op)
    return grb.Matrix.from_coo(keys // n, keys % n, vals, n, n)


def _reference_finalize(src, dst, n, kind, weighted, seed, symmetrize):
    """Reference finish: tuple-by-tuple folds, and the weighted mirror as
    ``min(W, Wᵀ)`` over the transpose."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if symmetrize:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    if weighted:
        rng = np.random.default_rng(seed + 0x5EED)
        vals = rng.integers(graphs._W_LOW, graphs._W_HIGH + 1,
                            size=src.size).astype(np.float64)
        a = _oracle_matrix(src, dst, vals, n, grb.binary.MIN)
        if symmetrize:
            a = a.ewise_add(a.T, grb.binary.MIN)
    else:
        vals = np.ones(src.size, dtype=np.bool_)
        a = _oracle_matrix(src, dst, vals, n, grb.binary.LOR)
    return lg.Graph(a, kind)


class TestBuildIdentity:
    """Every suite graph equals the reference build, array for array.

    ``small`` is the first size whose builds reach duplicate runs dozens
    of tuples long, and whose keys take the build's tagged sort over
    tens of thousands of positions (``grb/_kernels/build.py``)."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("name", sorted(datasets.SUITE))
    @pytest.mark.parametrize("size", ["tiny", "small"])
    def test_graph_matches_reference_build(self, size, name, weighted,
                                           monkeypatch):
        got = datasets.build(name, size, weighted=weighted).A
        monkeypatch.setattr(graphs, "_finalize", _reference_finalize)
        want = datasets.build(name, size, weighted=weighted).A
        assert got.type == want.type
        for field in ("indptr", "indices", "values"):
            g, w = getattr(got, field), getattr(want, field)
            assert g.dtype == w.dtype, field
            assert g.tobytes() == w.tobytes(), field
