"""Tests for SSSP (Algorithm 5, delta-stepping)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import ab_ratio, random_graph_np, random_graphs
from repro import grb, obs
from repro import lagraph as lg
from repro.gap import baselines, datasets, verify
from repro.grb.engine import cost
from repro.obs import profile


def _weighted_diamond():
    # 0→1 (1), 0→2 (4), 1→3 (2), 2→3 (1): shortest 0→3 = 3 via 1
    A = grb.Matrix.from_coo([0, 0, 1, 2], [1, 2, 3, 3],
                            [1.0, 4.0, 2.0, 1.0], 4, 4)
    return lg.Graph(A, lg.ADJACENCY_DIRECTED)


class TestDeltaStepping:
    def test_diamond(self):
        d = lg.sssp_delta_stepping(_weighted_diamond(), 0, delta=2.0)
        assert d[0] == 0.0 and d[1] == 1.0 and d[2] == 4.0 and d[3] == 3.0

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, 10.0, 1000.0])
    def test_delta_invariance(self, delta):
        """Any Δ must give the same distances (bucketing is performance-only)."""
        d = lg.sssp_delta_stepping(_weighted_diamond(), 0, delta=delta)
        np.testing.assert_allclose(d.to_dense(fill=np.inf)[:4],
                                   [0.0, 1.0, 4.0, 3.0])

    def test_unreachable_nodes_absent(self):
        A = grb.Matrix.from_coo([0], [1], [2.0], 3, 3)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        d = lg.sssp_delta_stepping(g, 0, delta=1.0)
        assert 2 not in d and d.nvals == 2

    def test_rejects_negative_weights(self):
        A = grb.Matrix.from_coo([0], [1], [-2.0], 2, 2)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        with pytest.raises(grb.InvalidValue):
            lg.sssp_delta_stepping(g, 0, delta=1.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(grb.InvalidValue):
            lg.sssp_delta_stepping(_weighted_diamond(), 0, delta=delta)

    def test_bucket_bound_that_rounds_below_its_index(self):
        # 0.7 + 0.7 + 0.7 == fl(3 · 0.7) but that // 0.7 is 2: the bucket
        # index must not step back (the seed looped forever here, also
        # from Basic mode, whose Δ = mean weight = 0.7)
        A = grb.Matrix.from_coo([0, 1, 2], [1, 2, 3], [0.7] * 3, 4, 4)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        for d in (lg.sssp_delta_stepping(g, 0, delta=0.7), lg.sssp(g, 0)):
            assert d.to_coo()[1].tolist() == [0.0, 0.7, 0.7 + 0.7,
                                              0.7 + 0.7 + 0.7]

    def test_bad_source(self):
        with pytest.raises(grb.IndexOutOfBounds):
            lg.sssp_delta_stepping(_weighted_diamond(), -1)

    def test_heavy_edges_only(self):
        # all weights > Δ: everything happens in the heavy phase
        A = grb.Matrix.from_coo([0, 1], [1, 2], [10.0, 10.0], 3, 3)
        g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
        d = lg.sssp_delta_stepping(g, 0, delta=1.0)
        assert d[2] == 20.0

    def test_matches_dijkstra_on_random(self, rng):
        g = random_graph_np(rng, n=60, p=0.07, weighted=True)
        d = lg.sssp_delta_stepping(g, 0, delta=3.0)
        verify.verify_sssp(g, 0, d)

    @given(g=random_graphs(directed=True, weighted=True))
    @settings(max_examples=15)
    def test_property_matches_dijkstra(self, g):
        d = lg.sssp_delta_stepping(g, 0, delta=2.5)
        verify.verify_sssp(g, 0, d)

    @given(g=random_graphs(directed=False, weighted=True))
    @settings(max_examples=10)
    def test_property_undirected(self, g):
        d = lg.sssp_delta_stepping(g, 1 % g.n, delta=4.0)
        verify.verify_sssp(g, 1 % g.n, d)


class TestBellmanFord:
    def test_diamond(self):
        d = lg.sssp_bellman_ford(_weighted_diamond(), 0)
        assert d[3] == 3.0

    @given(g=random_graphs(directed=True, weighted=True))
    @settings(max_examples=15)
    def test_agrees_with_delta_stepping(self, g):
        d1 = lg.sssp_bellman_ford(g, 0)
        d2 = lg.sssp_delta_stepping(g, 0, delta=2.0)
        assert d1.size == d2.size
        np.testing.assert_array_equal(d1.indices, d2.indices)
        np.testing.assert_allclose(d1.values, d2.values)


ENTRY_POINTS = {
    "delta_stepping": lambda g: lg.sssp_delta_stepping(g, 0, delta=2.0),
    "bellman_ford": lambda g: lg.sssp_bellman_ford(g, 0),
    "batch": lambda g: lg.sssp_batch(g, [0]),
    "basic": lambda g: lg.sssp(g, 0),
}


class TestInputContract:
    """Sec. II-C/D: a weight no shortest path can be defined over is an
    ``InvalidValue`` at every entry point, never a wrong answer (one
    ``inf`` or ``nan`` weight made Basic mode return only the source, and
    delta-stepping raise a bare ``ValueError``)."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0])
    def test_rejects_weight(self, entry, bad):
        A = grb.Matrix.from_coo([0, 0, 1, 2], [1, 2, 3, 3],
                                [1.0, bad, 2.0, 1.0], 4, 4)
        with pytest.raises(grb.InvalidValue):
            ENTRY_POINTS[entry](lg.Graph(A, lg.ADJACENCY_DIRECTED))


class TestBasicMode:
    def test_picks_delta_from_weights(self, rng):
        g = random_graph_np(rng, n=40, p=0.1, weighted=True)
        d = lg.sssp(g, 0)
        verify.verify_sssp(g, 0, d)

    def test_boolean_graph_falls_back_to_hop_counts(self, small_directed_graph):
        d = lg.sssp(small_directed_graph, 0)
        # boolean weights: True == 1, so distances are hop counts
        assert d[3] == 2.0

    def test_delta_numpy_baseline_agrees(self, rng):
        g = random_graph_np(rng, n=50, p=0.08, weighted=True)
        ours = lg.sssp(g, 2)
        ref = baselines.sssp_delta_numpy(g, 2, delta=3.0)
        np.testing.assert_array_equal(ours.indices,
                                      np.flatnonzero(np.isfinite(ref)))
        np.testing.assert_allclose(ours.values, ref[ours.indices])


# ---------------------------------------------------------------------------
# the shipped delta-stepping against the formulation it replaced
# ---------------------------------------------------------------------------

MIN_PLUS = grb.semiring("min", "plus")


def _improves_into_bucket(v, i, j, thunk):
    present, dense, lo, hi = thunk
    old = np.where(present[i], dense[i], np.inf)
    return (v < old) & (v >= lo) & (v < hi)


_OLD_FILTER = grb.selectops.SelectOp("__test_improves_into_bucket",
                                     _improves_into_bucket)


def _alg5_reference(g, source, delta):
    """Delta-stepping as it was before ``t`` was pinned to bitmap: every
    light round a ``vxm`` + ``select`` + ``ewise_add(t, t, tReq, MIN)``
    over a sparse ``t`` — the *whole* ``tReq`` merged, the filter
    reading ``t``'s public bitmap snapshot, the bucket test two-sided.
    (The bucket index carries the same never-step-back guard as the
    shipped loop; without it this loop does not terminate on every
    hypothesis draw.)"""
    a, n = g.A, g.n
    al = a.select("valuele", delta)
    ah = a.select("valuegt", delta)
    t = grb.Vector(grb.FP64, n)
    t[source] = 0.0
    treq = grb.Vector(grb.FP64, n)
    i = 0
    while True:
        unsettled = t.select("valuege", i * delta)
        if unsettled.nvals == 0:
            return t
        i = max(i, int(float(unsettled.values.min()) // delta))
        lo, hi = i * delta, (i + 1) * delta
        tbi = t.select("valuege", lo).select("valuelt", hi)
        ever = np.zeros(n, dtype=bool)
        while tbi.nvals:
            ever[tbi.indices] = True
            nxt = grb.Vector(grb.FP64, n)
            grb.vxm(treq, tbi, al, MIN_PLUS, replace=True)
            grb.select(nxt, treq, _OLD_FILTER, t.bitmap() + (lo, hi))
            grb.ewise_add(t, t, treq, grb.binary.MIN)
            tbi = nxt
        th_idx = np.flatnonzero(ever)
        if th_idx.size:
            _, t_dense = t.bitmap()
            th = grb.Vector.from_coo(th_idx, t_dense[th_idx], n)
            grb.vxm(treq, th, ah, MIN_PLUS, replace=True)
            grb.ewise_add(t, t, treq, grb.binary.MIN)
        i += 1


def _deltas(g):
    w = g.A.values[g.A.values > 0]
    if w.size == 0:
        return [1.0]
    return [0.5 * float(w.min()), float(w.mean()), 10.0 * float(w.max())]


def _two_islands():
    r = [0, 1, 2, 4, 5, 6]
    c = [1, 2, 0, 5, 6, 4]
    A = grb.Matrix.from_coo(r, c, [1.5, 2.5, 0.5, 3.0, 1.0, 2.0], 8, 8)
    return lg.Graph(A, lg.ADJACENCY_DIRECTED)


def _zero_weight_edges():
    A = grb.Matrix.from_coo([0, 1, 2, 0, 3], [1, 2, 3, 3, 4],
                            [0.0, 0.0, 2.0, 1.0, 0.0], 5, 5)
    return lg.Graph(A, lg.ADJACENCY_DIRECTED)


def _integer_weights():
    rng = np.random.default_rng(5)
    keep = rng.random((12, 12)) < 0.25
    np.fill_diagonal(keep, False)
    r, c = np.nonzero(keep)
    A = grb.Matrix.from_coo(r, c, rng.integers(1, 8, r.size), 12, 12,
                            typ=grb.INT64)
    return lg.Graph(A, lg.ADJACENCY_DIRECTED)


GRAPHS = {
    "kron-tiny": lambda: datasets.build("kron", "tiny", weighted=True),
    "road-tiny": lambda: datasets.build("road", "tiny", weighted=True),
    "two-islands": _two_islands,
    "zero-weight-edges": _zero_weight_edges,
    "integer-weights": _integer_weights,
}


@pytest.fixture(params=(True, False), ids=("fused", "decomposed"))
def fusion(request, monkeypatch):
    monkeypatch.setattr(cost, "FUSION_ENABLED", request.param)


def _assert_identical(g, source, delta):
    got = lg.sssp_delta_stepping(g, source, delta=delta)
    ref = _alg5_reference(g, source, delta)
    np.testing.assert_array_equal(got.indices, ref.indices)
    np.testing.assert_array_equal(got.values, ref.values)


class TestAlg5Identity:
    """Merging only the strict improvements (``t min= tless``) leaves the
    ``t`` that merging all of ``tReq`` leaves — entry for entry, bit for
    bit — and so does everything else the rewrite moved."""

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_directed(self, name, fusion):
        g = GRAPHS[name]()
        sources = np.flatnonzero(np.diff(g.A.indptr) > 0)[:3]
        for delta in _deltas(g):
            for s in sources:
                _assert_identical(g, int(s), delta)

    @given(g=random_graphs(directed=True, weighted=True))
    @settings(max_examples=15)
    def test_property(self, g):
        for fused in (True, False):
            with mock.patch.object(cost, "FUSION_ENABLED", fused):
                for delta in _deltas(g):
                    _assert_identical(g, 0, delta)


# ---------------------------------------------------------------------------
# where the merges land, and what that is worth
# ---------------------------------------------------------------------------

RUNS = {
    "delta_stepping": lambda g: lg.sssp_delta_stepping(
        g, 0, delta=float(g.A.values.mean())),
    "bellman_ford": lambda g: lg.sssp_bellman_ford(g, 0),
}


class TestMergeSpans:
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_every_merge_is_written_in_place(self, run):
        g = GRAPHS["road-tiny"]()
        profile.reset()
        with obs.tracing() as trace, obs.profiling():
            RUNS[run](g)
        names = {r["span_id"]: r["name"] for r in trace.records()}
        # the only ``update`` calls in either function are ``t min= tless``
        merges = [w["args"]["delta"] for w in trace.find("write")
                  if names[w["parent_id"]] == "kernel:update-write"]
        assert merges and all(merges)
        kernels = profile.kernel_table()
        assert kernels["delta_write"]["calls"] == len(merges)
        assert "union_merge" not in kernels


class TestSsspRatioGuard:
    """The shipped loop against the same loop with every merge rebuilding
    ``t`` — the path a store that may not be written in place takes,
    selected here by what ``_writable_bitmap`` answers, not by a switch.
    Only the ratio is asserted (measured 1.48–1.71x over 10 runs)."""

    def test_in_place_merge_holds_parity_on_road(self, road_small):
        out = {}

        def in_place():
            out["fast"] = lg.sssp_delta_stepping(road_small, 0)

        def rebuild():
            with mock.patch.object(grb.Vector, "_writable_bitmap",
                                   return_value=None):
                out["slow"] = lg.sssp_delta_stepping(road_small, 0)

        in_place(), rebuild()                     # warm both arms
        assert out["fast"].isequal(out["slow"])
        assert ab_ratio(in_place, rebuild) >= 1 / 1.2
