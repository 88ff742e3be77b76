"""Unit tests for the serving engine's building blocks:
LRU cache, versioned registry, and the coalescing planner."""

import threading

import numpy as np
import pytest

from repro import grb
from repro import lagraph as lg
from repro import serve
from repro.serve.coalesce import PendingRequest, plan_batches


def _graph(n=4):
    A = grb.Matrix.from_coo([0, 0, 1, 2], [1, 2, 3, 3],
                            np.ones(4, dtype=np.bool_), n, n)
    return lg.Graph(A, lg.ADJACENCY_DIRECTED)


class TestLRUCache:
    def test_get_put_roundtrip(self):
        c = serve.LRUCache(4)
        c.put("a", 1)
        assert c.get("a") == 1
        assert c.get("b", "dflt") == "dflt"

    def test_eviction_is_lru(self):
        c = serve.LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")            # refresh a: b becomes LRU
        c.put("c", 3)
        assert c.get("a") == 1 and c.get("c") == 3
        assert c.get("b") is None
        assert c.stats().evictions == 1

    def test_zero_capacity_disables(self):
        c = serve.LRUCache(0)
        c.put("a", 1)
        assert c.get("a") is None and len(c) == 0

    def test_stats_and_hit_rate(self):
        c = serve.LRUCache(4)
        c.put("k", 1)
        c.get("k"); c.get("k"); c.get("missing")
        s = c.stats()
        assert (s.hits, s.misses) == (2, 1)
        assert s.hit_rate == pytest.approx(2 / 3)

    def test_peek_leaves_no_trace(self):
        c = serve.LRUCache(4)
        c.put("k", 1)
        assert c.peek("k") == 1 and c.peek("x", 0) == 0
        assert c.stats().hits == 0 and c.stats().misses == 0

    def test_purge_below_version(self):
        c = serve.LRUCache(8)
        c.put(("g", 1, 0, "q1"), "old")
        c.put(("g", 1, 2, "q2"), "new")
        c.put(("h", 1, 0, "q3"), "other-graph")
        assert c.purge_below("g", 2) == 1
        assert c.peek(("g", 1, 0, "q1")) is None
        assert c.peek(("g", 1, 2, "q2")) == "new"
        assert c.peek(("h", 1, 0, "q3")) == "other-graph"

    def test_threaded_hammer(self):
        c = serve.LRUCache(32)
        errs = []

        def worker(seed):
            try:
                rng = np.random.default_rng(seed)
                for _ in range(300):
                    k = int(rng.integers(0, 64))
                    if rng.random() < 0.5:
                        c.put(k, k)
                    else:
                        v = c.get(k)
                        assert v is None or v == k
            except Exception as e:  # pragma: no cover
                errs.append(e)
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs and len(c) <= 32


class TestGraphRegistry:
    def test_register_get(self):
        r = serve.GraphRegistry()
        g = _graph()
        r.register("g", g)
        assert r.get("g") is g and "g" in r and r.names() == ["g"]

    def test_unknown_graph(self):
        r = serve.GraphRegistry()
        with pytest.raises(serve.UnknownGraph):
            r.get("missing")

    def test_key_tracks_version(self):
        r = serve.GraphRegistry()
        g = _graph()
        r.register("g", g)
        k0 = r.key("g", "q")
        r.invalidate("g")
        k1 = r.key("g", "q")
        assert k0 != k1 and k1[2] == k0[2] + 1

    def test_rebinding_changes_epoch(self):
        r = serve.GraphRegistry()
        r.register("g", _graph())
        k0 = r.key("g", "q")
        r.register("g", _graph())    # fresh graph, version 0 again
        k1 = r.key("g", "q")
        assert k0 != k1              # epoch differs even though version ties

    def test_update_mutates_and_bumps(self):
        r = serve.GraphRegistry()
        g = _graph()
        g.cache_all()
        r.register("g", g)

        def add_edge(gr):
            gr.A[3, 0] = True
        v = r.update("g", add_edge)
        assert v == 1 and g.AT is None        # properties dropped
        assert g.A.get(3, 0)

    def test_requires_graph_type(self):
        with pytest.raises(TypeError):
            serve.GraphRegistry().register("g", object())


class TestPlanBatches:
    def _reqs(self, specs):
        return [PendingRequest(name, q) for name, q in specs]

    def test_same_group_coalesces(self):
        reqs = self._reqs([("g", serve.BFSLevels(0)),
                           ("g", serve.BFSLevels(1)),
                           ("g", serve.BFSLevels(2))])
        batches = plan_batches(reqs)
        assert len(batches) == 1
        assert batches[0].group == "bfs_levels"
        assert batches[0].sources == [0, 1, 2]

    def test_groups_do_not_mix(self):
        reqs = self._reqs([("g", serve.BFSLevels(0)),
                           ("g", serve.BFSParents(0)),
                           ("h", serve.BFSLevels(0)),
                           ("g", serve.TriangleCount())])
        batches = plan_batches(reqs)
        assert len(batches) == 4
        assert {b.group for b in batches} == {"bfs_levels", "bfs_parents", None}

    def test_duplicates_share_one_row(self):
        reqs = self._reqs([("g", serve.BFSLevels(3)),
                           ("g", serve.BFSLevels(3)),
                           ("g", serve.BFSLevels(5))])
        (b,) = plan_batches(reqs)
        assert b.sources == [3, 5]
        assert len(b.requests_by_query[serve.BFSLevels(3)]) == 2

    def test_max_batch_chunks(self):
        reqs = self._reqs([("g", serve.BFSLevels(s)) for s in range(10)])
        batches = plan_batches(reqs, max_batch=4)
        assert [len(b.queries) for b in batches] == [4, 4, 2]
        assert [s for b in batches for s in b.sources] == list(range(10))

    def test_non_coalescible_distinct_queries_split(self):
        reqs = self._reqs([("g", serve.PageRank()),
                           ("g", serve.PageRank(damping=0.9)),
                           ("g", serve.PageRank()),
                           ("g", serve.SSSP(3)), ("g", serve.SSSP(5)),
                           ("g", serve.SSSP(3))])
        batches = plan_batches(reqs)
        assert len(batches) == 4
        assert {b.group for b in batches} == {None}
        assert len(batches[0].requests) == 2    # the two identical PageRanks
        assert batches[2].queries == [serve.SSSP(3)]
        assert len(batches[2].requests) == 2    # ... and SSSPs
