"""Serve-stack observability: span isolation, extended stats, attribution.

Satellite coverage for ISSUE 6:

* two parallel ``submit_many`` bursts under separate trace sinks capture
  *disjoint* span trees (the contextvars-isolation guarantee),
* ``GraphService.stats()`` — the locked snapshot with queue/batch/latency
  extensions,
* plan-cache invalidation records carry ``graph``/``shape_key``.
"""

import threading

import numpy as np
import pytest

from helpers import random_graph_np
from repro import grb, obs, serve
from repro import lagraph as lg
from repro.grb.engine import plancache
from repro.obs import identity


@pytest.fixture
def service():
    svc = serve.GraphService(max_workers=4, cache_capacity=256, max_batch=16)
    yield svc
    svc.flush()
    svc.shutdown()


class TestConcurrentSpanIsolation:
    def test_parallel_submit_many_disjoint_span_trees(self, service, rng):
        g1 = random_graph_np(rng, n=50, p=0.1, seed=1)
        g2 = random_graph_np(rng, n=50, p=0.1, seed=2)
        # separate graph names: coalescing groups by (graph, tag), so the
        # two submitters' requests can never merge into one batch (a
        # merged batch runs under its FIRST requester's context by design)
        service.register("iso1", g1)
        service.register("iso2", g2)
        collectors = {}
        errs = []

        def client(name, graph):
            try:
                with obs.tracing() as tr:
                    collectors[name] = tr
                    futs = service.submit_many(
                        name, [serve.BFSLevels(s) for s in range(8)])
                    for s, f in enumerate(futs):
                        assert f.result(30).isequal(lg.bfs_level(graph, s))
                    service.flush(timeout=30)
            except Exception as e:  # pragma: no cover
                errs.append(e)

        t1 = threading.Thread(target=client, args=("iso1", g1))
        t2 = threading.Thread(target=client, args=("iso2", g2))
        t1.start(); t2.start()
        t1.join(30); t2.join(30)
        assert not errs

        tr1, tr2 = collectors["iso1"], collectors["iso2"]
        assert len(tr1) and len(tr2)
        # disjoint: no record object (or span id) appears in both trees
        ids1 = {r["span_id"] for r in tr1.records()}
        ids2 = {r["span_id"] for r in tr2.records()}
        assert not (ids1 & ids2)
        # and every serve-layer record is attributed to the right graph
        for tr, own in ((tr1, "iso1"), (tr2, "iso2")):
            serve_recs = [r for r in tr.records()
                          if r["cat"] == "serve" and "graph" in r["args"]]
            assert serve_recs
            assert {r["args"]["graph"] for r in serve_recs} == {own}

    def test_request_lifecycle_spans(self, service, rng):
        g = random_graph_np(rng, n=40, p=0.1)
        service.register("life", g)
        with obs.tracing() as tr:
            futs = service.submit_many(
                "life", [serve.BFSLevels(s) for s in range(4)])
            for f in futs:
                f.result(30)
            service.flush(timeout=30)
        names = set(tr.names())
        assert "serve:enqueue" in names
        assert "serve:batch" in names     # kernel ran under submitter ctx
        assert "serve:answer" in names
        batch = tr.find("serve:batch")[0]
        assert batch["args"]["coalesced"] is True
        assert batch["args"]["sources"] == 4
        # memo hits also mark themselves
        with obs.tracing() as tr2:
            service.submit("life", serve.BFSLevels(0)).result(30)
        assert "serve:memo-hit" in tr2.names()

    def test_engine_spans_nest_under_serve_batch(self, service, rng):
        g = random_graph_np(rng, n=40, p=0.15, directed=False)
        service.register("nest", g)
        with obs.tracing() as tr:
            service.submit("nest", serve.TriangleCount()).result(30)
            service.flush(timeout=30)
        (batch,) = tr.find("serve:batch")
        assert batch["args"]["coalesced"] is False
        # every engine span the kernel opened hangs beneath the serve
        # span, in this submitter's trace
        def descendants(node, out):
            for ch in node["children"]:
                out.append(ch["record"]["name"])
                descendants(ch, out)
        node = next(n for n in self._walk(tr.span_tree())
                    if n["record"]["name"] == "serve:batch")
        names = []
        descendants(node, names)
        assert any(n.startswith("plan:") for n in names)
        assert any(n.startswith("kernel:") for n in names)

    @staticmethod
    def _walk(nodes):
        for n in nodes:
            yield n
            yield from TestConcurrentSpanIsolation._walk(n["children"])


class TestExtendedStats:
    def test_snapshot_fields(self, service, rng):
        g = random_graph_np(rng, n=40, p=0.1)
        service.register("st", g)
        futs = service.submit_many(
            "st", [serve.BFSLevels(s) for s in range(6)])
        for f in futs:
            f.result(30)
        service.flush(timeout=30)
        # one memo hit on top
        service.query("st", serve.BFSLevels(0))
        s = service.stats()
        assert s.submitted == 7 and s.completed == 7 and s.failed == 0
        assert s.queue_depth == 0
        assert s.queue_depth_peak >= 1
        assert sum(s.batch_size_hist.values()) == s.batches
        assert s.latency_count >= 6
        assert 0 <= s.latency_p50 <= s.latency_p95 <= s.latency_p99
        assert s.plan_cache is not None and s.plan_cache.misses >= 0
        assert 0.0 < s.memo_hit_rate < 1.0
        assert s.coalescing_ratio > 1.0   # 6 sources in one kernel call
        assert s.kernel_calls_saved == s.coalesced_sources - s.coalesced_calls

    def test_stats_returns_independent_snapshot(self, service, rng):
        g = random_graph_np(rng, n=20, p=0.1)
        service.register("snap", g)
        service.query("snap", serve.BFSLevels(0))
        a = service.stats()
        service.query("snap", serve.BFSLevels(1))
        b = service.stats()
        assert b.submitted == a.submitted + 1   # a is unaffected
        a.batch_size_hist[99] = 1               # mutating a copy is safe
        assert 99 not in service.stats().batch_size_hist


class TestPlanCacheAttribution:
    def test_invalidation_event_carries_graph_and_shape_key(self, rng):
        identity.clear()
        plancache.clear()
        g = random_graph_np(rng, n=40, p=0.15, directed=False)
        svc = serve.GraphService(cache_capacity=0)   # memo off: recompute
        try:
            svc.register("attrib", g)
            with obs.tracing() as trace:
                svc.query("attrib", serve.TriangleCount())
                # memo off, graph unchanged: the repeat re-dispatches and
                # is served from the plan cache, and says so on its records
                svc.query("attrib", serve.TriangleCount())
                assert svc.plan_cache_stats().hits > 0
                assert {"hit", "miss"} <= {
                    e.get("plan_cache") for e in trace.decisions()}
                # mutate the adjacency (kept symmetric): versions move,
                # shapes stay — the next identical query invalidates its
                # cached plans
                g.A[0, 1] = 1.0
                g.A[1, 0] = 1.0
                svc.invalidate("attrib")
                svc.query("attrib", serve.TriangleCount())
        finally:
            svc.flush()
            svc.shutdown()
            identity.clear()
        inval = [e for e in trace.decisions("plancache")
                 if e["event"] == "invalidate"]
        assert inval, "mutated operands should invalidate cached plans"
        assert any(e["graph"] == "attrib" for e in inval)
        for e in inval:
            assert isinstance(e["shape_key"], str) and len(e["shape_key"]) == 12
            int(e["shape_key"], 16)   # hex fingerprint

    def test_store_labels_entries_from_registered_identity(self):
        identity.clear()
        plancache.clear()
        try:
            a = grb.Matrix.from_coo([0, 1, 2], [1, 2, 0],
                                    np.ones(3, bool), 3, 3)
            identity.register(a._plan_sig()[0], "labelled")
            c = grb.Matrix(grb.INT64, 3, 3)
            sr = grb.semiring_by_name("plus.pair")
            grb.mxm(c, a, a, sr, mask=grb.structure(a))
            entries = [e for e in plancache._entries.values()
                       if e.graph == "labelled"]
            assert entries
        finally:
            identity.clear()
            plancache.clear()

    def test_queue_depth_gauge_returns_to_zero(self, service, rng):
        from repro.obs import metrics
        g = random_graph_np(rng, n=30, p=0.1)
        service.register("qd", g)
        futs = service.submit_many(
            "qd", [serve.BFSLevels(s) for s in range(5)])
        for f in futs:
            f.result(30)
        service.flush(timeout=30)
        gauge = metrics.REGISTRY.get("serve_queue_depth")
        assert gauge is not None and gauge.value == 0
