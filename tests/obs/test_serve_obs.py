"""Serve-stack observability: span isolation, extended stats, attribution.

Satellite coverage for ISSUE 6:

* two parallel ``submit_many`` bursts under separate trace sinks capture
  *disjoint* span trees (the contextvars-isolation guarantee),
* ``GraphService.stats()`` — the locked snapshot with queue/batch/latency
  extensions,
* a served query's masked-dot analysis is memoized on the graph's cached
  mask, counted in the memo stats and dropped with the graph's properties.
"""

import gc
import threading

import pytest

from helpers import bfs_level_reference, random_graph_np
from repro import obs, serve
from repro import lagraph as lg
from repro.grb.engine import cost, plancache
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
                        assert f.result(30).isequal(bfs_level_reference(graph, s))
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
    @pytest.fixture(autouse=True)
    def _engaged(self, monkeypatch):
        # a test-sized graph sits below the masked engine's stand-down
        # threshold; floor it so the TC product runs the analysis
        monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)
        monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)

    def test_repeat_query_is_served_by_the_memo(self, rng):
        g = random_graph_np(rng, n=40, p=0.15, directed=False)
        svc = serve.GraphService(cache_capacity=0)   # memo off: recompute
        try:
            svc.register("attrib", g)
            before = svc.plan_cache_stats()
            with obs.tracing() as trace:
                first = svc.query("attrib", serve.TriangleCount())
                # result memo off, graph unchanged: the repeat re-dispatches
                # over the operands cached on the graph, and its analysis
                # is the one memoized on their mask
                assert svc.query("attrib", serve.TriangleCount()) == first
                # an edge added in place (kept symmetric), then the
                # service told: the derived operands go, so a miss
                g.A[0, 1] = True
                g.A[1, 0] = True
                svc.invalidate("attrib")
                moved = svc.query("attrib", serve.TriangleCount())
        finally:
            svc.flush()
            svc.shutdown()
            identity.clear()
        st = svc.plan_cache_stats()
        assert (st.hits - before.hits, st.misses - before.misses) == (1, 2)
        assert [e["plan_cache"] for e in trace.decisions("mxm")] == [
            "miss", "hit", "miss"]
        assert not trace.decisions("plancache")
        assert moved == lg.triangle_count_basic(
            lg.Graph(g.A.dup(), lg.ADJACENCY_UNDIRECTED))

    def test_entries_are_read_from_live_owners(self, rng):
        """``entries`` and ``feed_bytes`` are what the live memos hold when
        read: dropping a graph's derived operands drops their memos."""
        g = random_graph_np(rng, n=40, p=0.15, directed=False)
        lg.triangle_count_basic(g)
        held = [m._dot.nbytes() for m in g.matrices() if m._dot is not None]
        assert len(held) == 1 and held[0] > 0
        gc.collect()
        before = plancache.stats()
        g.invalidate_properties()
        gc.collect()
        after = plancache.stats()
        assert before.entries - after.entries == 1
        assert before.feed_bytes - after.feed_bytes == held[0]

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
