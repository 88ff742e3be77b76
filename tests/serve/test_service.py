"""GraphService integration tests.

The headline contract: results served through the engine — batched,
cached, deduplicated, or recomputed after an invalidation — are
*bit-identical* to the direct ``repro.lagraph`` calls each query documents.
"""

import numpy as np
import pytest

from helpers import (bfs_level_reference, bfs_parent_reference,
                     random_graph_np)
from repro import grb
from repro import lagraph as lg
from repro import serve


@pytest.fixture
def service():
    svc = serve.GraphService(max_workers=4, cache_capacity=256, max_batch=16)
    yield svc
    svc.flush()
    svc.shutdown()


@pytest.fixture
def served_graph(rng, service):
    g = random_graph_np(rng, n=60, p=0.08)
    service.register("g", g)
    return g


@pytest.fixture
def served_weighted(rng, service):
    g = random_graph_np(rng, n=50, p=0.1, weighted=True)
    service.register("w", g)
    return g


class TestIdentity:
    def test_bfs_levels_match_direct(self, service, served_graph, rng):
        sources = [int(s) for s in rng.integers(0, served_graph.n, size=24)]
        results = service.query_many(
            "g", [serve.BFSLevels(s) for s in sources])
        for s, res in zip(sources, results):
            assert res.isequal(bfs_level_reference(served_graph, s))

    def test_bfs_parents_match_direct(self, service, served_graph, rng):
        sources = [int(s) for s in rng.integers(0, served_graph.n, size=24)]
        results = service.query_many(
            "g", [serve.BFSParents(s) for s in sources])
        for s, res in zip(sources, results):
            assert res.isequal(bfs_parent_reference(served_graph, s))

    def test_bfs_parents_direct_path_matches_batch(self, served_graph, rng):
        # the un-batched path is row 0 of the same sweep a batch runs
        sources = [int(s) for s in rng.integers(0, served_graph.n, size=8)]
        batch = serve.BFSParents.run_batch(served_graph, sources)
        for k, s in enumerate(sources):
            res = serve.BFSParents(s).run_direct(served_graph)
            assert res.isequal(batch.extract_row(k))
            assert res.isequal(bfs_parent_reference(served_graph, s))

    def test_sssp_matches_direct(self, service, served_weighted, rng):
        sources = [int(s) for s in rng.integers(0, served_weighted.n, size=12)]
        results = service.query_many("w", [serve.SSSP(s) for s in sources])
        for s, res in zip(sources, results):
            assert res.isequal(lg.sssp_bellman_ford(served_weighted, s))
            # delta-stepping converges to the same fixed point bit for bit
            assert res.isequal(
                lg.sssp_delta_stepping(served_weighted, s, delta=3.0))

    def test_whole_graph_queries_match_direct(self, service, served_graph):
        pr, it = service.query("g", serve.PageRank())
        pr_ref, it_ref = lg.pagerank(served_graph)
        assert pr.isequal(pr_ref) and it == it_ref
        assert service.query("g", serve.ConnectedComponents()).isequal(
            lg.connected_components(served_graph))

    def test_triangle_count_on_undirected(self, service, rng):
        g = random_graph_np(rng, n=40, p=0.15, directed=False)
        service.register("u", g)
        assert service.query("u", serve.TriangleCount()) == \
            lg.triangle_count_basic(g)

    def test_mixed_burst(self, service, served_graph, rng):
        sources = [int(s) for s in rng.integers(0, served_graph.n, size=10)]
        queries = [serve.BFSLevels(s) for s in sources] + \
                  [serve.BFSParents(s) for s in sources] + \
                  [serve.ConnectedComponents()]
        results = service.query_many("g", queries)
        for s, res in zip(sources, results[:10]):
            assert res.isequal(bfs_level_reference(served_graph, s))
        for s, res in zip(sources, results[10:20]):
            assert res.isequal(bfs_parent_reference(served_graph, s))
        assert results[-1].isequal(lg.connected_components(served_graph))


class TestBatchingAndCache:
    def test_burst_coalesces_into_few_kernel_calls(self, service,
                                                   served_graph):
        n = served_graph.n
        service.query_many("g", [serve.BFSLevels(s % n) for s in range(32)])
        st = service.stats()
        assert st.coalesced_sources >= 16
        assert st.kernel_calls < 32            # far fewer sweeps than queries
        assert st.kernel_calls_saved > 0

    def test_repeat_query_hits_cache(self, service, served_graph):
        q = serve.BFSLevels(0)
        first = service.query("g", q)
        before = service.stats()
        second = service.query("g", q)
        after = service.stats()
        assert second.isequal(first)
        assert after.cache_hits == before.cache_hits + 1
        assert after.kernel_calls == before.kernel_calls    # no recompute

    def test_duplicates_in_one_burst_share_result(self, service, served_graph):
        results = service.query_many("g", [serve.BFSParents(1)] * 8)
        assert all(r.isequal(results[0]) for r in results)
        st = service.stats()
        assert st.deduplicated >= 7

    def test_cache_capacity_zero_always_recomputes(self, served_graph):
        with serve.GraphService(cache_capacity=0) as svc:
            svc.register("g", served_graph)
            svc.query("g", serve.BFSLevels(0))
            svc.query("g", serve.BFSLevels(0))
            assert svc.stats().cache_hits == 0


class TestInvalidation:
    def test_version_bump_recomputes_fresh_results(self, service, rng):
        g = random_graph_np(rng, n=30, p=0.1)
        service.register("g", g)
        lv_before = service.query("g", serve.BFSLevels(0))
        assert lv_before.isequal(bfs_level_reference(g, 0))

        # mutate: drop every edge out of node 0, then declare the mutation
        dense = g.A.to_dense().astype(bool)
        dense[0, :] = False
        r, c = np.nonzero(dense)
        g.A = type(g.A).from_coo(r, c, np.ones(r.size, bool), g.n, g.n)
        v = service.invalidate("g")
        assert v == 1

        lv_after = service.query("g", serve.BFSLevels(0))
        assert lv_after.isequal(bfs_level_reference(g, 0))     # fresh, not cached
        assert lv_after.nvals == 1                      # 0 now reaches nothing
        assert not lv_after.isequal(lv_before)

    def test_cached_results_keyed_by_version(self, service, served_graph):
        q = serve.TriangleCount()
        service.query("g", q)
        before = service.stats()
        service.invalidate("g")                 # nothing actually changed,
        service.query("g", q)                   # but the key must differ
        after = service.stats()
        assert after.kernel_calls == before.kernel_calls + 1

    def test_cached_results_are_isolated_copies(self, service, served_graph):
        r1 = service.query("g", serve.BFSLevels(0))
        r1._vals[:] = -99              # caller scribbles on its own copy
        r2 = service.query("g", serve.BFSLevels(0))   # memo hit
        assert r2.isequal(bfs_level_reference(served_graph, 0))

    def test_update_excludes_inflight_kernels(self, service, rng):
        """registry.update drains kernel reads first: every answer reflects
        a *consistent* adjacency — wholly pre- or wholly post-mutation."""
        g = random_graph_np(rng, n=40, p=0.15)
        service.register("g", g)
        sources = list(range(10))
        pre = {s: bfs_level_reference(g, s) for s in sources}

        def drop_all_edges(gr):
            gr.A = type(gr.A)(gr.A.type, gr.n, gr.n)

        futs = service.submit_many("g", [serve.BFSLevels(s) for s in sources])
        service.registry.update("g", drop_all_edges)
        for s, f in zip(sources, futs):
            r = f.result(60)
            # old graph's answer or the edgeless graph's (source only) —
            # never a half-mutated hybrid
            assert r.isequal(pre[s]) or r.nvals == 1

    def test_rebound_graph_does_not_reuse_old_cache(self, service, rng):
        g1 = random_graph_np(rng, n=20, p=0.3)
        service.register("g", g1)
        r1 = service.query("g", serve.ConnectedComponents())
        g2 = random_graph_np(rng, n=20, p=0.0, seed=123)  # edgeless
        service.register("g", g2)
        r2 = service.query("g", serve.ConnectedComponents())
        assert r2.isequal(lg.connected_components(g2))
        assert not r2.isequal(r1) or g1.nvals == 0


class TestErrorsAndLifecycle:
    def test_unknown_graph_raises_on_submit(self, service):
        with pytest.raises(serve.UnknownGraph):
            service.submit("missing", serve.TriangleCount())

    def test_bad_source_fails_only_its_future(self, service, served_graph):
        futs = service.submit_many(
            "g", [serve.BFSLevels(0), serve.BFSLevels(10**9),
                  serve.BFSLevels(1)])
        assert futs[0].result(60).isequal(bfs_level_reference(served_graph, 0))
        assert futs[2].result(60).isequal(bfs_level_reference(served_graph, 1))
        with pytest.raises(grb.IndexOutOfBounds):
            futs[1].result(60)

    def test_non_query_rejected(self, service, served_graph):
        with pytest.raises(TypeError):
            service.submit("g", "bfs please")

    def test_submit_after_shutdown_raises(self, served_graph):
        svc = serve.GraphService()
        svc.register("g", served_graph)
        svc.shutdown()
        with pytest.raises(RuntimeError):
            svc.submit("g", serve.TriangleCount())

    def test_flush_drains_everything(self, service, served_graph):
        futs = service.submit_many(
            "g", [serve.BFSLevels(s) for s in range(8)])
        service.flush()
        assert all(f.done() for f in futs)

    def test_invalidate_from_future_callback_does_not_deadlock(
            self, service, served_graph):
        """set_result fires callbacks on the drain thread; a callback
        taking the registry write side must not deadlock against the
        drain's read hold (futures resolve outside the lock)."""
        fired = []

        def cb(_):
            fired.append(service.invalidate("g"))
        fut = service.submit("g", serve.BFSParents(2))
        fut.add_done_callback(cb)
        fut.result(30)
        service.flush(timeout=30)
        deadline = __import__("time").time() + 30
        while not fired and __import__("time").time() < deadline:
            __import__("time").sleep(0.01)
        assert fired and fired[0] >= 1
        # and the service still answers afterwards
        assert service.query("g", serve.BFSLevels(0)).isequal(
            bfs_level_reference(served_graph, 0))

    def test_concurrent_submitters(self, service, served_graph):
        import threading
        errs = []

        def client(seed):
            try:
                rng = np.random.default_rng(seed)
                for _ in range(5):
                    s = int(rng.integers(0, served_graph.n))
                    res = service.query("g", serve.BFSLevels(s))
                    assert res.isequal(bfs_level_reference(served_graph, s))
            except Exception as e:  # pragma: no cover
                errs.append(e)
        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs


class TestWarmProfiles:
    """register(warm=) operand pre-building and submit-side lazy
    registration."""

    def test_warm_default_builds_pull_machinery(self, service, rng):
        g = random_graph_np(rng, n=40, p=0.1)
        service.register("warmed", g, warm=True)
        assert g.AT is not None and g.row_degree is not None

    def test_warm_msbfs_prebuilds_pattern_operands(self, service, rng):
        g = random_graph_np(rng, n=40, p=0.1)
        service.register("ms", g, warm="msbfs")
        assert g.A._pattern_scipy is not None
        assert np.dtype(np.int64) in g.A._pattern_scipy

    @pytest.mark.parametrize("profile", ["nope", "pull"])
    def test_unknown_warm_profile_rejected(self, service, rng, profile):
        g = random_graph_np(rng, n=10, p=0.2)
        with pytest.raises(ValueError):
            service.register("bad", g, warm=profile)

    def test_submit_lazy_registration(self, service, rng):
        g = random_graph_np(rng, n=40, p=0.1)
        assert "lazy" not in service.registry
        res = service.submit("lazy", serve.BFSLevels(0), graph=g,
                             warm=True).result(30)
        assert "lazy" in service.registry
        assert g.AT is not None                      # warmed on the way in
        assert res.isequal(bfs_level_reference(g, 0))

    def test_submit_lazy_registration_ignores_rebind(self, service, rng):
        g1 = random_graph_np(rng, n=30, p=0.1)
        g2 = random_graph_np(rng, n=35, p=0.1)
        service.submit("one", serve.BFSLevels(0), graph=g1).result(30)
        # an already bound name ignores the graph argument entirely
        res = service.submit("one", serve.BFSLevels(0), graph=g2).result(30)
        assert res.isequal(bfs_level_reference(g1, 0))
        assert service.registry.get("one") is g1

    def test_submit_many_lazy_registration(self, service, rng):
        g = random_graph_np(rng, n=40, p=0.1)
        futs = service.submit_many(
            "bulk", [serve.BFSLevels(s) for s in (0, 1, 2)], graph=g)
        for s, f in zip((0, 1, 2), futs):
            assert f.result(30).isequal(bfs_level_reference(g, s))

    def test_concurrent_lazy_registration_single_binding(self, service, rng):
        """Racing lazy submitters must agree on one binding (atomic
        register-if-absent), and every future must answer for it."""
        import threading
        graphs = [random_graph_np(np.random.default_rng(i), n=30, p=0.15)
                  for i in range(6)]
        results, errs = [None] * 6, []

        def client(i):
            try:
                results[i] = service.submit(
                    "raced", serve.BFSLevels(0), graph=graphs[i]).result(30)
            except Exception as e:  # pragma: no cover
                errs.append(e)
        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs
        winner = service.registry.get("raced")
        assert winner in graphs
        expect = bfs_level_reference(winner, 0)
        for r in results:
            assert r.isequal(expect)
