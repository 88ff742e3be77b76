"""Serving throughput: batched multi-source kernels vs sequential sweeps.

The acceptance bar for the serving engine: answering a 64-source BFS
workload through one batched ``msbfs`` sweep must beat 64 sequential
single-source ``bfs`` calls by ≥ 3× on the RMAT (kron) suite graph.  The
same comparison is reported for levels, parents, batched SSSP, and for the
full ``GraphService`` path (queue + coalescing + cache machinery included).

Expected shape: big wins on the low-diameter graphs (kron/urand/twitter/
web — few heavy levels, exactly where the one-``mxm``-per-level batching
amortises), parity-or-worse on the high-diameter road grid, where hundreds
of near-empty levels leave nothing to batch — the same contrast Table III
shows for direction optimisation.
"""

import numpy as np
import pytest

from repro.lagraph import algorithms as alg
from repro import serve
from repro.grb.engine import cost

from conftest import GRAPHS

NSOURCES = 64


def _sources(g, k=NSOURCES):
    rng = np.random.default_rng(0)
    deg = np.diff(g.A.indptr)
    cand = np.flatnonzero(deg > 0)
    return rng.choice(cand, size=min(k, cand.size), replace=False)


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.benchmark(group="serve-bfs-levels")
def test_bfs_levels_sequential(benchmark, suite, name):
    g = suite[name]
    srcs = _sources(g)
    benchmark(lambda: [alg.bfs_level(g, int(s)) for s in srcs])


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.benchmark(group="serve-bfs-levels")
def test_bfs_levels_batched(benchmark, suite, name):
    g = suite[name]
    srcs = _sources(g)
    benchmark(lambda: alg.msbfs_levels(g, srcs))


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.benchmark(group="serve-bfs-parents")
def test_bfs_parents_sequential(benchmark, suite, name):
    g = suite[name]
    srcs = _sources(g)
    benchmark(lambda: [alg.bfs_parent_push(g, int(s)) for s in srcs])


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.benchmark(group="serve-bfs-parents")
def test_bfs_parents_batched(benchmark, suite, name):
    g = suite[name]
    srcs = _sources(g)
    benchmark(lambda: alg.msbfs_parents(g, srcs))


@pytest.mark.parametrize("name", ("kron", "road"))
@pytest.mark.benchmark(group="serve-sssp")
def test_sssp_sequential(benchmark, suite_weighted, name):
    g = suite_weighted[name]
    srcs = _sources(g, 16)
    benchmark(lambda: [alg.sssp_bellman_ford(g, int(s)) for s in srcs])


@pytest.mark.parametrize("name", ("kron", "road"))
@pytest.mark.benchmark(group="serve-sssp")
def test_sssp_batched(benchmark, suite_weighted, name):
    g = suite_weighted[name]
    srcs = _sources(g, 16)
    benchmark(lambda: alg.sssp_batch(g, srcs))


@pytest.mark.parametrize("fused", (True, False), ids=("fused", "unfused"))
@pytest.mark.benchmark(group="serve-road-fusion")
def test_road_msbfs_level_fusion(benchmark, suite, fused):
    """The ROADMAP road-graph follow-up, recorded: near-empty msbfs levels
    fused into raw-array expansion runs vs the per-level masked-mxm loop.
    The high-diameter road grid spends hundreds of levels under
    ``cost.MSBFS_FUSE_FRONTIER_K``, so fusion removes almost every
    per-level overhead
    (~13× at small scale); the low-diameter graphs are unaffected."""
    g = suite["road"]
    srcs = _sources(g)
    old = cost.MSBFS_FUSE_FRONTIER_K
    cost.MSBFS_FUSE_FRONTIER_K = old if fused else 0
    try:
        benchmark(lambda: alg.msbfs_levels(g, srcs))
    finally:
        cost.MSBFS_FUSE_FRONTIER_K = old


@pytest.mark.benchmark(group="serve-service")
def test_service_cold_burst(benchmark, suite):
    """Full engine, cache disabled: queue + coalescing + kernel."""
    g = suite["kron"]
    srcs = [int(s) for s in _sources(g)]

    def burst():
        with serve.GraphService(max_workers=2, cache_capacity=0) as svc:
            svc.register("kron", g)
            return svc.query_many(
                "kron", [serve.BFSLevels(s) for s in srcs])
    benchmark(burst)


@pytest.mark.benchmark(group="serve-service")
def test_service_warm_burst(benchmark, suite):
    """Full engine, warm memo cache: the steady-state serving path."""
    g = suite["kron"]
    srcs = [int(s) for s in _sources(g)]
    svc = serve.GraphService(max_workers=2, cache_capacity=1024)
    svc.register("kron", g)
    svc.query_many("kron", [serve.BFSLevels(s) for s in srcs])  # warm
    benchmark(lambda: svc.query_many(
        "kron", [serve.BFSLevels(s) for s in srcs]))
    svc.shutdown()


@pytest.mark.skipif("REPRO_SKIP_PERF" in __import__("os").environ,
                    reason="perf assertion disabled (noisy shared runner)")
def test_acceptance_batched_speedup(suite):
    """Non-benchmark guard: 64-source msbfs ≥ 3× over sequential on kron.

    Wall-clock asserts are inherently noisy; best-of-3 on each side keeps
    scheduler blips out, and CI's benchmark-smoke step sets
    ``REPRO_SKIP_PERF`` to opt out entirely on shared runners.
    """
    import time

    g = suite["kron"]
    srcs = _sources(g)
    alg.msbfs_levels(g, srcs)                      # warm caches

    def best_of(fn, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_batch = best_of(lambda: alg.msbfs_levels(g, srcs))
    t_seq = best_of(lambda: [alg.bfs_level(g, int(s)) for s in srcs])
    assert t_seq >= 3.0 * t_batch, \
        f"batched {t_batch:.3f}s vs sequential {t_seq:.3f}s (< 3x)"


@pytest.mark.skipif("REPRO_SKIP_PERF" in __import__("os").environ,
                    reason="perf assertion disabled (noisy shared runner)")
def test_acceptance_road_fusion_speedup(suite):
    """Non-benchmark guard for the road follow-up: fusing near-empty msbfs
    levels must beat the per-level masked-mxm loop on the road grid
    (≥ 1.5× asserted; ~13× measured at small scale)."""
    import time

    g = suite["road"]
    srcs = _sources(g)
    alg.msbfs_levels(g, srcs)                      # warm caches

    def best_of(fn, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_fused = best_of(lambda: alg.msbfs_levels(g, srcs))
    old = cost.MSBFS_FUSE_FRONTIER_K
    cost.MSBFS_FUSE_FRONTIER_K = 0
    try:
        t_unfused = best_of(lambda: alg.msbfs_levels(g, srcs))
    finally:
        cost.MSBFS_FUSE_FRONTIER_K = old
    assert t_unfused >= 1.5 * t_fused, \
        f"fused {t_fused:.3f}s vs unfused {t_unfused:.3f}s (< 1.5x)"


def test_report_plan_cache_counters(suite, capsys):
    """Plan-cache observability: serve the same analytics query repeatedly
    (memoization off, so every request re-dispatches) and surface the
    engine's keyed plan cache counters — the hit/miss/invalidation stream
    that also rides on the planner's decision records (``plan_cache``
    field, ``op="plancache"`` invalidation records).  Repeats
    after the first should hit: lineage signatures survive the per-query
    operand rebuild, and entries die with the adjacency's *store*
    version, so only an actual content mutation forces re-analysis."""
    from repro import obs
    from repro.grb.engine import plancache

    g = suite["kron"]
    plancache.clear()
    with obs.tracing() as trace:
        with serve.GraphService(max_workers=2, cache_capacity=0) as svc:
            svc.register("kron", g, warm=True)
            for _ in range(4):
                svc.query("kron", serve.TriangleCount())
            stats = svc.plan_cache_stats()
    decisions = [e["plan_cache"] for e in trace.decisions()
                 if "plan_cache" in e]
    with capsys.disabled():
        print(f"\n[plan-cache] serve 4x TriangleCount (memo off): "
              f"hits={stats.hits} misses={stats.misses} "
              f"invalidations={stats.invalidations} "
              f"hit_rate={stats.hit_rate:.2f} "
              f"feed_bytes={stats.feed_bytes} "
              f"decision_marks={len(decisions)}")
    assert stats.hits > 0, "repeated serve queries should hit the plan cache"
    assert "hit" in decisions and "miss" in decisions


def test_report_service_stats(suite, capsys):
    """Serving observability through the public snapshot alone: run a
    mixed burst and surface everything :meth:`GraphService.stats` now
    carries — queue depth peak, the batch-size histogram, coalescing
    ratio, memo hit rate, latency percentiles, and the plan-cache
    counters — with no private-field reads."""
    g = suite["kron"]
    srcs = [int(s) for s in _sources(g, 32)]
    with serve.GraphService(max_workers=2, cache_capacity=1024) as svc:
        svc.register("kron", g)
        svc.query_many("kron", [serve.BFSLevels(s) for s in srcs])
        svc.query_many("kron", [serve.BFSLevels(s) for s in srcs])  # memo
        s = svc.stats()
    hist = " ".join(f"{k}:{v}" for k, v in sorted(s.batch_size_hist.items()))
    with capsys.disabled():
        print(f"\n[serve-stats] submitted={s.submitted} "
              f"completed={s.completed} memo_hit_rate={s.memo_hit_rate:.2f} "
              f"coalescing={s.coalescing_ratio:.1f}x "
              f"saved_kernel_calls={s.kernel_calls_saved} "
              f"queue_peak={s.queue_depth_peak} batch_hist=[{hist}] "
              f"p50={s.latency_p50 * 1e3:.2f}ms "
              f"p95={s.latency_p95 * 1e3:.2f}ms "
              f"p99={s.latency_p99 * 1e3:.2f}ms "
              f"plan_cache_hit_rate={s.plan_cache.hit_rate:.2f}")
    assert s.completed == s.submitted and s.failed == 0
    assert s.queue_depth == 0
    assert s.memo_hit_rate > 0.0          # the second burst was memoized
    assert s.coalescing_ratio > 1.0
    assert s.latency_p50 <= s.latency_p99
