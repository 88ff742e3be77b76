"""Observability overhead: the no-subscriber cost of always-on hooks.

The :mod:`repro.obs` cost contract is that with no trace sink and no
deep profiling, the instrumentation riding in the
engine and serve hot paths costs at most a flag read per site — the
always-on metrics bumps plus one ``ContextVar`` read per span point.

The acceptance guard here measures that directly: the same workload with
the instrumentation in its default state (metrics on, nothing else
subscribed) versus with the :data:`repro.obs.metrics.ENABLED` kill switch
thrown, which turns every site into its bare guard.  The delta must stay
within 2% (plus a small absolute slack — these workloads run milliseconds
at the tiny tier, where a scheduler blip outweighs any real cost).

``REPRO_SKIP_PERF`` opts out, as for every wall-clock guard.
"""

import os
import time

import numpy as np
import pytest

from repro import serve
from repro.lagraph import algorithms as alg
from repro.obs import metrics

NSOURCES = 64

#: Relative overhead budget for the disabled path (the ISSUE acceptance
#: bar) plus an absolute slack floor for millisecond-scale runs.
OVERHEAD_REL = 0.02
OVERHEAD_ABS_S = 0.005


def _sources(g, k=NSOURCES):
    rng = np.random.default_rng(0)
    deg = np.diff(g.A.indptr)
    cand = np.flatnonzero(deg > 0)
    return rng.choice(cand, size=min(k, cand.size), replace=False)


def _best_of(fn, reps=5):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _overhead(fn):
    """(t_instrumented, t_killed) best-of times for ``fn``."""
    fn()                                   # warm caches on both sides
    assert metrics.ENABLED
    t_on = _best_of(fn)
    metrics.ENABLED = False
    try:
        t_off = _best_of(fn)
    finally:
        metrics.ENABLED = True
    return t_on, t_off


def _assert_within_budget(t_on, t_off, label):
    budget = t_off * (1.0 + OVERHEAD_REL) + OVERHEAD_ABS_S
    assert t_on <= budget, (
        f"{label}: instrumented {t_on:.4f}s vs killed {t_off:.4f}s "
        f"(> {OVERHEAD_REL:.0%} + {OVERHEAD_ABS_S * 1e3:.0f}ms budget)")


@pytest.mark.skipif("REPRO_SKIP_PERF" in os.environ,
                    reason="perf assertion disabled (noisy shared runner)")
def test_obs_disabled_overhead_tc(suite, capsys):
    """Kron triangle count: engine dispatch/plan-cache/kernel hooks."""
    g = suite["kron"]
    t_on, t_off = _overhead(lambda: alg.triangle_count(g, presort=None))
    with capsys.disabled():
        print(f"\n[obs-overhead] kron TC: on={t_on:.4f}s off={t_off:.4f}s "
              f"delta={(t_on / t_off - 1) if t_off else 0:+.2%}")
    _assert_within_budget(t_on, t_off, "kron TC")


@pytest.mark.skipif("REPRO_SKIP_PERF" in os.environ,
                    reason="perf assertion disabled (noisy shared runner)")
def test_obs_disabled_overhead_serve_msbfs(suite, capsys):
    """Serve burst (memo off): queue/coalesce/latency instrumentation."""
    g = suite["kron"]
    srcs = [int(s) for s in _sources(g)]
    svc = serve.GraphService(max_workers=2, cache_capacity=0)
    svc.register("kron", g)
    try:
        t_on, t_off = _overhead(lambda: svc.query_many(
            "kron", [serve.BFSLevels(s) for s in srcs]))
    finally:
        svc.shutdown()
    with capsys.disabled():
        print(f"\n[obs-overhead] serve msbfs: on={t_on:.4f}s "
              f"off={t_off:.4f}s "
              f"delta={(t_on / t_off - 1) if t_off else 0:+.2%}")
    _assert_within_budget(t_on, t_off, "serve msbfs")


@pytest.mark.skipif("REPRO_SKIP_PERF" in os.environ,
                    reason="perf assertion disabled (noisy shared runner)")
def test_obs_disabled_overhead_store_churn(suite, capsys):
    """Store-footprint accounting: the gauges ride every mutation
    boundary (``_set_from_keys`` / ``set_format`` / ``dup``), so the
    budget is checked on a build-heavy workload rather than the
    kernel-heavy ones above — pattern extraction, dup, and a format
    round-trip per repetition, each of which re-accounts its store."""
    from repro import grb

    g = suite["kron"]
    a = g.A

    def churn():
        for _ in range(8):
            p = a.pattern(grb.FP64)
            d = p.dup()
            d.set_format("bitmap")
            d.set_format("csr")

    t_on, t_off = _overhead(churn)
    with capsys.disabled():
        print(f"\n[obs-overhead] store churn: on={t_on:.4f}s "
              f"off={t_off:.4f}s "
              f"delta={(t_on / t_off - 1) if t_off else 0:+.2%}")
    _assert_within_budget(t_on, t_off, "store churn")


def test_footprint_accounting_follows_churn(suite):
    """Sanity leg runnable on any runner: the churn workload's stores
    appear in the footprint gauges while alive and vanish when dropped
    (tracemalloc stays disarmed — the deep tier is opt-in)."""
    import tracemalloc

    from repro import grb, obs

    g = suite["kron"]
    before = obs.memory.live_count()
    keep = [g.A.pattern(grb.FP64).dup() for _ in range(4)]
    assert obs.memory.live_count() >= before + 4
    total = sum(v["bytes"] for v in obs.memory.snapshot().values())
    assert total >= sum(k._store.nbytes() for k in keep)
    assert not tracemalloc.is_tracing()
    del keep
    import gc
    gc.collect()
    assert obs.memory.live_count() <= before + 1


def test_tracing_records_without_changing_results(suite):
    """Sanity leg runnable on any runner: a traced TC returns the same
    count and actually produces the engine spans (the expensive side is
    opt-in, so this is cost-free to assert)."""
    from repro import obs

    g = suite["kron"]
    base = alg.triangle_count(g, presort=None)
    with obs.tracing() as tr:
        traced = alg.triangle_count(g, presort=None)
    assert traced == base
    assert tr.find("plan:") and tr.find("kernel:")
