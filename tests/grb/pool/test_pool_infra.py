"""Pool infrastructure: lifecycle, refs, fault ladder, metric plumbing.

The contracts here are the ones the sharded rules lean on: the pool is
invisible when disabled, operand refs pick inline-vs-shm by size, a
worker death costs one sibling retry (two deaths quarantine the task as
a non-retryable :class:`PoolTaskError`), injected exceptions cross the
process boundary intact, and worker-side counter movement merges into
the parent registry.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import grb
from repro.grb import engine
from repro.grb import pool as grbpool
from repro.grb.engine import cost
from repro.grb.engine.rules import PlanningError
from repro.testing import faults


def _rand_matrix(rng, nrows, ncols, density=0.08):
    dense = rng.random((nrows, ncols)) < density
    r, c = np.nonzero(dense)
    vals = rng.integers(1, 100, size=r.size).astype(np.float64)
    return grb.Matrix.from_coo(r, c, vals, nrows, ncols)


def _pooled_mxm(rng, rule="mxm-rowblock-pool"):
    a = _rand_matrix(rng, 60, 50)
    b = _rand_matrix(rng, 50, 40)
    c = grb.Matrix(np.float64, 60, 40)
    with engine.force_rule("mxm", rule):
        grb.mxm(c, a, b, grb.semiring_by_name("plus.times"))
    return a, b, c


@pytest.fixture(autouse=True)
def _no_fault_leaks():
    yield
    faults.clear()
    assert not faults.ACTIVE


class TestDisabledIsNoOp:
    def test_pool_absent(self, pool_off):
        assert not grbpool.pool_enabled()
        assert grbpool.get_pool() is None

    def test_publish_graph_empty(self, pool_off, rng):
        from helpers import random_graph_np
        assert grbpool.publish_graph(random_graph_np(rng, n=20)) == []

    def test_rules_decline(self, pool_off, rng):
        # the sharded tier must be unreachable, not merely unpreferred
        a = _rand_matrix(rng, 30, 30)
        b = _rand_matrix(rng, 30, 30)
        c = grb.Matrix(np.float64, 30, 30)
        with engine.force_rule("mxm", "mxm-rowblock-pool"):
            with pytest.raises(PlanningError):
                grb.mxm(c, a, b, grb.semiring_by_name("plus.times"))

    @pytest.mark.parametrize("raw,want", [
        ("", 0), ("0", 0), ("3", 3), ("junk", 0), ("-2", 0), (" 4 ", 4),
    ])
    def test_env_parsing(self, monkeypatch, raw, want):
        monkeypatch.setenv(grbpool.ENV_WORKERS, raw)
        assert grbpool.configured_workers() == want


class TestPlanCacheSeesThePool:
    def test_pool_threshold_and_state_key_the_cache(self, monkeypatch, rng):
        """Whether a pool rule claims depends on ``POOL_MIN_WORK`` and on
        the pool being up; a decision cached under one setting must not
        be served under another (the fingerprint's own contract)."""
        from repro import obs
        from repro.grb.engine import plancache
        monkeypatch.setenv("REPRO_POOL_WORKERS", "2")
        plancache.clear()
        a = _rand_matrix(rng, 60, 60)
        # past mxm-small-expand's gate (more entries than columns): the
        # serial claim below the pool threshold is mxm-scipy's
        assert a.nvals > a.ncols

        def claim():
            c = grb.Matrix(np.float64, 60, 60)
            with obs.tracing() as trace:
                grb.mxm(c, a, a, grb.semiring_by_name("plus.times"))
            (e,) = trace.decisions("mxm")
            return e["rule"], e["plan_cache"]

        assert claim() == ("mxm-scipy", "miss")     # below the threshold
        assert claim() == ("mxm-scipy", "hit")
        monkeypatch.setattr(cost, "POOL_MIN_WORK", 0)
        assert claim() == ("mxm-rowblock-pool", "miss")
        monkeypatch.setenv("REPRO_POOL_WORKERS", "0")
        assert claim() == ("mxm-scipy", "miss")     # the pool went away
        plancache.clear()


class TestOperandRefs:
    def test_small_operand_ships_inline(self, pool_on, rng):
        m = _rand_matrix(rng, 20, 20, density=0.1)
        kind, meta, comps = grbpool.matrix_ref(m, "csr")
        assert kind == "inline"
        assert all(arr.flags["C_CONTIGUOUS"] for arr in comps.values())
        # an inline ref is self-contained: pickle + rebuild elsewhere
        kind2, meta2, comps2 = pickle.loads(
            pickle.dumps((kind, meta, comps)))
        from repro.grb.storage import attach_store
        back = attach_store(meta2, comps2)
        for got, want in zip(back.csr(), m._S().csr()):
            np.testing.assert_array_equal(got, want)

    def test_large_operand_goes_to_shm(self, pool_on, rng):
        pool_on.setattr(cost, "POOL_INLINE_LIMIT", 0)
        m = _rand_matrix(rng, 30, 30, density=0.1)
        ref = grbpool.matrix_ref(m, "csr")
        assert ref[0] == "shm"
        placement = pickle.loads(pickle.dumps(ref[1]))  # ships by name
        assert placement.nbytes > 0
        assert grbpool.arena().segment_count() >= 1
        grbpool.arena().drop(placement.key)

    def test_stale_versions_dropped_on_republish(self, pool_on, rng):
        pool_on.setattr(cost, "POOL_INLINE_LIMIT", 0)
        m = _rand_matrix(rng, 30, 30, density=0.1)
        ar = grbpool.arena()
        before = ar.segment_count()
        grbpool.matrix_ref(m, "csr")
        m[0, 0] = 42.0                     # bumps the version
        grbpool.matrix_ref(m, "csr")
        # old version's segment was unlinked on the way in
        assert ar.segment_count() == before + 1
        ar.drop_stale(m._uid, "csr", keep_version=-1)

    def test_views_share_nothing(self, pool_on, rng):
        pool_on.setattr(cost, "POOL_INLINE_LIMIT", 0)
        m = _rand_matrix(rng, 30, 30, density=0.1)
        r1 = grbpool.matrix_ref(m, "csr")
        r2 = grbpool.matrix_ref(m, "tcsr")
        assert r1[1].key != r2[1].key
        grbpool.arena().drop(r1[1].key)
        grbpool.arena().drop(r2[1].key)


class TestPoolLifecycle:
    def test_ping_and_distinct_workers(self, pool_on):
        pool = grbpool.get_pool()
        assert pool.size == 2
        pids = pool.worker_pids()
        assert len(set(pids)) == 2         # distinct processes
        assert pool.ping()[0] in pids      # a live round-trip answers

    def test_resize_on_env_change(self, pool_on):
        pool = grbpool.get_pool()
        assert pool.size == 2
        pool_on.setenv("REPRO_POOL_WORKERS", "3")
        grown = grbpool.get_pool()
        assert grown.size == 3
        pool_on.setenv("REPRO_POOL_WORKERS", "2")
        assert grbpool.get_pool().size == 2


class TestFaultLadder:
    def test_transient_fault_crosses_process_boundary(self, pool_on, rng):
        inj = faults.raise_on_nth("pool-task", 1, exc=faults.TransientFault,
                                  repeat=1)
        with faults.installed(inj):
            with pytest.raises(faults.TransientFault) as exc_info:
                _pooled_mxm(rng)
        # the serve retry ladder keys off this flag — it must survive
        # the pickle trip home
        assert exc_info.value.retryable is True
        # specs cleared: the next dispatch resyncs and the pool is healthy
        _, _, c = _pooled_mxm(rng)
        assert c.nvals > 0

    def test_double_crash_quarantines_task(self, pool_on, rng):
        from repro.grb.pool import pool as poolmod
        from repro.obs import metrics
        deaths = poolmod.POOL_DEATHS.labels().value if metrics.ENABLED else 0
        inj = faults.crash("pool-task", nth=1, repeat=10 ** 6)
        with faults.installed(inj):
            with pytest.raises(grbpool.PoolTaskError) as exc_info:
                _pooled_mxm(rng)
        assert exc_info.value.retryable is False
        if metrics.ENABLED:
            assert poolmod.POOL_DEATHS.labels().value >= deaths + 2
        # replacements spawned clean; pool serves again
        _, _, c = _pooled_mxm(rng)
        assert c.nvals > 0

    def test_single_crash_survived_by_sibling_retry(self, pool_on, rng):
        from repro.grb.pool import pool as poolmod
        from repro.obs import metrics
        retries = (poolmod.POOL_RETRIES.labels().value
                   if metrics.ENABLED else 0)
        # each worker dies on its *second* task: the first pooled op
        # passes, the second kills both originals, and the spawned
        # replacements (fresh counters, live specs) absorb the retries
        inj = faults.crash("pool-task", nth=2, repeat=1)
        with faults.installed(inj):
            _pooled_mxm(rng)
            a, b, c = _pooled_mxm(rng)
        pool_on.setenv("REPRO_POOL_WORKERS", "0")
        ref = grb.Matrix(np.float64, 60, 40)
        grb.mxm(ref, a, b, grb.semiring_by_name("plus.times"))
        assert c.isequal(ref)
        if metrics.ENABLED:
            assert poolmod.POOL_RETRIES.labels().value > retries


class TestCounterDeltas:
    def test_worker_side_delta_extraction(self):
        from repro.grb.pool import worker as workermod
        from repro.obs import metrics
        if not metrics.ENABLED:
            pytest.skip("metrics disabled")
        c = metrics.counter("grb_pool_test_shipped_total",
                            "delta-extraction probe")
        baseline: dict = {}
        workermod._counter_deltas(baseline)      # swallow history
        c.labels().inc(3)
        deltas = dict(((name, lv), d) for name, lv, d
                      in workermod._counter_deltas(baseline))
        assert deltas[("grb_pool_test_shipped_total", ())] == 3
        # quiescent second read ships nothing for this counter
        assert not any(name == "grb_pool_test_shipped_total"
                       for name, _, _ in workermod._counter_deltas(baseline))

    def test_parent_side_merge(self, pool_on):
        from repro.obs import metrics
        if not metrics.ENABLED:
            pytest.skip("metrics disabled")
        pool = grbpool.get_pool()
        c = metrics.counter("grb_pool_test_merged_total",
                            "delta-merge probe")
        before = c.labels().value
        pool._merge_deltas((("grb_pool_test_merged_total", (), 5),))
        assert c.labels().value == before + 5
        # unknown metrics are skipped, not crashed on
        pool._merge_deltas((("grb_pool_test_never_registered", (), 1),))


class TestMultiPlanConcurrency:
    def test_independent_nodes_dispatch_concurrently(self, pool_on, rng):
        from repro.grb.engine import multiplan
        from repro.obs import metrics
        a = _rand_matrix(rng, 50, 50)
        b = _rand_matrix(rng, 50, 50)
        d = _rand_matrix(rng, 50, 50)
        before = (multiplan._CONCURRENT.labels().value
                  if metrics.ENABLED else 0)
        with grb.deferred():
            c1 = grb.Matrix(np.float64, 50, 50)
            c2 = grb.Matrix(np.float64, 50, 50)
            grb.mxm(c1, a, b, grb.semiring_by_name("plus.times"))
            grb.mxm(c2, a, d, grb.semiring_by_name("plus.times"))
        pool_on.setenv("REPRO_POOL_WORKERS", "0")
        r1 = grb.Matrix(np.float64, 50, 50)
        r2 = grb.Matrix(np.float64, 50, 50)
        grb.mxm(r1, a, b, grb.semiring_by_name("plus.times"))
        grb.mxm(r2, a, d, grb.semiring_by_name("plus.times"))
        assert c1.isequal(r1) and c2.isequal(r2)
        if metrics.ENABLED:
            assert multiplan._CONCURRENT.labels().value > before


class TestServeIntegration:
    def test_register_place_shm_publishes_feeds(self, pool_on, rng):
        from helpers import random_graph_np
        from repro import serve
        pool_on.setattr(cost, "POOL_INLINE_LIMIT", 0)
        svc = serve.GraphService(max_workers=2)
        try:
            before = grbpool.arena().segment_count()
            svc.register("g", random_graph_np(rng, n=30), place="shm")
            assert grbpool.arena().segment_count() >= before + 2
        finally:
            svc.shutdown()

    def test_register_rejects_unknown_place(self, pool_on, rng):
        from helpers import random_graph_np
        from repro import serve
        svc = serve.GraphService(max_workers=2)
        try:
            with pytest.raises(ValueError):
                svc.register("g", random_graph_np(rng, n=20),
                             place="gpu")
        finally:
            svc.shutdown()

    def test_place_shm_noop_when_pool_disabled(self, pool_off, rng):
        from helpers import random_graph_np
        from repro import serve
        svc = serve.GraphService(max_workers=2)
        try:
            svc.register("g", random_graph_np(rng, n=20), place="shm")
        finally:
            svc.shutdown()
