"""repro.obs.memory: store-footprint gauges and the tracemalloc deep tier.

* every Matrix/Vector registers once at construction, and whoever reads
  ``grb_store_bytes{format}`` / ``grb_store_count{format}`` gets the live
  stores' authoritative ``nbytes()`` summed at that moment — format flips
  move a store between labels, garbage collection retires it, and no
  in-place write, kill-switch window or ``metrics.reset()`` can make the
  exported gauge drift from the heap;
* ``nbytes_components()`` / ``cache_nbytes()`` split authoritative arrays
  from materialised derived views (the hypersparse CSR cache aliases the
  authoritative triple, so only the expanded indptr may count);
* ``profiling(memory=True)`` arms tracemalloc and lands per-kernel
  ``mem_alloc`` / ``mem_peak`` columns;
* ``format_audit()`` estimates every candidate format's footprint.
"""

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import store_bytes
from repro import grb, obs
from repro.obs import memory, metrics


@pytest.fixture(autouse=True)
def _clean_slate():
    gc.collect()
    obs.reset()
    yield
    gc.collect()
    obs.reset()


def _mat(n=10, nnz=20, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.choice(n * n, size=min(nnz, n * n), replace=False)
    r, c = np.divmod(keys, n)
    return grb.Matrix.from_coo(r, c, np.ones(r.size), n, n)


def _live_count():
    return sum(d["count"] for d in memory.snapshot().values())


def _tc_graph(rng, n=60, p=0.15, seed=9):
    from helpers import random_graph_np

    g = random_graph_np(rng, n=n, p=p, directed=False, seed=seed)
    g.cache_all()
    return g


class TestComponentAccounting:
    def test_csr_components_sum_to_nbytes(self):
        m = _mat()
        st = m._store
        comps = st.nbytes_components()
        assert set(comps) == {"indptr", "indices", "values"}
        assert st.nbytes() == sum(comps.values())
        assert st.nbytes() == (st.indptr.nbytes + st.indices.nbytes
                               + st.values.nbytes)

    def test_cache_bytes_excluded_from_authoritative(self):
        m = _mat()
        st = m._store
        base = st.nbytes()
        assert st.cache_nbytes() == 0
        st.transpose_csr()       # materialise the derived CSC view
        assert st.cache_nbytes() > 0
        assert st.nbytes() == base          # authoritative side unchanged

    def test_hypersparse_cache_dedups_aliased_arrays(self):
        m = _mat(n=1000, nnz=30)
        m.set_format("hypersparse")
        st = m._store
        st.csr()                            # materialise the CSR cache
        # the cached CSR triple aliases the authoritative indices/values;
        # only the expanded indptr may be charged to the cache
        assert 0 < st.cache_nbytes() <= 2 * (st.nrows + 1) * 8

    def test_vector_components(self):
        v = grb.Vector.from_coo([1, 5, 7], [1.0, 2.0, 3.0], 10)
        st = v._store
        assert st.nbytes() == sum(st.nbytes_components().values())


class TestFootprintGauges:
    def test_new_store_lands_in_snapshot(self):
        m = _mat()
        snap = memory.snapshot()
        fmt = m.format
        assert snap[fmt]["count"] >= 1
        assert snap[fmt]["bytes"] >= m._store.nbytes()

    def test_format_change_moves_between_labels(self):
        m = _mat()
        before = memory.snapshot()
        m.set_format("bitmap")
        after = memory.snapshot()
        assert after.get("bitmap", {"count": 0})["count"] == \
            before.get("bitmap", {"count": 0}).get("count", 0) + 1
        assert after.get("csr", {"count": 0}).get("count", 0) == \
            before["csr"]["count"] - 1
        assert after["bitmap"]["bytes"] >= m._store.nbytes()

    def test_gc_retires_contribution(self):
        before = _live_count()
        m = _mat(n=50, nnz=200)
        assert _live_count() == before + 1
        del m
        gc.collect()
        assert _live_count() == before

    def test_mutation_updates_bytes_delta(self):
        m = _mat(n=30, nnz=10)
        b0 = memory.snapshot()[m.format]["bytes"]
        for j in range(20):       # grow the structure: bytes must move
            m[29, j] = 7.0
        assert m.store_version >= 0   # force the pending-write flush
        b1 = memory.snapshot()[m.format]["bytes"]
        assert b1 > b0

    def test_exact_under_disabled_kill_switch(self, monkeypatch):
        before = memory.snapshot()
        monkeypatch.setattr(metrics, "ENABLED", False)
        m = _mat().set_format("bitmap")
        after = memory.snapshot()
        assert after["bitmap"]["count"] == \
            before.get("bitmap", {"count": 0})["count"] + 1
        assert after["bitmap"]["bytes"] >= m._store.nbytes()

    def test_never_stale_after_metrics_reset(self):
        m = _mat()
        fmt = m.format
        metrics.reset()                     # zeroes the gauge children
        assert memory.snapshot()[fmt]["bytes"] >= m._store.nbytes()
        assert memory.STORE_BYTES.labels(fmt).value \
            == memory.snapshot()[fmt]["bytes"]

    def test_dup_accounts_the_copy(self):
        m = _mat()
        before = memory.snapshot()[m.format]["count"]
        d = m.dup()
        assert memory.snapshot()[m.format]["count"] == before + 1
        assert d is not None


def _heap_owners():
    """Every Matrix/Vector on the heap, found without the footprint
    registry; the list keeps them alive through the reads that follow."""
    gc.collect()
    return [o for o in gc.get_objects()
            if type(o) in (grb.Matrix, grb.Vector)]


class TestReadTimeFootprint:
    """The exported gauge, ``memory.snapshot()`` and the heap are one
    number, also when temporaries have died since the last write and
    every write since went in place (no store rebuilt)."""

    @pytest.mark.parametrize("phase", ("default", "reset", "disabled"))
    def test_exported_gauge_is_the_live_total(self, phase, monkeypatch):
        if phase == "disabled":
            monkeypatch.setattr(metrics, "ENABLED", False)
        t = grb.Vector.from_dense(np.full(64, 9.0)).set_format("bitmap")
        req = grb.Vector.from_coo([2, 3], [1.0, 20.0], 64)
        temps = [grb.Vector.from_dense(np.arange(64.0)).set_format(fmt)
                 for fmt in ("bitmap", "sparse", "bitmap", "sparse")]
        del temps
        with obs.tracing() as tr:
            for _ in range(3):
                grb.update(t, req, accum=grb.binary.MIN)
        assert [r["args"]["delta"] for r in tr.find("write")] == [True] * 3
        if phase == "reset":
            metrics.reset()
        owners = _heap_owners()
        exported = obs.json_snapshot()["metrics"]["grb_store_bytes"]
        total = sum(s["value"] for s in exported["samples"])
        assert total == sum(d["bytes"] for d in memory.snapshot().values())
        assert total == store_bytes(owners)


class TestConcurrentRegistration:
    def test_owners_made_and_dropped_across_threads(self):
        baseline = _live_count()
        stop, errors = threading.Event(), []

        def churn():
            for _ in range(300):
                vs = [grb.Vector(grb.FP64, 8) for _ in range(4)]
                del vs

        def read():
            while not stop.is_set():
                try:
                    memory.snapshot()
                except Exception as exc:   # surfaced by the assert below
                    errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        reader = threading.Thread(target=read)
        workers = [threading.Thread(target=churn) for _ in range(4)]
        try:
            reader.start()
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            stop.set()
            reader.join(timeout=60)
            sys.setswitchinterval(old)
        assert not reader.is_alive()
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        gc.collect()
        assert _live_count() == baseline


class TestReportTier:
    def test_top_stores_ranked_and_shaped(self):
        small = _mat(n=10, nnz=5, seed=1)
        big = _mat(n=200, nnz=2000, seed=2)
        rows = memory.top_stores(5)
        assert rows == sorted(rows, key=lambda r: r["nbytes"], reverse=True)
        assert rows[0]["nbytes"] >= big._store.nbytes()
        for row in rows:
            assert {"kind", "shape", "format", "nvals", "nbytes",
                    "cache_nbytes", "graph"} <= set(row)
        assert small.nvals >= 0   # keep operands alive through the walk

    def test_format_audit_flags_wasteful_format(self):
        m = _mat(n=400, nnz=10, seed=4)
        m.set_format("bitmap")              # 160k cells for 10 entries
        rows = [r for r in memory.format_audit()
                if r["shape"] == (400, 400) and r["format"] == "bitmap"]
        assert rows
        row = rows[0]
        assert row["best"] in ("csr", "csc", "hypersparse")
        assert row["savings_bytes"] > 0
        assert set(row["estimates"]) == {"csr", "csc", "bitmap",
                                         "hypersparse"}

    def test_json_snapshot_and_report_have_memory_sections(self):
        m = _mat()
        snap = obs.json_snapshot()
        assert m.format in snap["memory"]["stores"]
        assert snap["memory"]["live_owners"] >= 1
        text = obs.report()
        assert "memory" in text
        assert "grb_store_bytes" in text or "bytes=" in text


class TestDeepMemoryTier:
    def test_profiling_memory_records_kernel_columns(self, rng):
        from repro import lagraph as lg

        g = _tc_graph(rng, seed=9)
        obs.profile.reset()
        assert not tracemalloc.is_tracing()
        with obs.profiling(memory=True):
            assert obs.memory_active()
            assert tracemalloc.is_tracing()
            lg.algorithms.triangle_count(g, presort=None)
        assert not tracemalloc.is_tracing()   # disarmed on exit
        table = obs.profile.kernel_table()
        assert table
        assert any(row["mem_peak"] > 0 for row in table.values())
        for row in table.values():
            assert "mem_alloc" in row and "mem_peak" in row

    def test_profiling_without_memory_leaves_tracemalloc_off(self, rng):
        from repro import lagraph as lg

        g = _tc_graph(rng, n=40, p=0.1, seed=10)
        obs.profile.reset()
        with obs.profiling():
            assert not obs.memory_active()
            assert not tracemalloc.is_tracing()
            lg.algorithms.triangle_count(g, presort=None)
        assert all(row["mem_peak"] == 0
                   for row in obs.profile.kernel_table().values())

    def test_memory_spans_emitted_when_tracing(self, rng):
        from repro import lagraph as lg

        g = _tc_graph(rng, seed=11)
        with obs.tracing() as tr:
            with obs.profiling(memory=True):
                lg.algorithms.triangle_count(g, presort=None)
        assert tr.find("memory:")
