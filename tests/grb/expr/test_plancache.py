"""The keyed plan cache: hits, store-version invalidation, lineage, safety.

The cache maps plan *shape* (op, operator, descriptor bits, operand
identities) → claimed rule + operand feeds, guarded by the operands'
store versions: a mutation bumps the version, so the stale entry can
never be served — the next dispatch records one invalidation and
re-analyses.  Lineage signatures extend identity to deterministic
derivations (``pattern()``, ``tril``, the cached transpose …), which is
what lets a repeated query that rebuilds its working matrices still hit.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from helpers import ab_ratio
from repro import grb, obs
from repro.grb import engine
from repro.grb.engine import cost, plancache

SR = grb.semiring_by_name("plus.pair")


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    # floor the stand-down threshold so small test matrices engage the
    # masked engine (and therefore the expensive, cacheable analysis)
    monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)
    plancache.clear()
    yield
    plancache.clear()


def _graphish(rng, n=12, density=0.4):
    dense = (rng.random((n, n)) < density) * rng.integers(1, 5, (n, n))
    r, c = np.nonzero(dense)
    return grb.Matrix.from_coo(r, c, dense[r, c].astype(np.float64), n, n)


def _masked_mxm(a, b, mask):
    c = grb.Matrix(grb.INT64, a.nrows, b.ncols)
    grb.mxm(c, a, b, SR, mask=grb.structure(mask))
    return c


class TestHitsAndInvalidation:
    def test_repeat_hits(self):
        rng = np.random.default_rng(0)
        a = _graphish(rng)
        c1 = _masked_mxm(a, a, a)
        st0 = plancache.stats()
        assert st0.misses >= 1 and st0.hits == 0
        c2 = _masked_mxm(a, a, a)
        st1 = plancache.stats()
        assert st1.hits == st0.hits + 1
        assert c1.isequal(c2)

    def test_store_version_bump_invalidates(self):
        """The satellite contract: mutating an operand bumps its store
        version; the next identical-shape dispatch is an invalidation +
        miss (never a stale hit), and the recomputed result reflects the
        mutation."""
        rng = np.random.default_rng(1)
        a = _graphish(rng)
        b = a.dup()
        with obs.tracing() as trace:
            _masked_mxm(a, b, a)
            c_before = _masked_mxm(a, b, a)
            assert plancache.stats().hits == 1

            v0 = b.store_version
            b[0, 0] = 7.0                  # mutate: version must bump
            assert b.store_version > v0

            c_after = _masked_mxm(a, b, a)
        st = plancache.stats()
        assert st.invalidations == 1
        assert st.hits == 1                # no stale service
        assert [e for e in trace.decisions("plancache")
                if e.get("event") == "invalidate"]
        # content actually changed (pattern gained the (0,0) entry), so a
        # stale feed would have produced the old structure
        assert not c_after.isequal(c_before)
        ref = grb.Matrix(grb.INT64, a.nrows, a.ncols)
        cost_flag = cost.PLAN_CACHE_ENABLED
        try:
            cost.PLAN_CACHE_ENABLED = False
            grb.mxm(ref, a, b, SR, mask=grb.structure(a))
        finally:
            cost.PLAN_CACHE_ENABLED = cost_flag
        assert c_after.isequal(ref)

    def test_vector_store_version_bumps(self):
        v = grb.Vector.from_coo([0, 2], [1.0, 2.0], 5)
        seen = {v.store_version}
        v[1] = 3.0
        seen.add(v.store_version)
        v.remove_element(0)
        seen.add(v.store_version)
        v.set_format("bitmap")
        seen.add(v.store_version)
        v.clear()
        seen.add(v.store_version)
        assert len(seen) == 5              # strictly monotone bumps

    def test_disabled_cache_never_records(self, monkeypatch):
        monkeypatch.setattr(cost, "PLAN_CACHE_ENABLED", False)
        rng = np.random.default_rng(2)
        a = _graphish(rng)
        _masked_mxm(a, a, a)
        _masked_mxm(a, a, a)
        st = plancache.stats()
        assert st.hits == st.misses == st.entries == 0


class TestLineage:
    def test_derived_operands_hit(self):
        """A repeated query that re-derives its working matrices
        (pattern → tril/triu, the TC shape) hits through lineage."""
        rng = np.random.default_rng(3)
        a = _graphish(rng)

        def query():
            p = a.pattern(grb.INT64)
            low = p.tril(-1)
            up = p.triu(1)
            c = grb.Matrix(grb.INT64, p.nrows, p.ncols)
            grb.mxm(c, low, up, SR, mask=grb.structure(low),
                    transpose_b=True)
            return c

        c1 = query()
        c2 = query()
        assert plancache.stats().hits >= 1
        assert c1.isequal(c2)

    def test_warm_query_beats_cold(self, kron_small):
        """Ratio guard: a repeated ``triangle_count_basic`` on kron-small
        — it re-derives its triangles every call, so every hit is a
        lineage hit — against the same call with the cache off, which
        pays the chooser and the probe resolution again (measured
        2.9-3.0x).  LCC rides along for the identity check only."""
        from repro.lagraph.algorithms.tc import triangle_count_basic
        from repro.lagraph.experimental.lcc import (
            local_clustering_coefficient)

        def warm():
            return triangle_count_basic(kron_small)

        cold = mock.patch.object(cost, "PLAN_CACHE_ENABLED", False)(warm)
        lcc = local_clustering_coefficient
        cold_lcc = mock.patch.object(cost, "PLAN_CACHE_ENABLED", False)(lcc)
        assert warm() == warm() == cold()
        assert plancache.stats().hits > 0
        lcc(kron_small)                    # fills the cache
        np.testing.assert_array_equal(lcc(kron_small).values,
                                      cold_lcc(kron_small).values)
        assert ab_ratio(warm, cold, reps=3) >= 1.4

    def test_mutated_derivation_falls_back_to_uid(self):
        rng = np.random.default_rng(4)
        a = _graphish(rng)
        p1 = a.pattern(grb.INT64)
        p2 = a.pattern(grb.INT64)
        assert p1._plan_sig() == p2._plan_sig()
        p2[0, 0] = 5
        assert p1._plan_sig() != p2._plan_sig()

    def test_parent_mutation_invalidates_lineage(self):
        rng = np.random.default_rng(5)
        a = _graphish(rng)
        s1 = a.pattern(grb.INT64)._plan_sig()
        a[1, 1] = 9.0
        s2 = a.pattern(grb.INT64)._plan_sig()
        assert s1 != s2


class TestSafety:
    def test_forced_rule_bypasses_cache(self):
        rng = np.random.default_rng(6)
        a = _graphish(rng)
        _masked_mxm(a, a, a)               # cache the dot decision
        with obs.tracing() as trace:
            with engine.force_rule("mxm", "mxm-expand"):
                _masked_mxm(a, a, a)
        (e,) = trace.decisions()
        assert e["rule"] == "mxm-expand"   # pinned, not the cached claim
        assert "plan_cache" not in e       # ... and never looked up

    def test_cost_constant_change_misses(self, monkeypatch):
        """Monkeypatching a chooser constant must key a different entry —
        the forcing idiom of the parity suite survives the cache."""
        rng = np.random.default_rng(7)
        a = _graphish(rng)
        # more entries than columns: past mxm-small-expand's gate, so the
        # dot chooser's constants are what routes this product
        assert a.nvals > a.ncols
        with obs.tracing() as trace:
            _masked_mxm(a, a, a)
            monkeypatch.setattr(cost, "DOT_PROBE_COST", float("inf"))
            _masked_mxm(a, a, a)
        rules = [e["rule"] for e in trace.decisions()]
        assert rules == ["mxm-masked-dot", "mxm-scipy"]

    def test_values_change_reaches_results(self):
        """Feeds are structure-derived; a value-only mutation still bumps
        the version, so plus.times results track the new values."""
        rng = np.random.default_rng(8)
        a = _graphish(rng)
        sr = grb.semiring_by_name("plus.times")

        def prod():
            c = grb.Matrix(grb.FP64, a.nrows, a.ncols)
            grb.mxm(c, a, a, sr, mask=grb.structure(a))
            return c

        c1 = prod()
        prod()                             # hit
        i, j = int(a.indices[0]), 0
        i = int(np.flatnonzero(np.diff(a.indptr))[0])
        j = int(a.indices[a.indptr[i]])
        a[i, j] = 123.0
        c3 = prod()
        assert not np.array_equal(c3.values, c1.values)

    def test_analyze_warms_decisions(self):
        """engine.preplan(plans=...) caches the decision without
        executing: the first real dispatch is a hit."""
        rng = np.random.default_rng(9)
        a = _graphish(rng)
        plan = engine.plan_mxm(None, a, a, SR, mask=grb.structure(a))
        summary = engine.preplan(a, plans=[plan])
        assert summary["warmed_rules"]
        st0 = plancache.stats()
        _masked_mxm(a, a, a)
        assert plancache.stats().hits == st0.hits + 1
