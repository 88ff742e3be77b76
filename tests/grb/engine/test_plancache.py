"""The keyed plan cache: hits, store-version invalidation, repeat hits
of the graph algorithms, safety.

The cache maps plan *shape* (op, operator, descriptor bits, operand
uids) → claimed rule + operand feeds, guarded by the operands' store
versions: a mutation bumps the version, so the stale entry can never be
served — the next dispatch records one invalidation and re-analyses.
Algorithms whose working matrices are derived from a graph keep them on
the :class:`~repro.lagraph.Graph` (``Graph.derived_operand``), which is
what lets a repeated call hit.
"""

from __future__ import annotations

import gc
from unittest import mock

import numpy as np
import pytest

from helpers import ab_ratio, random_graph_np
from repro import grb, obs
from repro.grb import engine
from repro.grb.engine import cost, plancache
from repro.lagraph.algorithms import tc
from repro.lagraph.experimental.ktruss import ktruss
from repro.lagraph.experimental.lcc import local_clustering_coefficient as lcc

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

    def test_entry_dies_with_its_operand(self):
        """A uid is never reused, so an entry whose operand was collected
        can never hit again: the next store drops it and its feeds."""
        rng = np.random.default_rng(3)
        a = _graphish(rng)
        b = a.dup()
        _masked_mxm(a, b, a)
        assert plancache.stats().entries == 1
        del b
        gc.collect()
        _masked_mxm(a, a, a)
        st = plancache.stats()
        assert st.entries == 1 and st.invalidations == 0

    def test_vector_store_version_bumps(self):
        v = grb.Vector.from_coo([0, 2], [1.0, 2.0], 16)  # sparse: 1/8 dense
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


def _graph(shape: str, n: int = 48, p: float = 0.2):
    """A small graph with every property cached: ``undirected``,
    ``directed``, or ``self_loop`` (undirected plus diagonal entries)."""
    g = random_graph_np(np.random.default_rng(11), n=n, p=p,
                        directed=shape == "directed")
    if shape == "self_loop":
        for i in range(0, n, 5):
            g.A[i, i] = True
    g.cache_all()
    return g


#: entry point → (graph shape, call).  Each of these hit on a repeated
#: call on an unchanged graph when the cache recognised re-derived operands
#: by how they were made; each must keep hitting on the graph-cached ones.
REPEATS = {
    "tc-basic-undirected": ("undirected", tc.triangle_count_basic),
    "tc-basic-directed": ("directed", tc.triangle_count_basic),
    "tc-basic-self-loop": ("self_loop", tc.triangle_count_basic),
    **{f"tc-presort-{p}": ("undirected",
                           lambda g, p=p: tc.triangle_count(g, presort=p))
       for p in ("auto", None, "ascending", "descending")},
    "lcc": ("undirected", lambda g: lcc(g).to_dense()),
    "ktruss": ("undirected", lambda g: ktruss(g, 4)),
}


class TestRepeatHits:
    @pytest.mark.parametrize("name", sorted(REPEATS))
    def test_repeated_call_hits(self, name):
        """The second call on an unchanged graph re-reads the operands the
        first cached on it: TC and LCC make one product and it hits;
        k-truss's first peel hits (the later peels multiply the previous
        peel's fresh result)."""
        shape, call = REPEATS[name]
        g = _graph(shape)
        first = call(g)
        st0 = plancache.stats()
        second = call(g)
        st1 = plancache.stats()
        if isinstance(first, grb.Matrix):
            assert first.isequal(second)
        else:
            np.testing.assert_array_equal(first, second)
        assert st1.hits - st0.hits >= 1
        if name != "ktruss":
            assert (st1.hits - st0.hits, st1.misses - st0.misses) == (1, 0)

    def test_warm_query_beats_cold(self, kron_small):
        """Ratio guard: a repeated ``triangle_count_basic`` on kron-small
        — its prepared operands are cached on the graph, so the repeat
        re-reads them and its product hits — against the same call with
        the cache off, which pays the chooser and the probe resolution
        again (measured 8.2-9.7x).  LCC rides along for the identity
        check only."""

        def warm():
            return tc.triangle_count_basic(kron_small)

        cold = mock.patch.object(cost, "PLAN_CACHE_ENABLED", False)(warm)
        cold_lcc = mock.patch.object(cost, "PLAN_CACHE_ENABLED", False)(lcc)
        assert warm() == warm() == cold()
        assert plancache.stats().hits > 0
        lcc(kron_small)                    # fills the cache
        np.testing.assert_array_equal(lcc(kron_small).values,
                                      cold_lcc(kron_small).values)
        assert ab_ratio(warm, cold, reps=3) >= 1.4


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
            monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)
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
