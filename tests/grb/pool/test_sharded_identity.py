"""Cross-process bit-identity: sharded pool kernels vs the serial engine.

Every test computes the same product twice inside one test body — once
with ``REPRO_POOL_WORKERS=2`` (the sharded rule forced, so a silent
decline fails loudly instead of passing vacuously) and once with the
pool disabled — and asserts the results are indistinguishable.  The
conftest fixtures zero ``POOL_MIN_WORK`` and kill the plan cache so the
two runs plan independently.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from helpers import ab_ratio, random_graph_np
from repro import grb, obs
from repro import lagraph as lg
from repro.grb import engine
from repro.grb.engine import cost

MATRIX_FORMATS = ("csr", "csc", "bitmap", "hypersparse")


def _rand_matrix(rng, nrows, ncols, density=0.08, dtype=np.float64):
    dense = rng.random((nrows, ncols)) < density
    r, c = np.nonzero(dense)
    vals = rng.integers(1, 100, size=r.size).astype(dtype)
    return grb.Matrix.from_coo(r, c, vals, nrows, ncols)


def _mxm(a, b, sr, *, mask=None, accum=None, seed=None, desc=None, **kw):
    ncols = b.nrows if desc is grb.DESC_T1 else b.ncols
    c = grb.Matrix(np.float64, a.nrows, ncols)
    if seed is not None:
        r, cc, v = seed
        c = grb.Matrix.from_coo(r, cc, v, a.nrows, ncols)
    grb.mxm(c, a, b, sr, mask=mask, accum=accum, desc=desc, **kw)
    return c


def _triples(m):
    m.set_format("csr")
    return m._S().csr()


def _assert_identical(got, ref):
    """Bit-identity, not just semantic equality: same canonical triple."""
    assert got.isequal(ref)
    for g, w in zip(_triples(got), _triples(ref)):
        np.testing.assert_array_equal(g, w)
        assert g.dtype == w.dtype


def _mask_kinds(mobj):
    return {
        "structural": grb.structure(mobj),
        "complemented": grb.complement(grb.structure(mobj)),
        "value": grb.as_mask(mobj),
    }


class TestRowblockMxm:
    @pytest.mark.parametrize("fmt", MATRIX_FORMATS)
    @pytest.mark.parametrize("accum", [None, "plus"])
    def test_unmasked_formats_accum(self, pool_on, rng, fmt, accum):
        a = _rand_matrix(rng, 60, 50)
        b = _rand_matrix(rng, 50, 40)
        a.set_format(fmt)
        b.set_format(fmt)
        acc = grb.binary.PLUS if accum else None
        seed = (np.array([0, 5, 39]), np.array([1, 7, 20]),
                np.array([3.0, -1.0, 9.0])) if accum else None
        sr = grb.semiring_by_name("plus.times")
        with engine.force_rule("mxm", "mxm-rowblock-pool"):
            got = _mxm(a, b, sr, accum=acc, seed=seed)
        pool_on.setenv("REPRO_POOL_WORKERS", "0")
        ref = _mxm(a, b, sr, accum=acc, seed=seed)
        _assert_identical(got, ref)

    @pytest.mark.parametrize("kind", ["structural", "complemented", "value"])
    def test_mask_kinds(self, pool_on, rng, kind):
        a = _rand_matrix(rng, 60, 50)
        b = _rand_matrix(rng, 50, 40)
        mobj = _rand_matrix(rng, 60, 40, density=0.2)
        sr = grb.semiring_by_name("plus.times")
        with engine.force_rule("mxm", "mxm-rowblock-pool"):
            got = _mxm(a, b, sr, mask=_mask_kinds(mobj)[kind])
        pool_on.setenv("REPRO_POOL_WORKERS", "0")
        ref = _mxm(a, b, sr, mask=_mask_kinds(mobj)[kind])
        _assert_identical(got, ref)

    @pytest.mark.parametrize("sr_name",
                             ["plus.times", "plus.first", "plus.second",
                              "plus.pair"])
    def test_reducible_semirings(self, pool_on, rng, sr_name):
        a = _rand_matrix(rng, 50, 50)
        b = _rand_matrix(rng, 50, 50)
        sr = grb.semiring_by_name(sr_name)
        with engine.force_rule("mxm", "mxm-rowblock-pool"):
            c_got = grb.Matrix(np.float64, 50, 50)
            grb.mxm(c_got, a, b, sr)
        pool_on.setenv("REPRO_POOL_WORKERS", "0")
        c_ref = grb.Matrix(np.float64, 50, 50)
        grb.mxm(c_ref, a, b, sr)
        _assert_identical(c_got, c_ref)

    @pytest.mark.parametrize("sr_name", ["min.plus", "max.times"])
    def test_non_reducible_falls_through_to_serial(self, pool_on, rng,
                                                   sr_name):
        # pool rules must stand aside for semirings they can't shard;
        # natural planning still answers, identically
        a = _rand_matrix(rng, 50, 50)
        b = _rand_matrix(rng, 50, 50)
        sr = grb.semiring_by_name(sr_name)
        c_got = grb.Matrix(np.float64, 50, 50)
        grb.mxm(c_got, a, b, sr)
        pool_on.setenv("REPRO_POOL_WORKERS", "0")
        c_ref = grb.Matrix(np.float64, 50, 50)
        grb.mxm(c_ref, a, b, sr)
        _assert_identical(c_got, c_ref)

    def test_transpose_b(self, pool_on, rng):
        a = _rand_matrix(rng, 40, 30)
        b = _rand_matrix(rng, 40, 30)
        sr = grb.semiring_by_name("plus.times")
        with engine.force_rule("mxm", "mxm-rowblock-pool"):
            got = _mxm(a, b, sr, desc=grb.DESC_T1)
        pool_on.setenv("REPRO_POOL_WORKERS", "0")
        ref = _mxm(a, b, sr, desc=grb.DESC_T1)
        _assert_identical(got, ref)

    def test_tasks_counter_advances(self, pool_on, rng):
        """The pooled run provably crossed the process boundary."""
        from repro.grb.pool import pool as _poolmod
        from repro.obs import metrics
        if not metrics.ENABLED:
            pytest.skip("metrics disabled")
        a = _rand_matrix(rng, 60, 50)
        b = _rand_matrix(rng, 50, 40)
        before = _poolmod.POOL_TASKS.labels("mxm-block").value
        with engine.force_rule("mxm", "mxm-rowblock-pool"):
            _mxm(a, b, grb.semiring_by_name("plus.times"))
        assert _poolmod.POOL_TASKS.labels("mxm-block").value > before


class TestMaskedDotPool:
    @pytest.fixture(autouse=True)
    def _dot_thresholds(self, monkeypatch):
        # test-sized operands must reach the dot chooser and win its
        # probe-cost race
        monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)
        monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)

    @pytest.mark.parametrize("transpose_b", [False, True])
    @pytest.mark.parametrize("accum", [None, "plus"])
    def test_masked_dot(self, pool_on, rng, transpose_b, accum):
        a = _rand_matrix(rng, 50, 40)
        b = (_rand_matrix(rng, 50, 40) if transpose_b
             else _rand_matrix(rng, 40, 50))
        mobj = _rand_matrix(rng, 50, 50, density=0.15)
        acc = grb.binary.PLUS if accum else None
        seed = (np.array([2, 11]), np.array([3, 42]),
                np.array([5.0, -7.0])) if accum else None
        sr = grb.semiring_by_name("plus.times")
        desc = grb.DESC_T1 if transpose_b else None
        with engine.force_rule("mxm", "masked-dot-rowblock-pool"):
            got = _mxm(a, b, sr, mask=grb.structure(mobj), accum=acc,
                       seed=seed, desc=desc)
        pool_on.setenv("REPRO_POOL_WORKERS", "0")
        ref = _mxm(a, b, sr, mask=grb.structure(mobj), accum=acc,
                   seed=seed, desc=desc)
        _assert_identical(got, ref)

    def test_dot_block_tasks_dispatched(self, pool_on, rng):
        from repro.grb.pool import pool as _poolmod
        from repro.obs import metrics
        if not metrics.ENABLED:
            pytest.skip("metrics disabled")
        a = _rand_matrix(rng, 50, 40)
        b = _rand_matrix(rng, 40, 50)
        mobj = _rand_matrix(rng, 50, 50, density=0.15)
        before = _poolmod.POOL_TASKS.labels("dot-block").value
        with engine.force_rule("mxm", "masked-dot-rowblock-pool"):
            _mxm(a, b, grb.semiring_by_name("plus.times"),
                 mask=grb.structure(mobj))
        assert _poolmod.POOL_TASKS.labels("dot-block").value > before


class TestMsbfsPool:
    def test_frontier_expansion_shape(self, pool_on, rng):
        """C⟨¬s(L)⟩ = F plus.pair A — the msbfs level multiply."""
        n, k = 50, 6
        a = _rand_matrix(rng, n, n, density=0.1, dtype=np.bool_)
        f = _rand_matrix(rng, k, n, density=0.1, dtype=np.bool_)
        levels = _rand_matrix(rng, k, n, density=0.1)
        sr = grb.semiring_by_name("plus.pair")
        mask = grb.complement(grb.structure(levels))

        def run():
            c = grb.Matrix(np.float64, k, n)
            grb.mxm(c, f, a, sr, mask=mask)
            return c

        with engine.force_rule("mxm", "msbfs-rowblock-pool"):
            got = run()
        pool_on.setenv("REPRO_POOL_WORKERS", "0")
        ref = run()
        _assert_identical(got, ref)


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="pool scaling needs >= 4 cores")
def test_four_workers_hold_parity_with_serial(kron_small, monkeypatch):
    """Ratio guard: squaring the kron-small adjacency (``plus.times``) as
    the planner routes it with four workers — row blocks over
    shared-memory operands — against the same product pinned to the
    serial SciPy rule.  The workers are spawned by the identity check,
    outside the timed region.  Parity is what is asserted: the guard has
    only ever run oversubscribed (4 workers on 2 cores: 1.16x)."""
    monkeypatch.setenv("REPRO_POOL_WORKERS", "4")
    a = kron_small.A.pattern(grb.FP64)
    sr = grb.semiring_by_name("plus.times")

    def pooled():
        return _mxm(a, a, sr)

    def serial():
        with engine.force_rule("mxm", "mxm-scipy"):
            return pooled()

    with obs.tracing() as trace:
        got = pooled()
    assert [e["rule"] for e in trace.decisions("mxm")] == ["mxm-rowblock-pool"]
    _assert_identical(got, serial())
    assert ab_ratio(pooled, serial) >= 1 / 1.2


class TestAlgorithmParity:
    """The full algorithm suite, pool on vs off, on the same graph."""

    def _graphs(self, rng):
        return {
            "directed": random_graph_np(rng, n=60, p=0.08, seed=7),
            "weighted": random_graph_np(rng, n=50, p=0.1, weighted=True,
                                        seed=11),
            "undirected": random_graph_np(rng, n=50, p=0.1, directed=False,
                                          seed=13),
        }

    @staticmethod
    def _run(algo, graphs):
        if algo == "bfs":
            g = graphs["directed"]
            p, l = lg.bfs(g, 0, parent=True, level=True)
            return p, l
        if algo == "pagerank":
            r, iters = lg.pagerank(graphs["directed"])
            return r, iters
        if algo == "sssp":
            return lg.sssp(graphs["weighted"], 0)
        if algo == "triangle_count":
            return lg.triangle_count_basic(graphs["undirected"])
        if algo == "connected_components":
            return lg.connected_components(graphs["undirected"])
        if algo == "betweenness_centrality":
            return lg.betweenness_centrality(graphs["directed"],
                                             sources=[0, 3, 9])
        if algo == "msbfs":
            return lg.msbfs(graphs["directed"], [0, 2, 5, 17])
        raise AssertionError(algo)

    @staticmethod
    def _assert_same(got, ref):
        if isinstance(got, tuple):
            for g, w in zip(got, ref):
                TestAlgorithmParity._assert_same(g, w)
        elif hasattr(got, "isequal"):
            assert got.isequal(ref)
        elif got is None:
            assert ref is None
        else:
            assert got == ref

    @pytest.mark.parametrize("algo",
                             ["bfs", "pagerank", "sssp", "triangle_count",
                              "connected_components",
                              "betweenness_centrality", "msbfs"])
    def test_algorithm_matches_serial(self, pool_on, rng, algo):
        got = self._run(algo, self._graphs(rng))
        pool_on.setenv("REPRO_POOL_WORKERS", "0")
        ref = self._run(algo, self._graphs(rng))
        self._assert_same(got, ref)
