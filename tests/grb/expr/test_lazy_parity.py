"""Lazy ≡ eager: the non-blocking mode's bit-identity contract.

Recording calls into a :func:`repro.grb.deferred` scope and materialising
later must produce exactly what the eager call-at-a-time path produces —
across storage formats × mask kinds × accumulate, with the plan cache
warm or cold, and with the multi-output fusion rules forced on or off.
The algorithm-level half runs every shipped algorithm inside a deferred
scope (their hot loops already record lazily where it pays) and compares
against the eager run entry for entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import grb
from repro.grb.engine import cost, plancache

from helpers import random_graph_np

MATRIX_FORMATS = ("csr", "csc", "bitmap", "hypersparse")
VECTOR_FORMATS = ("sparse", "bitmap")
MASK_KINDS = ("none", "structural", "valued", "complement-structural")
ACCUMS = ("none", "plus", "min")


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture(autouse=True)
def _fresh_cache():
    plancache.clear()
    yield
    plancache.clear()


def _rand_matrix(rng, m, n, density=0.35):
    dense = (rng.random((m, n)) < density) * rng.integers(1, 5, (m, n))
    r, c = np.nonzero(dense)
    return grb.Matrix.from_coo(r, c, dense[r, c].astype(np.float64), m, n)


def _rand_vector(rng, n, density=0.5):
    present = rng.random(n) < density
    return grb.Vector.from_dense(
        rng.integers(1, 5, n).astype(np.float64), present=present)


def _mask(kind, mobj):
    if kind == "none":
        return None
    if kind == "structural":
        return grb.structure(mobj)
    if kind == "valued":
        return grb.Mask(mobj)
    return grb.complement(grb.structure(mobj))


def _accum(name):
    return {"none": None, "plus": grb.binary.PLUS, "min": grb.binary.MIN}[name]


def assert_same_vector(got, ref, ctx=""):
    np.testing.assert_array_equal(got.indices, ref.indices, err_msg=ctx)
    np.testing.assert_array_equal(got.values, ref.values, err_msg=ctx)


def assert_same_matrix(got, ref, ctx=""):
    assert got.isequal(ref), ctx


# ---------------------------------------------------------------------------
# operation-level parity: formats × mask kinds × accum, warm and cold cache
# ---------------------------------------------------------------------------

class TestOperationParity:
    @pytest.mark.parametrize("fmt", VECTOR_FORMATS)
    @pytest.mark.parametrize("mask_kind", MASK_KINDS)
    @pytest.mark.parametrize("accum", ACCUMS)
    def test_mxv_chain(self, rng, fmt, mask_kind, accum):
        """mxv then an update consuming it, recorded lazily vs eager."""
        a = _rand_matrix(rng, 9, 9)
        u = _rand_vector(rng, 9).set_format(fmt)
        mobj = _rand_vector(rng, 9, density=0.4)
        sr = grb.semiring_by_name("plus.times")

        def run():
            return (_rand_vector(np.random.default_rng(3), 9),
                    _rand_vector(np.random.default_rng(4), 9))

        w_e, p_e = run()
        grb.mxv(w_e, a, u, sr, mask=_mask(mask_kind, mobj),
                accum=_accum(accum))
        grb.update(p_e, w_e, mask=grb.structure(w_e))

        w_l, p_l = run()
        with grb.deferred():
            h = grb.mxv(w_l, a, u, sr, mask=_mask(mask_kind, mobj),
                        accum=_accum(accum))
            assert isinstance(h, grb.Deferred) and not h.done
            grb.update(p_l, w_l, mask=grb.structure(w_l))
        ctx = f"fmt={fmt} mask={mask_kind} accum={accum}"
        assert_same_vector(w_l, w_e, ctx)
        assert_same_vector(p_l, p_e, ctx)

    @pytest.mark.parametrize("fmt", MATRIX_FORMATS)
    @pytest.mark.parametrize("mask_kind", MASK_KINDS)
    @pytest.mark.parametrize("accum", ("none", "plus"))
    @pytest.mark.parametrize("cache", ("cold", "warm"))
    def test_masked_mxm(self, rng, fmt, mask_kind, accum, cache,
                        monkeypatch):
        """The cacheable op: lazy vs eager, cache warm vs cold, engaged
        masked engine (MASKED_MIN_NNZ floored so the dot chooser runs)."""
        monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)
        a = _rand_matrix(rng, 10, 10).set_format(fmt)
        b = _rand_matrix(rng, 10, 10)
        mobj = _rand_matrix(rng, 10, 10, density=0.3)
        sr = grb.semiring_by_name("plus.times")

        c_e = grb.Matrix(grb.FP64, 10, 10)
        grb.mxm(c_e, a, b, sr, mask=_mask(mask_kind, mobj),
                accum=_accum(accum))

        if cache == "warm":
            c_w = grb.Matrix(grb.FP64, 10, 10)   # populate the cache first
            grb.mxm(c_w, a, b, sr, mask=_mask(mask_kind, mobj),
                    accum=_accum(accum))
        else:
            plancache.clear()

        c_l = grb.Matrix(grb.FP64, 10, 10)
        with grb.deferred():
            grb.mxm(c_l, a, b, sr, mask=_mask(mask_kind, mobj),
                    accum=_accum(accum))
        assert_same_matrix(c_l, c_e,
                           f"fmt={fmt} mask={mask_kind} accum={accum} "
                           f"cache={cache}")

    @pytest.mark.parametrize("union", (True, False))
    @pytest.mark.parametrize("fmt", VECTOR_FORMATS)
    def test_ewise_and_select_and_apply(self, rng, union, fmt):
        u = _rand_vector(rng, 12).set_format(fmt)
        v = _rand_vector(rng, 12)
        op = grb.binary.MIN

        out_e = grb.Vector(grb.FP64, 12)
        (grb.ewise_add if union else grb.ewise_mult)(out_e, u, v, op)
        sel_e = grb.Vector(grb.FP64, 12)
        grb.select(sel_e, out_e, "valuege", 2.0)
        app_e = grb.Vector(grb.FP64, 12)
        grb.apply(app_e, sel_e, grb.unary.AINV)

        out_l = grb.Vector(grb.FP64, 12)
        sel_l = grb.Vector(grb.FP64, 12)
        app_l = grb.Vector(grb.FP64, 12)
        with grb.deferred():
            (grb.ewise_add if union else grb.ewise_mult)(out_l, u, v, op)
            grb.select(sel_l, out_l, "valuege", 2.0)
            grb.apply(app_l, sel_l, grb.unary.AINV)
        for got, ref in ((out_l, out_e), (sel_l, sel_e), (app_l, app_e)):
            assert_same_vector(got, ref, f"union={union} fmt={fmt}")

    def test_assign_scalar_then_accum_mxv(self, rng):
        """PageRank's teleport-then-accumulate shape: the fused-dense-accum
        rule must still claim at lazy execution time (the assign runs
        first, making the output full)."""
        a = _rand_matrix(rng, 20, 20, density=0.4)
        u = grb.Vector.from_dense(np.ones(20))
        sr = grb.semiring_by_name("plus.second")

        r_e = grb.Vector(grb.FP64, 20)
        grb.assign_scalar(r_e, 0.15)
        grb.mxv(r_e, a, u, sr, accum=grb.binary.PLUS)

        r_l = grb.Vector(grb.FP64, 20)
        with grb.deferred():
            grb.assign_scalar(r_l, 0.15)
            grb.mxv(r_l, a, u, sr, accum=grb.binary.PLUS)
        assert_same_vector(r_l, r_e)


# ---------------------------------------------------------------------------
# algorithm-level parity: every algorithm under deferred(), fusion on/off
# ---------------------------------------------------------------------------

def _algo_results(g, gw, gu):
    from repro import lagraph as lg
    from repro.lagraph.experimental.lcc import local_clustering_coefficient

    out = {}
    out["bfs_push"] = lg.bfs_parent_push(g, 0)
    out["bfs_level"] = lg.bfs_level(g, 0)
    out["sssp_bf"] = lg.sssp_bellman_ford(gw, 0)
    out["sssp_delta"] = lg.sssp_delta_stepping(gw, 0, 2.0)
    out["sssp_batch"] = lg.sssp_batch(gw, [0, 1, 2])
    out["pagerank"] = lg.pagerank(g)[0]
    out["cc"] = lg.connected_components(gu)
    out["lcc"] = local_clustering_coefficient(gu)
    out["tc"] = lg.triangle_count_basic(gu)
    return out


@pytest.mark.parametrize("fusion", (True, False),
                         ids=("fused", "decomposed"))
@pytest.mark.parametrize("cache", ("warm", "cold"))
def test_algorithms_lazy_equals_eager(fusion, cache, monkeypatch):
    rng = np.random.default_rng(11)
    g = random_graph_np(rng, n=36, p=0.12, directed=True)
    gw = random_graph_np(rng, n=36, p=0.12, directed=True, weighted=True)
    gu = random_graph_np(rng, n=36, p=0.12, directed=False)
    g.cache_all()
    gw.cache_all()
    gu.cache_all()

    ref = _algo_results(g, gw, gu)        # eager defaults, fusion on

    monkeypatch.setattr(cost, "FUSION_ENABLED", fusion)
    if cache == "cold":
        monkeypatch.setattr(cost, "PLAN_CACHE_ENABLED", False)
    plancache.clear()
    with grb.deferred():                  # whole run inside one lazy scope
        got = _algo_results(g, gw, gu)
    if cache == "warm":                   # and once more, cache-served
        with grb.deferred():
            got2 = _algo_results(g, gw, gu)
    else:
        got2 = got

    for name in ref:
        for cand in (got, got2):
            r, c = ref[name], cand[name]
            ctx = f"{name} fusion={fusion} cache={cache}"
            if isinstance(r, int):
                assert r == c, ctx
            elif isinstance(r, grb.Matrix):
                assert r.isequal(c), ctx
            else:
                assert_same_vector(c, r, ctx)


def test_fusion_off_is_fully_decomposed(monkeypatch):
    """FUSION_ENABLED=False decomposes every epilogue chain: the
    Graphalytics PageRank carries an ``apply`` and a ``reduce_scalar``
    epilogue, fused by default and each replayed as its own stage when
    switched off, with the same ranks."""
    from repro import lagraph as lg
    from repro import obs

    def epilogues(trace):
        return {(r["name"], r["args"]["fused"])
                for r in trace.find("epilogue:")}

    rng = np.random.default_rng(5)
    g = random_graph_np(rng, n=30, p=0.15)
    g.cache_all()
    with obs.tracing() as trace:
        ref, ref_iters = lg.pagerank_gx(g)
    kinds = {"epilogue:apply", "epilogue:reduce_scalar"}
    assert epilogues(trace) == {(k, True) for k in kinds}

    monkeypatch.setattr(cost, "FUSION_ENABLED", False)
    with obs.tracing() as trace:
        r, iters = lg.pagerank_gx(g)
    assert epilogues(trace) == {(k, False) for k in kinds}
    assert iters == ref_iters
    assert_same_vector(r, ref)
