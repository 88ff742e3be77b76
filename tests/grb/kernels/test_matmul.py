"""Property tests for the semiring matmul kernels vs the dense model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dense_model as dm
from repro import grb
from repro.grb._kernels.matmul import mxm_expand, mxv_gather, vxm_sparse

SEMIRINGS = ["plus.times", "min.plus", "max.plus", "plus.first",
             "plus.second", "plus.pair", "any.secondi", "min.second",
             "any.pair", "min.first"]


@st.composite
def matvec_case(draw, m_max=8, n_max=8):
    m = draw(st.integers(1, m_max))
    n = draw(st.integers(1, n_max))
    ap = np.array(draw(st.lists(st.booleans(), min_size=m * n,
                                max_size=m * n))).reshape(m, n)
    av = np.array(draw(st.lists(st.integers(0, 6), min_size=m * n,
                                max_size=m * n)), dtype=np.float64).reshape(m, n)
    av[~ap] = 0
    up = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    uv = np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)),
                  dtype=np.float64)
    uv[~up] = 0
    return ap, av, up, uv


def _matrix(ap, av):
    r, c = np.nonzero(ap)
    return grb.Matrix.from_coo(r, c, av[r, c], ap.shape[0], ap.shape[1])


class TestVxmSparse:
    @pytest.mark.parametrize("name", SEMIRINGS)
    @given(case=matvec_case())
    def test_matches_dense_model(self, name, case):
        ap, av, up, uv = case
        # here u indexes the ROWS of A: transpose the case shape
        ap_t, av_t = ap.T.copy(), av.T.copy()   # u.size must equal nrows
        sr = grb.semiring_by_name(name)
        a = _matrix(ap_t, av_t)
        u_idx = np.flatnonzero(up).astype(np.int64)
        w_idx, w_vals = vxm_sparse(u_idx, uv[u_idx], a.indptr, a.indices,
                                   a.values, a.ncols, sr)
        ep, ev = dm.semiring_vxm(up, uv, ap_t, av_t, sr)
        np.testing.assert_array_equal(w_idx, np.flatnonzero(ep),
                                      err_msg=f"{name}: structure")
        np.testing.assert_allclose(w_vals.astype(np.float64),
                                   ev[ep].astype(np.float64),
                                   err_msg=f"{name}: values")


class TestMxvGather:
    @pytest.mark.parametrize("name", SEMIRINGS)
    @given(case=matvec_case())
    def test_matches_dense_model(self, name, case):
        ap, av, up, uv = case
        sr = grb.semiring_by_name(name)
        a = _matrix(ap, av)
        present = up.copy()
        dense = uv.copy()
        rows = np.arange(ap.shape[0], dtype=np.int64)
        w_idx, w_vals = mxv_gather(a.indptr, a.indices, a.values,
                                   present, dense, rows, sr)
        ep, ev = dm.semiring_mxv(ap, av, up, uv, sr)
        np.testing.assert_array_equal(w_idx, np.flatnonzero(ep),
                                      err_msg=f"{name}: structure")
        np.testing.assert_allclose(w_vals.astype(np.float64),
                                   ev[ep].astype(np.float64),
                                   err_msg=f"{name}: values")

    @given(case=matvec_case())
    def test_row_restriction(self, case):
        """Restricting rows must equal filtering the full result."""
        ap, av, up, uv = case
        sr = grb.semiring_by_name("min.plus")
        a = _matrix(ap, av)
        rows = np.arange(0, ap.shape[0], 2, dtype=np.int64)
        w_idx, w_vals = mxv_gather(a.indptr, a.indices, a.values, up, uv,
                                   rows, sr)
        full_idx, full_vals = mxv_gather(a.indptr, a.indices, a.values, up,
                                         uv, np.arange(ap.shape[0],
                                                       dtype=np.int64), sr)
        keep = np.isin(full_idx, rows)
        np.testing.assert_array_equal(w_idx, full_idx[keep])
        np.testing.assert_allclose(w_vals, full_vals[keep])


@st.composite
def matmat_case(draw, dim=5):
    m = draw(st.integers(1, dim))
    k = draw(st.integers(1, dim))
    n = draw(st.integers(1, dim))

    def mk(r, c):
        p = np.array(draw(st.lists(st.booleans(), min_size=r * c,
                                   max_size=r * c))).reshape(r, c)
        v = np.array(draw(st.lists(st.integers(0, 6), min_size=r * c,
                                   max_size=r * c)),
                     dtype=np.float64).reshape(r, c)
        v[~p] = 0
        return p, v

    ap, av = mk(m, k)
    bp, bv = mk(k, n)
    return ap, av, bp, bv


class TestMxmExpand:
    @pytest.mark.parametrize("name", ["min.plus", "any.secondi", "plus.plus",
                                      "max.plus", "min.max"])
    @given(case=matmat_case())
    def test_matches_dense_model(self, name, case):
        ap, av, bp, bv = case
        sr = grb.semiring_by_name(name)
        a = _matrix(ap, av)
        bmat = _matrix(bp, bv)
        keys, vals = mxm_expand(a.indptr, a.indices, a.values, a.nrows,
                                bmat.indptr, bmat.indices, bmat.values,
                                bmat.ncols, sr)
        cp, cv = dm.semiring_mxm(ap, av, bp, bv, sr)
        r, c = np.nonzero(cp)
        np.testing.assert_array_equal(keys, r * bmat.ncols + c,
                                      err_msg=f"{name}: structure")
        np.testing.assert_allclose(vals.astype(np.float64),
                                   cv[r, c].astype(np.float64),
                                   err_msg=f"{name}: values")


# ---------------------------------------------------------------------------
# sort-free ⊕-reduce vs the sorted fallback, kernel by kernel
# ---------------------------------------------------------------------------

def _tiny(name, semiring_name):
    """Suite graph for one semiring: weights where ⊗ reads them, the
    boolean pattern cast to int64 for the integer ``plus.pair``."""
    from repro.gap import datasets
    g = datasets.build(name, "tiny", weighted=semiring_name.startswith("min"))
    a = g.A
    if semiring_name == "plus.pair":
        a = a.pattern(grb.INT64)
    return a


class TestSortFreeIdentity:
    """Every multiply kernel must return the same bits whichever way
    ``Monoid.reduce_groups`` groups its contributions: run each kernel as
    shipped (asserting the dense accumulator really ran) and again with
    the guard shut, which forces the sort."""

    @pytest.fixture
    def both_ways(self, monkeypatch):
        from repro.grb.ops import monoid

        def run(kernel):
            dense_calls = []
            real = monoid.Monoid.reduce_dense
            with monkeypatch.context() as mp:
                mp.setattr(monoid.Monoid, "reduce_dense",
                           lambda self, *a: dense_calls.append(1)
                           or real(self, *a))
                got = kernel()
            assert dense_calls, "dense path not exercised"
            with monkeypatch.context() as mp:
                mp.setattr(monoid, "DENSE_REDUCE_SLACK", 0)
                ref = kernel()
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype
                np.testing.assert_array_equal(g, r)
            assert got[0].size
        return run

    @pytest.mark.parametrize("graph", ["kron", "road"])
    @pytest.mark.parametrize("name", ["min.plus", "any.secondi", "plus.pair"])
    def test_vxm_sparse(self, name, graph, both_ways, rng):
        a = _tiny(graph, name)
        sr = grb.semiring_by_name(name)
        u_idx = np.flatnonzero(rng.random(a.nrows) < 0.4).astype(np.int64)
        u_vals = rng.integers(1, 9, u_idx.size).astype(a.dtype)
        both_ways(lambda: vxm_sparse(u_idx, u_vals, a.indptr, a.indices,
                                     a.values, a.ncols, sr))

    @pytest.mark.parametrize("graph", ["kron", "road"])
    @pytest.mark.parametrize("name", ["min.plus", "any.secondi", "plus.pair"])
    def test_mxv_gather(self, name, graph, both_ways, rng):
        a = _tiny(graph, name)
        sr = grb.semiring_by_name(name)
        present = rng.random(a.ncols) < 0.5
        dense = np.where(present, rng.integers(1, 9, a.ncols), 0).astype(a.dtype)
        rows = np.arange(a.nrows, dtype=np.int64)
        both_ways(lambda: mxv_gather(a.indptr, a.indices, a.values,
                                     present, dense, rows, sr))

    @pytest.mark.parametrize("graph", ["kron", "road"])
    @pytest.mark.parametrize("name", ["min.plus", "any.secondi", "plus.pair"])
    def test_mxm_expand(self, name, graph, both_ways, rng):
        """The batched-BFS shape: a short, wide frontier matrix times A."""
        a = _tiny(graph, name)
        sr = grb.semiring_by_name(name)
        fp = rng.random((8, a.nrows)) < 0.4
        f = _matrix(fp, rng.integers(1, 9, fp.shape).astype(a.dtype))
        both_ways(lambda: mxm_expand(f.indptr, f.indices, f.values, f.nrows,
                                     a.indptr, a.indices, a.values, a.ncols,
                                     sr))

    def test_mxm_expand_key_keep_only_filters(self, both_ways):
        """With a mask predicate the sort-free run skips the pre-filter and
        the sorted run applies it; after the write-back's own filter the
        two agree."""
        a = _tiny("kron", "min.plus")
        sr = grb.semiring_by_name("min.plus")
        allowed = a.keys()

        def kernel():
            keys, vals = mxm_expand(
                a.indptr, a.indices, a.values, a.nrows,
                a.indptr, a.indices, a.values, a.ncols, sr,
                key_keep=lambda k: np.isin(k, allowed))
            keep = np.isin(keys, allowed)
            return keys[keep], vals[keep]
        both_ways(kernel)

    # the dot kernel replays pair/times/first/second only, so min.second
    # and any.second stand in for min.plus and any.secondi; pair reduces
    # no groups (its probe is one hit count per mask entry), so plus.times
    # stands in for plus.pair
    @pytest.mark.parametrize("graph", ["kron", "road"])
    @pytest.mark.parametrize("name", ["min.second", "any.second",
                                      "plus.times"])
    def test_masked_dot(self, name, graph, both_ways):
        from repro.grb._kernels.masked_matmul import (masked_dot_probe,
                                                      masked_dot_reduce)
        from repro.grb.engine.mxm import mult_uses
        a = _tiny(graph, name)
        sr = grb.semiring_by_name(name)
        bt_indptr, bt_indices, bt_values = a._S().transpose_csr()
        rows = a._S().entry_rows()
        if graph == "road":
            # a grid has no triangles: mask with the 2-hop pattern instead
            two = (a.to_scipy().astype(bool).astype(np.int64) ** 2).tocsr()
            two.sort_indices()
            rows = np.repeat(np.arange(a.nrows), np.diff(two.indptr))
            cols = two.indices.astype(np.int64)
        else:
            cols = a.indices
        rows = rows.astype(np.int64)

        def kernel():
            probe = masked_dot_probe(a.indptr, a.indices,
                                     bt_indptr, bt_indices, rows, cols,
                                     a.ncols, *mult_uses(sr))
            return masked_dot_reduce(probe, a.values, bt_values, rows.size,
                                     sr)
        both_ways(kernel)
