"""Cross-format kernel equivalence: every storage format must produce
*bit-identical* results to the CSR/sparse reference through every kernel —
matmuls, element-wise merges, select, reductions, and the masked
write-back (including the bitmap-mask fast path).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dense_model as dm
from helpers import (MATRIX_LAYOUTS, in_layout, random_graph_np,
                     sparse_matrices, vector_pairs)
from repro import grb
from repro.gap import datasets

MATRIX_FORMATS = ("csr", "bitmap")
VECTOR_FORMATS = ("sparse", "bitmap")


def assert_same_matrix(a: grb.Matrix, b: grb.Matrix, ctx=""):
    np.testing.assert_array_equal(a.indptr, b.indptr, err_msg=ctx)
    np.testing.assert_array_equal(a.indices, b.indices, err_msg=ctx)
    np.testing.assert_array_equal(a.values, b.values, err_msg=ctx)
    assert a.values.dtype == b.values.dtype, ctx


def assert_same_vector(a: grb.Vector, b: grb.Vector, ctx=""):
    np.testing.assert_array_equal(a.indices, b.indices, err_msg=ctx)
    np.testing.assert_array_equal(a.values, b.values, err_msg=ctx)
    assert a.values.dtype == b.values.dtype, ctx


@pytest.fixture(scope="module")
def suite_graphs():
    """Small structurally-contrasting suite graphs (Table IV, tiny tier)."""
    return {name: datasets.build(name, "tiny") for name in ("kron", "road")}


SEMIRINGS = [("plus", "times"), ("plus", "pair"), ("min", "plus"),
             ("any", "secondi")]


class TestMatmulEquivalence:
    @pytest.mark.parametrize("fmt", MATRIX_LAYOUTS)
    @pytest.mark.parametrize("add,mult", SEMIRINGS)
    def test_mxm_formats_match_csr(self, suite_graphs, fmt, add, mult):
        for name, g in suite_graphs.items():
            a = g.A.pattern(grb.INT64)
            b = a.extract(range(min(8, a.nrows)), range(a.ncols))  # 8×n slab
            sr = grb.semiring(add, mult)
            ref = grb.Matrix(grb.INT64, b.nrows, a.ncols)
            grb.mxm(ref, b.dup().set_format("csr"), a.dup().set_format("csr"), sr)
            out = grb.Matrix(grb.INT64, b.nrows, a.ncols)
            grb.mxm(out, in_layout(b.dup(), fmt), in_layout(a.dup(), fmt), sr)
            assert_same_matrix(out, ref, f"{name} {fmt} {add}.{mult}")

    @pytest.mark.parametrize("fmt", MATRIX_LAYOUTS)
    @pytest.mark.parametrize("vfmt", VECTOR_FORMATS)
    def test_mxv_vxm_formats_match_reference(self, suite_graphs, fmt, vfmt):
        for name, g in suite_graphs.items():
            a = g.A.pattern(grb.FP64)
            n = a.nrows
            rng = np.random.default_rng(7)
            idx = np.sort(rng.choice(n, size=n // 3, replace=False)).astype(np.int64)
            u0 = grb.Vector.from_coo(idx, rng.random(idx.size), n)
            for sr in (grb.semiring("plus", "times"), grb.semiring("min", "plus")):
                ref_w = grb.Vector(grb.FP64, n)
                grb.mxv(ref_w, a, u0.dup().set_format("sparse"), sr)
                w = grb.Vector(grb.FP64, n)
                grb.mxv(w, in_layout(a.dup(), fmt),
                        u0.dup().set_format(vfmt), sr)
                assert_same_vector(w, ref_w, f"{name} mxv {fmt}/{vfmt}")
                ref_w2 = grb.Vector(grb.FP64, n)
                grb.vxm(ref_w2, u0.dup().set_format("sparse"), a, sr)
                w2 = grb.Vector(grb.FP64, n)
                grb.vxm(w2, u0.dup().set_format(vfmt),
                        in_layout(a.dup(), fmt), sr)
                assert_same_vector(w2, ref_w2, f"{name} vxm {fmt}/{vfmt}")


class TestEwiseSelectReduceEquivalence:
    @given(sparse_matrices(max_dim=8))
    def test_matrix_ops_all_formats(self, m):
        ref_sel = m.dup().set_format("csr").select("valuegt", 0)
        ref_tril = m.dup().set_format("csr").tril()
        ref_rr = m.dup().set_format("csr").reduce_rowwise(grb.monoid.PLUS_MONOID)
        ref_add = m.ewise_add(m.transpose() if m.nrows == m.ncols else m,
                              grb.binary.PLUS)
        for fmt in MATRIX_FORMATS:
            x = m.dup().set_format(fmt)
            assert x.select("valuegt", 0).isequal(ref_sel), fmt
            assert x.tril().isequal(ref_tril), fmt
            assert x.reduce_rowwise(grb.monoid.PLUS_MONOID).isequal(ref_rr), fmt
            other = x.transpose() if m.nrows == m.ncols else x
            assert x.ewise_add(other, grb.binary.PLUS).isequal(ref_add), fmt

    def test_matrix_ewise_bitmap_matches_sparse(self):
        rng = np.random.default_rng(9)
        nr, nc = 7, 11

        def rand_mat(k):
            cells = rng.choice(nr * nc, k, replace=False)
            return grb.Matrix.from_coo(cells // nc, cells % nc,
                                       rng.random(k), nr, nc)
        a, b = rand_mat(25), rand_mat(30)
        ref_add = a.ewise_add(b, grb.binary.PLUS)
        ref_mul = a.ewise_mult(b, grb.binary.TIMES)
        ab = a.dup().set_format("bitmap")
        bb = b.dup().set_format("bitmap")
        got_add = ab.ewise_add(bb, grb.binary.PLUS)
        got_mul = ab.ewise_mult(bb, grb.binary.TIMES)
        assert_same_matrix(got_add, ref_add)
        assert_same_matrix(got_mul, ref_mul)
        # mixed formats agree through the sparse path
        assert_same_matrix(ab.ewise_add(b, grb.binary.PLUS), ref_add)

    @given(vector_pairs())
    def test_vector_ewise_bitmap_matches_sparse(self, pair):
        u, v = pair
        ref_add = u.ewise_add(v, grb.binary.PLUS)
        ref_mul = u.ewise_mult(v, grb.binary.TIMES)
        ub = u.dup().set_format("bitmap")
        vb = v.dup().set_format("bitmap")
        got_add = ub.ewise_add(vb, grb.binary.PLUS)
        got_mul = ub.ewise_mult(vb, grb.binary.TIMES)
        assert_same_vector(got_add, ref_add)
        assert_same_vector(got_mul, ref_mul)
        # mixed formats take the sparse path and must agree too
        assert_same_vector(ub.ewise_add(v, grb.binary.PLUS), ref_add)


class TestProbeDrivenIntersection:
    """``ewise-intersect`` against the dense model (``dm.ewise_mult`` then
    ``dm.masked_write``) over every operand × mask format pairing, every
    mask flavour and both output kinds — the probe driven by an operand
    or by the mask, the both-sorted binary-search probe, and the flag
    AND."""

    MASKS = (None, "valued", "structural", "complemented")

    @staticmethod
    def _mask(kind, obj):
        if kind is None:
            return None
        if kind == "valued":
            return grb.Mask(obj)
        m = grb.structure(obj)
        return grb.complement(m) if kind == "complemented" else m

    @staticmethod
    def _check(out, a, b, mask, accum, replace, ctx):
        model = (dm.to_model_vector if isinstance(out, grb.Vector)
                 else dm.to_model_matrix)
        pc, vc = model(out)
        pt, vt = dm.ewise_mult(*model(a), *model(b), grb.binary.MINUS)
        allowed = None if mask is None else dm.mask_allowed(
            *model(mask.obj), mask.structural, mask.complemented)
        want_p, want_v = dm.masked_write(pc, vc, pt, vt, accum=accum,
                                         allowed=allowed, replace=replace)
        grb.ewise_mult(out, a, b, grb.binary.MINUS, mask=mask, accum=accum,
                       replace=replace)
        got_p, got_v = model(out)
        np.testing.assert_array_equal(got_p, want_p, err_msg=ctx)
        np.testing.assert_array_equal(got_v[want_p], want_v[want_p],
                                      err_msg=ctx)
        assert got_v.dtype == want_v.dtype, ctx

    @pytest.mark.parametrize("mask_kind", MASKS)
    @pytest.mark.parametrize("replace", (False, True))
    @pytest.mark.parametrize("accum", (None, grb.binary.PLUS))
    def test_matrix_pairings(self, mask_kind, replace, accum):
        rng = np.random.default_rng(17)
        nr, nc = 6, 9

        def rand_mat(k):
            cells = rng.choice(nr * nc, k, replace=False)
            return grb.Matrix.from_coo(cells // nc, cells % nc,
                                       rng.integers(0, 3, k).astype(float),
                                       nr, nc)
        a0, b0, m0, c0 = rand_mat(30), rand_mat(8), rand_mat(12), rand_mat(20)
        for fa in MATRIX_FORMATS:
            for fb in MATRIX_FORMATS:
                for fm in MATRIX_FORMATS:
                    a, b = a0.dup().set_format(fa), b0.dup().set_format(fb)
                    mask = self._mask(mask_kind, m0.dup().set_format(fm))
                    self._check(c0.dup(), a, b, mask, accum, replace,
                                f"{fa} {fb} mask={mask_kind}/{fm}")

    @given(vector_pairs(), st.sampled_from(MASKS), st.booleans(),
           st.sampled_from(VECTOR_FORMATS), st.sampled_from(VECTOR_FORMATS),
           st.sampled_from(VECTOR_FORMATS))
    def test_vector_pairings(self, pair, mask_kind, replace, fu, fv, fm):
        u, v = pair
        mask = self._mask(mask_kind, v.dup().set_format(fm))
        self._check(u.dup(), u.dup().set_format(fu), v.dup().set_format(fv),
                    mask, None, replace, f"{fu} {fv} mask={mask_kind}/{fm}")


class TestMaskedWriteEquivalence:
    """The bitmap-mask fast path must select exactly what sorted-key
    resolution selects — all mask flavours, both object kinds."""

    @pytest.mark.parametrize("structural", (False, True))
    @pytest.mark.parametrize("complemented", (False, True))
    @pytest.mark.parametrize("replace", (False, True))
    def test_vector_mask_formats_agree(self, structural, complemented, replace):
        n = 40
        rng = np.random.default_rng(3)
        w0 = grb.Vector.from_coo(
            np.sort(rng.choice(n, 10, replace=False)), rng.random(10), n)
        t = grb.Vector.from_coo(
            np.sort(rng.choice(n, 15, replace=False)), rng.random(15), n)
        midx = np.sort(rng.choice(n, 20, replace=False))
        mvals = rng.integers(0, 2, size=20).astype(bool)   # valued: some 0s
        mask_v = grb.Vector.from_coo(midx, mvals, n)

        def run(mask_obj):
            m = grb.structure(mask_obj) if structural else grb.Mask(mask_obj)
            if complemented:
                m = grb.complement(m)
            w = w0.dup()
            grb.update(w, t, mask=m, replace=replace)
            return w

        ref = run(mask_v.dup().set_format("sparse"))
        got = run(mask_v.dup().set_format("bitmap"))
        assert_same_vector(got, ref,
                           f"s={structural} c={complemented} r={replace}")

    @pytest.mark.parametrize("complemented", (False, True))
    def test_matrix_mask_formats_agree(self, complemented):
        rng = np.random.default_rng(5)
        nr, nc = 8, 9
        def rand_mat(k):
            cells = rng.choice(nr * nc, k, replace=False)
            return grb.Matrix.from_coo(cells // nc, cells % nc,
                                       rng.random(k), nr, nc)
        c0, t, mask_m = rand_mat(12), rand_mat(20), rand_mat(30)

        def run(mobj):
            m = grb.structure(mobj)
            if complemented:
                m = grb.complement(m)
            c = c0.dup()
            grb.update(c, t, mask=m, replace=True)
            return c

        ref = run(mask_m.dup().set_format("csr"))
        got = run(mask_m.dup().set_format("bitmap"))
        assert_same_matrix(got, ref, f"c={complemented}")

    def test_bfs_style_masked_vxm_with_bitmap_mask(self):
        g = random_graph_np(np.random.default_rng(11), n=60, p=0.1)
        a = g.A
        sr = grb.semiring("any", "pair")
        p_ref = grb.Vector.from_coo([0], [True], 60)
        p_bm = p_ref.dup().set_format("bitmap")
        q_ref, q_bm = p_ref.dup(), p_ref.dup()
        for _ in range(5):
            grb.vxm(q_ref, q_ref, a, sr,
                    mask=grb.complement(grb.structure(p_ref)), replace=True)
            grb.vxm(q_bm, q_bm, a, sr,
                    mask=grb.complement(grb.structure(p_bm)), replace=True)
            assert_same_vector(q_bm, q_ref)
            if q_ref.nvals == 0:
                break
            grb.update(p_ref, q_ref, mask=grb.structure(q_ref))
            grb.update(p_bm, q_bm, mask=grb.structure(q_bm))
            p_bm.set_format("bitmap")   # keep the mask on the fast path
            assert_same_vector(p_bm, p_ref)
