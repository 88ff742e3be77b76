"""Tests for the vxm/mxv/mxm dispatch layer.

The key property: the SciPy fast path and the general gather kernel must be
*indistinguishable* — same structure, same values — for every reducible
semiring; ``mxv``/``vxm`` match the dense model at any frontier density.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dense_model as dm
from repro import grb
from repro.grb import operations as ops

REDUCIBLE = ["plus.times", "plus.first", "plus.second", "plus.pair"]


def _random_matrix(rng, m, n, density=0.3, dtype=np.float64):
    dense = (rng.random((m, n)) < density) * rng.integers(1, 5, (m, n))
    r, c = np.nonzero(dense)
    return grb.Matrix.from_coo(r, c, dense[r, c].astype(dtype), m, n)


def _random_vector(rng, n, density=0.5, dtype=np.float64):
    present = rng.random(n) < density
    vals = rng.integers(1, 5, n).astype(dtype)
    return grb.Vector.from_dense(vals, present=present)


class TestFastPathEquivalence:
    """Sparse and dense frontiers alike == the dense model."""

    @pytest.mark.parametrize("density", (0.1, 0.9))
    @pytest.mark.parametrize("name", REDUCIBLE)
    def test_vxm_matches_model(self, rng, name, density):
        sr = grb.semiring_by_name(name)
        a = _random_matrix(rng, 12, 9)
        u = _random_vector(rng, 12, density=density)
        w = grb.Vector(grb.FP64, 9)
        grb.vxm(w, u, a, sr)
        ep, ev = dm.semiring_vxm(*dm.to_model_vector(u),
                                 *dm.to_model_matrix(a), sr)
        dm.assert_vector_equals_model(w, ep, ev, name)

    @pytest.mark.parametrize("density", (0.1, 0.9))
    @pytest.mark.parametrize("name", REDUCIBLE)
    def test_mxv_matches_model(self, rng, name, density):
        sr = grb.semiring_by_name(name)
        a = _random_matrix(rng, 9, 12)
        u = _random_vector(rng, 12, density=density)
        w = grb.Vector(grb.FP64, 9)
        grb.mxv(w, a, u, sr)
        ep, ev = dm.semiring_mxv(*dm.to_model_matrix(a),
                                 *dm.to_model_vector(u), sr)
        dm.assert_vector_equals_model(w, ep, ev, name)

    @pytest.mark.parametrize("name", REDUCIBLE)
    def test_mxm_scipy_vs_expand(self, rng, name):
        sr = grb.semiring_by_name(name)
        a = _random_matrix(rng, 7, 8)
        b = _random_matrix(rng, 8, 6)
        c_fast = grb.Matrix(grb.FP64, 7, 6)
        grb.mxm(c_fast, a, b, sr)
        from repro.grb._kernels.matmul import mxm_expand
        keys, vals = mxm_expand(a.indptr, a.indices, a.values, a.nrows,
                                b.indptr, b.indices, b.values, b.ncols, sr)
        c_slow = grb.Matrix(grb.FP64, 7, 6)
        c_slow._set_from_keys(keys, vals.astype(np.float64))
        assert c_fast.isequal(c_slow), name

    def test_vxm_first_second_operand_order(self, rng):
        """vxm plus.first must take the VECTOR's values (operand order!)."""
        a = _random_matrix(rng, 10, 10)
        u = _random_vector(rng, 10, density=1.0)
        w = grb.Vector(grb.FP64, 10)
        grb.vxm(w, u, a, grb.semiring_by_name("plus.first"))
        up, uv = dm.to_model_vector(u)
        ap, av = dm.to_model_matrix(a)
        ep, ev = dm.semiring_vxm(up, uv, ap, av,
                                 grb.semiring_by_name("plus.first"))
        dm.assert_vector_equals_model(w, ep, ev, "vxm plus.first")

    def test_cancellation_keeps_structure(self):
        """1 + (-1) = 0 must stay an explicit entry (structure ≠ values)."""
        a = grb.Matrix.from_coo([0, 1], [0, 0], [1.0, -1.0], 2, 2)
        u = grb.Vector.from_dense(np.array([1.0, 1.0]))
        w = grb.Vector(grb.FP64, 2)
        grb.vxm(w, u, a, grb.semiring_by_name("plus.times"))
        assert w.nvals == 1
        assert w[0] == 0.0


class TestMaskedMxv:
    def test_pull_with_complemented_mask_restricts_rows(self, rng):
        """BFS pull: only unvisited rows may produce output."""
        a = _random_matrix(rng, 10, 10, density=0.4)
        u = _random_vector(rng, 10, density=0.4)
        visited = grb.Vector.from_coo([0, 3, 5], [1, 1, 1], 10)
        w = grb.Vector(grb.INT64, 10)
        grb.mxv(w, a, u, grb.semiring_by_name("any.secondi"),
                mask=grb.complement(grb.structure(visited)), replace=True)
        assert not np.isin(w.indices, [0, 3, 5]).any()

    def test_masked_mxv_equals_postfiltered(self, rng):
        a = _random_matrix(rng, 10, 10, density=0.4)
        u = _random_vector(rng, 10, density=0.4)
        m = _random_vector(rng, 10, density=0.5)
        sr = grb.semiring_by_name("min.plus")
        w1 = grb.Vector(grb.FP64, 10)
        grb.mxv(w1, a, u, sr, mask=grb.structure(m), replace=True)
        w2 = grb.Vector(grb.FP64, 10)
        grb.mxv(w2, a, u, sr)
        keep = np.isin(w2.indices, m.indices)
        np.testing.assert_array_equal(w1.indices, w2.indices[keep])
        np.testing.assert_array_equal(w1.values, w2.values[keep])


class TestMxmMasked:
    def test_masked_mxm_tc_idiom(self):
        # the triangle of the TC smoke test: masked product = 1 wedge
        l = grb.Matrix.from_coo([1, 2, 2], [0, 0, 1], np.ones(3), 3, 3)
        c = grb.Matrix(grb.INT64, 3, 3)
        grb.mxm(c, l, l, grb.semiring_by_name("plus.pair"),
                mask=grb.structure(l), transpose_b=True)
        assert c.reduce_scalar(grb.monoid.PLUS_MONOID) == 1

    def test_transpose_flags(self, rng):
        a = _random_matrix(rng, 5, 7)
        b = _random_matrix(rng, 5, 7)
        c = grb.Matrix(grb.FP64, 7, 7)
        grb.mxm(c, a, b, grb.semiring_by_name("plus.times"),
                transpose_a=True)
        expected = a.to_dense().T @ b.to_dense()
        np.testing.assert_allclose(c.to_dense(), expected)

    def test_mxm_accumulates(self, rng):
        a = _random_matrix(rng, 4, 4, density=0.6)
        c = grb.Matrix.from_dense(np.ones((4, 4)))
        before = c.to_dense().copy()
        grb.mxm(c, a, a, grb.semiring_by_name("plus.times"),
                accum=grb.binary.PLUS)
        after = c.to_dense()
        prod = a.to_dense() @ a.to_dense()
        np.testing.assert_allclose(after, before + prod)

    def test_dimension_checks(self):
        a = grb.Matrix(grb.FP64, 2, 3)
        b = grb.Matrix(grb.FP64, 4, 2)
        c = grb.Matrix(grb.FP64, 2, 2)
        with pytest.raises(grb.DimensionMismatch):
            grb.mxm(c, a, b, grb.semiring_by_name("plus.times"))


class TestVxmMxvChecks:
    def test_vxm_dims(self):
        with pytest.raises(grb.DimensionMismatch):
            grb.vxm(grb.Vector(grb.FP64, 3), grb.Vector(grb.FP64, 4),
                    grb.Matrix(grb.FP64, 3, 3),
                    grb.semiring_by_name("plus.times"))

    def test_mxv_dims(self):
        with pytest.raises(grb.DimensionMismatch):
            grb.mxv(grb.Vector(grb.FP64, 4), grb.Matrix(grb.FP64, 3, 3),
                    grb.Vector(grb.FP64, 4),
                    grb.semiring_by_name("plus.times"))

    def test_empty_operands(self):
        w = grb.Vector(grb.FP64, 3)
        grb.vxm(w, grb.Vector(grb.FP64, 3), grb.Matrix(grb.FP64, 3, 3),
                grb.semiring_by_name("plus.times"))
        assert w.nvals == 0
