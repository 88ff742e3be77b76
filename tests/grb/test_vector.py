"""Tests for grb.Vector."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import sparse_vectors, vector_pairs
from repro import grb
from repro.grb.errors import DimensionMismatch, IndexOutOfBounds, NoValue


class TestConstruction:
    def test_empty(self):
        v = grb.Vector(grb.FP64, 5)
        assert v.size == 5 and v.nvals == 0
        assert v.dtype == np.float64

    def test_from_coo(self):
        v = grb.Vector.from_coo([3, 1], [30.0, 10.0], 5)
        np.testing.assert_array_equal(v.indices, [1, 3])
        np.testing.assert_array_equal(v.values, [10.0, 30.0])

    def test_from_coo_scalar_broadcast(self):
        v = grb.Vector.from_coo([0, 2], 7, 4)
        np.testing.assert_array_equal(v.values, [7, 7])

    def test_from_coo_duplicates_need_dup_op(self):
        with pytest.raises(ValueError):
            grb.Vector.from_coo([1, 1], [1.0, 2.0], 3)

    def test_from_coo_dup_op_combines(self):
        v = grb.Vector.from_coo([1, 1, 1], [1.0, 2.0, 4.0], 3,
                                dup_op=grb.binary.PLUS)
        assert v.nvals == 1 and v[1] == 7.0

    def test_from_coo_out_of_range(self):
        with pytest.raises(IndexOutOfBounds):
            grb.Vector.from_coo([5], [1.0], 5)
        with pytest.raises(IndexOutOfBounds):
            grb.Vector.from_coo([-1], [1.0], 5)

    def test_from_dense(self):
        v = grb.Vector.from_dense(np.array([1.0, 0.0, 3.0]))
        assert v.nvals == 3  # zeros are explicit entries, not absent

    def test_from_dense_with_present(self):
        v = grb.Vector.from_dense(np.array([1.0, 2.0, 3.0]),
                                  present=np.array([True, False, True]))
        np.testing.assert_array_equal(v.indices, [0, 2])

    def test_full(self):
        v = grb.Vector.full(2.5, 4)
        assert v.nvals == 4 and v[3] == 2.5

    def test_negative_size(self):
        with pytest.raises(DimensionMismatch):
            grb.Vector(grb.FP64, -1)

    def test_dup_is_independent(self):
        v = grb.Vector.from_coo([0], [1.0], 3)
        w = v.dup()
        w[0] = 9.0
        assert v[0] == 1.0


class TestElementAccess:
    def test_get_set(self):
        v = grb.Vector(grb.INT64, 4)
        v[2] = 5
        assert v[2] == 5
        assert v.get(0) is None
        assert v.get(0, -1) == -1

    def test_getitem_missing_raises_novalue(self):
        v = grb.Vector(grb.FP64, 3)
        with pytest.raises(NoValue):
            _ = v[1]

    def test_setitem_overwrites(self):
        v = grb.Vector.from_coo([1], [1.0], 3)
        v[1] = 2.0
        assert v[1] == 2.0 and v.nvals == 1

    def test_setitem_keeps_sorted(self):
        v = grb.Vector(grb.INT64, 10)
        for i in (5, 2, 8, 0):
            v[i] = i
        np.testing.assert_array_equal(v.indices, [0, 2, 5, 8])

    def test_remove_element(self):
        v = grb.Vector.from_coo([1, 3], [1.0, 3.0], 5)
        v.remove_element(1)
        assert 1 not in v and 3 in v
        v.remove_element(2)  # no-op
        assert v.nvals == 1

    def test_bounds(self):
        v = grb.Vector(grb.FP64, 3)
        with pytest.raises(IndexOutOfBounds):
            v[3] = 1.0
        with pytest.raises(IndexOutOfBounds):
            v.get(-1)

    def test_clear(self):
        v = grb.Vector.from_coo([0, 1], [1.0, 2.0], 3)
        v.clear()
        assert v.nvals == 0 and v.size == 3

    def test_views_read_only(self):
        v = grb.Vector.from_coo([0], [1.0], 2)
        with pytest.raises(ValueError):
            v.indices[0] = 1
        with pytest.raises(ValueError):
            v.values[0] = 2.0


class TestBitmap:
    def test_bitmap_round_trip(self):
        v = grb.Vector.from_coo([1, 3], [10.0, 30.0], 5)
        present, dense = v.bitmap()
        np.testing.assert_array_equal(present, [0, 1, 0, 1, 0])
        np.testing.assert_array_equal(dense, [0, 10.0, 0, 30.0, 0])

    def test_bitmap_cache_invalidated_on_set(self):
        v = grb.Vector.from_coo([1], [10.0], 3)
        v.bitmap()
        v[2] = 5.0
        present, dense = v.bitmap()
        assert present[2] and dense[2] == 5.0

    def test_to_dense_fill(self):
        v = grb.Vector.from_coo([1], [10.0], 3)
        np.testing.assert_array_equal(v.to_dense(fill=-1), [-1, 10.0, -1])

    @given(sparse_vectors())
    def test_round_trip_through_dense(self, v):
        present, dense = v.bitmap()
        w = grb.Vector.from_dense(dense, present=present)
        assert w.isequal(v)


class TestEwiseAndApply:
    @given(vector_pairs())
    def test_ewise_add_union_structure(self, pair):
        u, v = pair
        w = u.ewise_add(v, grb.binary.PLUS)
        expected = np.union1d(u.indices, v.indices)
        np.testing.assert_array_equal(w.indices, expected)

    @given(vector_pairs())
    def test_ewise_mult_intersection_structure(self, pair):
        u, v = pair
        w = u.ewise_mult(v, grb.binary.TIMES)
        expected = np.intersect1d(u.indices, v.indices)
        np.testing.assert_array_equal(w.indices, expected)

    def test_ewise_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            grb.Vector(grb.FP64, 3).ewise_add(grb.Vector(grb.FP64, 4),
                                              grb.binary.PLUS)

    def test_apply(self):
        v = grb.Vector.from_coo([0, 2], [-1.0, 2.0], 3)
        w = v.apply(grb.unary.ABS)
        np.testing.assert_array_equal(w.values, [1.0, 2.0])
        np.testing.assert_array_equal(w.indices, v.indices)

    def test_apply_positional_rowindex(self):
        v = grb.Vector.from_coo([3, 7], [1.0, 1.0], 10)
        w = v.apply(grb.unary.ROWINDEX)
        np.testing.assert_array_equal(w.values, [3, 7])
        assert w.dtype == np.int64

    def test_select_by_value(self):
        v = grb.Vector.from_coo([0, 1, 2], [1.0, 5.0, 3.0], 3)
        w = v.select("valuegt", 2.0)
        np.testing.assert_array_equal(w.indices, [1, 2])

    def test_select_keeps_type(self):
        v = grb.Vector.from_coo([0], [5], 2, typ=grb.INT64)
        assert v.select("valuegt", 0).type is grb.INT64


class TestReduce:
    def test_reduce_plus(self):
        v = grb.Vector.from_coo([0, 2], [1.5, 2.5], 4)
        assert v.reduce(grb.monoid.PLUS_MONOID) == 4.0

    def test_reduce_empty_is_identity(self):
        v = grb.Vector(grb.FP64, 4)
        assert v.reduce(grb.monoid.PLUS_MONOID) == 0.0
        assert v.reduce(grb.monoid.MIN_MONOID) == np.inf

    @given(sparse_vectors())
    def test_reduce_matches_numpy(self, v):
        assert v.reduce(grb.monoid.PLUS_MONOID) == pytest.approx(
            float(v.values.sum()))


class TestMisc:
    def test_pattern(self):
        v = grb.Vector.from_coo([1, 2], [0.0, 5.0], 4)
        p = v.pattern()
        assert p.type is grb.BOOL
        np.testing.assert_array_equal(p.values, [True, True])

    def test_iso_value(self):
        assert grb.Vector.from_coo([0, 1], [3, 3], 4).iso_value() == 3
        assert grb.Vector.from_coo([0, 1], [3, 4], 4).iso_value() is None
        assert grb.Vector(grb.FP64, 2).iso_value() is None

    def test_isequal(self):
        u = grb.Vector.from_coo([0, 1], [1.0, 2.0], 3)
        assert u.isequal(u.dup())
        assert not u.isequal(grb.Vector.from_coo([0, 2], [1.0, 2.0], 3))
        assert not u.isequal(grb.Vector.from_coo([0, 1], [1.0, 3.0], 3))
        assert not u.isequal(grb.Vector(grb.FP64, 4))

    def test_contains_len(self):
        v = grb.Vector.from_coo([2], [1.0], 5)
        assert 2 in v and 0 not in v
        assert len(v) == 5

    def test_to_coo_copies(self):
        v = grb.Vector.from_coo([0], [1.0], 2)
        idx, vals = v.to_coo()
        idx[0] = 1
        vals[0] = 9.0
        assert v[0] == 1.0

    def test_iteration_yields_stored_entries(self):
        a = grb.Matrix.from_coo([0, 0, 1, 2], [1, 2, 2, 0],
                                [1.0, 2.0, 3.0, 4.0], 3, 3)
        u = grb.Vector.from_coo([0, 1], [1.0, 1.0], 3)
        w = grb.Vector(grb.FP64, 3)
        grb.mxv(w, a, u, grb.semiring_by_name("plus.times"))
        idx, vals = w.to_coo()
        assert list(w) == list(zip(idx.tolist(), vals.tolist()))
        assert ((0, 1), 1.0) in list(a)   # ((i, j), value) pairs

    def test_setitem_and_clear_after_an_operation(self):
        a = grb.Matrix.from_coo([0, 0, 1, 2], [1, 2, 2, 0],
                                [1.0, 2.0, 3.0, 4.0], 3, 3)
        u = grb.Vector.from_coo([0, 1], [1.0, 1.0], 3)
        sr = grb.semiring_by_name("plus.times")
        w = grb.Vector(grb.FP64, 3)
        grb.mxv(w, a, u, sr)
        w[0] = 42.0                       # sequential: the product first
        assert w.get(0) == 42.0
        x = grb.Vector(grb.FP64, 3)
        grb.mxv(x, a, u, sr)
        x.clear()                         # the product's effect then cleared
        assert x.nvals == 0
