"""Property-based round-trip tests for the storage engine.

Every format must reproduce the canonical CSR triple *exactly* —
structure, values, dtypes — after any chain of conversions, with explicit
zeros preserved (presence is structural, not value-based).
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import sparse_matrices, sparse_vectors
from repro import grb

MATRIX_FORMATS = ("csr", "bitmap")
VECTOR_FORMATS = ("sparse", "bitmap")


def assert_same_matrix(a: grb.Matrix, b: grb.Matrix):
    assert a.shape == b.shape and a.nvals == b.nvals
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.values.dtype == b.values.dtype
    np.testing.assert_array_equal(a.keys(), b.keys())


class TestMatrixRoundTrip:
    @given(sparse_matrices(), st.permutations(MATRIX_FORMATS))
    def test_conversion_chain_is_lossless(self, m, chain):
        ref = m.dup()
        x = m.dup()
        for fmt in list(chain) + ["csr"]:
            x.set_format(fmt)
            assert x.format == fmt
            assert_same_matrix(x, ref)

    @given(sparse_matrices())
    def test_every_format_round_trips_through_csr(self, m):
        for fmt in MATRIX_FORMATS:
            x = m.dup().set_format(fmt)
            back = x.dup().set_format("csr")
            assert_same_matrix(back, m)

    @given(sparse_matrices(elements=st.sampled_from([0, 1, -2])))
    def test_explicit_zeros_survive_all_formats(self, m):
        # presence is tracked structurally: a stored 0.0 is still an entry
        for fmt in MATRIX_FORMATS:
            x = m.dup().set_format(fmt)
            assert x.nvals == m.nvals
            assert_same_matrix(x, m)

    @given(sparse_matrices())
    def test_transpose_identical_across_formats(self, m):
        ref = m.dup().set_format("csr").T
        for fmt in MATRIX_FORMATS:
            t = m.dup().set_format(fmt).T
            assert_same_matrix(t, ref)

    @given(sparse_matrices())
    def test_get_and_dense_identical_across_formats(self, m):
        dense = m.to_dense()
        probes = [(0, 0), (m.nrows - 1, m.ncols - 1),
                  (m.nrows // 2, m.ncols // 2)]
        for fmt in MATRIX_FORMATS:
            x = m.dup().set_format(fmt)
            np.testing.assert_array_equal(x.to_dense(), dense)
            for (i, j) in probes:
                assert x.get(i, j, default=None) == m.get(i, j, default=None)

    @pytest.mark.parametrize("fmt", ["full", "csc", "hypersparse"])
    def test_unknown_format_rejected(self, fmt):
        m = grb.Matrix(grb.FP64, 2, 2)
        with pytest.raises(grb.InvalidValue,
                           match=re.escape("('csr', 'bitmap', 'auto')")):
            m.set_format(fmt)
        v = grb.Vector(grb.FP64, 2)
        with pytest.raises(grb.InvalidValue):
            v.set_format("dense")


class TestVectorRoundTrip:
    @given(sparse_vectors())
    def test_sparse_bitmap_chain_is_lossless(self, v):
        ref = v.dup()
        x = v.dup()
        for fmt in ("bitmap", "sparse", "bitmap", "sparse"):
            x.set_format(fmt)
            assert x.format == fmt
            assert x.isequal(ref)
            np.testing.assert_array_equal(x.indices, ref.indices)
            np.testing.assert_array_equal(x.values, ref.values)
            assert x.values.dtype == ref.values.dtype

    @given(sparse_vectors(elements=st.sampled_from([0, 3])))
    def test_explicit_zeros_survive_bitmap(self, v):
        x = v.dup().set_format("bitmap")
        assert x.nvals == v.nvals
        assert x.isequal(v)

    @given(sparse_vectors())
    def test_bitmap_view_matches_storage(self, v):
        ref_present, ref_dense = v.bitmap()
        x = v.dup().set_format("bitmap")
        present, dense = x.bitmap()
        np.testing.assert_array_equal(present, ref_present)
        np.testing.assert_array_equal(dense, ref_dense)

    def test_bitmap_point_mutations(self):
        v = grb.Vector.from_coo([1, 3], [1.0, 3.0], 6).set_format("bitmap")
        v[4] = 9.0
        v[1] = -1.0
        v.remove_element(3)
        assert v.format == "bitmap"
        idx, vals = v.to_coo()
        np.testing.assert_array_equal(idx, [1, 4])
        np.testing.assert_array_equal(vals, [-1.0, 9.0])
        assert 4 in v and 3 not in v


class TestAutoPolicy:
    def test_dense_vector_goes_bitmap(self):
        v = grb.Vector.from_dense(np.arange(64, dtype=np.float64))
        assert v.format == "bitmap"

    def test_sparse_vector_stays_sparse(self):
        v = grb.Vector.from_coo([0, 255], [1.0, 2.0], 256)
        assert v.format == "sparse"

    def test_short_dense_vector_goes_bitmap(self):
        """Density alone decides: no length floor keeps a short vector
        sparse."""
        v = grb.Vector.from_dense(np.ones(8))
        assert v.format == "bitmap"

    def test_few_live_rows_stay_csr(self):
        # the policy reads only the shape and nvals: a tall matrix with
        # two live rows keeps the CSR row pointers
        m = grb.Matrix.from_coo([0, 1], [2, 3], [1.0, 2.0], 4096, 10)
        assert m.format == "csr"
        np.testing.assert_array_equal(np.flatnonzero(np.diff(m.indptr)),
                                      [0, 1])

    def test_dense_matrix_goes_bitmap(self):
        # density alone decides: a 5 x 5 grid has no size floor to clear
        m = grb.Matrix.from_dense(np.arange(1, 26, dtype=np.float64).reshape(5, 5))
        assert m.format == "bitmap"

    def test_pin_overrides_policy(self):
        m = grb.Matrix.from_dense(np.ones((4, 4)))
        assert m.format == "bitmap"            # policy choice
        m.set_format("csr")
        # rebuilds keep the pin
        m.ewise_add(m, grb.binary.PLUS)
        m[1, 1] = 5.0
        assert m.nvals == 16 and m.format == "csr"
        m.set_format("auto")                   # policy re-engages
        assert m.format == "bitmap"

    def test_dup_preserves_format_and_pin(self):
        m = grb.Matrix.from_coo([0], [1], [1.0], 4, 4).set_format("bitmap")
        d = m.dup()
        assert d.format == "bitmap" and d.format_pin == "bitmap"
        v = grb.Vector.from_coo([1], [1.0], 4).set_format("bitmap")
        assert v.dup().format == "bitmap"


class TestStagedSetElement:
    def test_staged_insertions_match_eager_reference(self, rng):
        n = 30
        m = grb.Matrix(grb.FP64, n, n)
        ref = {}
        for _ in range(200):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            x = float(rng.normal())
            m[i, j] = x             # staged: no rebuild per call
            ref[(i, j)] = x         # dict: last write wins, like the spec
        rows = np.array([k[0] for k in ref], dtype=np.int64)
        cols = np.array([k[1] for k in ref], dtype=np.int64)
        vals = np.array(list(ref.values()))
        expect = grb.Matrix.from_coo(rows, cols, vals, n, n)
        assert m.isequal(expect)

    def test_reads_flush_pending(self):
        m = grb.Matrix(grb.INT64, 4, 4)
        m[2, 3] = 7
        assert m.nvals == 1                       # nvals flushes
        m[1, 1] = 5
        assert m[1, 1] == 5                       # getitem flushes
        m.setelement(1, 1, 9)                     # overwrite, staged
        np.testing.assert_array_equal(m.to_dense(),
                                      [[0, 0, 0, 0], [0, 9, 0, 0],
                                       [0, 0, 0, 7], [0, 0, 0, 0]])

    def test_staged_then_kernel(self):
        m = grb.Matrix.from_coo([0], [0], [1.0], 3, 3)
        m[1, 2] = 4.0
        t = m.T                                   # transpose sees the flush
        assert t.get(2, 1) == 4.0
        w = m.reduce_rowwise(grb.monoid.PLUS_MONOID)
        np.testing.assert_array_equal(w.to_dense(), [1.0, 4.0, 0.0])

    def test_staging_across_formats(self):
        for fmt in MATRIX_FORMATS:
            m = grb.Matrix.from_coo([0, 1], [1, 0], [1.0, 2.0], 4, 4)
            m.set_format(fmt)
            m[3, 3] = 8.0
            m[0, 1] = -1.0
            expect = grb.Matrix.from_coo([0, 1, 3], [1, 0, 3],
                                         [-1.0, 2.0, 8.0], 4, 4)
            assert m.isequal(expect), fmt

    def test_out_of_range_rejected_immediately(self):
        m = grb.Matrix(grb.FP64, 2, 2)
        with pytest.raises(grb.IndexOutOfBounds):
            m[2, 0] = 1.0
        assert m.nvals == 0

    def test_staged_entries_survive_wholesale_array_assignment(self):
        # sequential semantics: the staged setElement applies *before* the
        # assignment, exactly as the seed's eager path would have
        m = grb.Matrix.from_coo([0], [0], [1.0], 3, 3)
        m[1, 1] = 2.0                              # staged
        m.values = np.array([5.0, 6.0])            # wholesale replacement
        assert m.nvals == 2 and m[1, 1] == 6.0 and m[0, 0] == 5.0


class TestAliasingSafety:
    """Derived views are caches: writing through them must never silently
    desync the authoritative arrays."""

    def test_transpose_is_independent(self):
        for fmt in MATRIX_FORMATS:
            m = grb.Matrix.from_coo([0, 1], [1, 2], [1.0, 2.0], 3, 3)
            m.set_format(fmt)
            t = m.T
            t.values[:] = -9.0                 # scribble on the transpose
            assert m[0, 1] == 1.0 and m[1, 2] == 2.0, fmt
            np.testing.assert_array_equal(m.T.dup().values, [-9.0, -9.0])
            m._invalidate()                    # drop the scribbled cache
            np.testing.assert_array_equal(m.T.values, [1.0, 2.0])

    def test_derived_canonical_views_are_frozen(self):
        m = grb.Matrix.from_coo([0, 1], [1, 2], [1.0, 2.0], 3, 3)
        m.set_format("bitmap")
        with pytest.raises(ValueError):
            m.values[0] = 7.0                  # cache, not storage
        assert m[0, 1] == 1.0

    def test_unpin_to_csr_restores_writable_arrays(self):
        m = grb.Matrix.from_coo([0, 1], [1, 2], [1.0, 2.0], 3, 3)
        m.set_format("bitmap").set_format("csr")
        m.values[0] = 7.0                      # authoritative again
        assert m[0, 1] == 7.0
