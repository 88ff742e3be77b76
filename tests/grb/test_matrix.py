"""Tests for grb.Matrix."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from helpers import ab_ratio, in_layout, sparse_matrices
from repro import grb
from repro.gap.generators.rmat import GRAPH500_ABCD, rmat_edges
from repro.grb.errors import DimensionMismatch, IndexOutOfBounds, NoValue
from repro.lagraph.algorithms.cc import _TOUCHES


def _dense(a):
    return a.to_dense()


class TestConstruction:
    def test_empty(self):
        a = grb.Matrix(grb.FP64, 3, 4)
        assert a.shape == (3, 4) and a.nvals == 0

    def test_from_coo(self):
        a = grb.Matrix.from_coo([1, 0], [2, 1], [12.0, 1.0], 2, 3)
        assert a[0, 1] == 1.0 and a[1, 2] == 12.0

    def test_from_coo_duplicates(self):
        with pytest.raises(ValueError):
            grb.Matrix.from_coo([0, 0], [1, 1], [1.0, 2.0], 2, 2)
        a = grb.Matrix.from_coo([0, 0], [1, 1], [1.0, 2.0], 2, 2,
                                dup_op=grb.binary.PLUS)
        assert a[0, 1] == 3.0

    def test_from_coo_bounds(self):
        with pytest.raises(IndexOutOfBounds):
            grb.Matrix.from_coo([2], [0], [1.0], 2, 2)
        with pytest.raises(IndexOutOfBounds):
            grb.Matrix.from_coo([0], [5], [1.0], 2, 2)

    def test_from_scipy_round_trip(self):
        s = sp.random(6, 5, density=0.4, random_state=1, format="csr")
        a = grb.Matrix.from_scipy(s)
        np.testing.assert_allclose(a.to_dense(), s.toarray())

    def test_from_dense_drops_zeros(self):
        a = grb.Matrix.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert a.nvals == 2

    def test_from_dense_keep_zeros(self):
        a = grb.Matrix.from_dense(np.array([[1.0, 0.0]]), keep_zeros=True)
        assert a.nvals == 2

    def test_from_diag(self):
        v = grb.Vector.from_coo([0, 2], [5.0, 7.0], 3)
        d = grb.Matrix.from_diag(v)
        assert d[0, 0] == 5.0 and d[2, 2] == 7.0 and d.nvals == 2

    def test_dup_independent(self):
        a = grb.Matrix.from_coo([0], [0], [1.0], 2, 2)
        c = a.dup()
        c[0, 0] = 9.0
        assert a[0, 0] == 1.0


class TestElementAccess:
    def test_get_missing(self):
        a = grb.Matrix(grb.FP64, 2, 2)
        assert a.get(0, 0) is None
        with pytest.raises(NoValue):
            _ = a[0, 0]

    def test_setitem_insert_and_overwrite(self):
        a = grb.Matrix(grb.INT64, 3, 3)
        a[1, 2] = 5
        a[1, 0] = 3
        a[1, 2] = 7
        assert a[1, 2] == 7 and a[1, 0] == 3 and a.nvals == 2
        cols, vals = a.row(1)
        np.testing.assert_array_equal(cols, [0, 2])

    def test_bounds(self):
        a = grb.Matrix(grb.FP64, 2, 2)
        with pytest.raises(IndexOutOfBounds):
            a[2, 0] = 1.0
        with pytest.raises(IndexOutOfBounds):
            a.get(0, 5)

    def test_row_views(self):
        a = grb.Matrix.from_coo([0, 0], [1, 2], [1.0, 2.0], 2, 3)
        cols, vals = a.row(0)
        np.testing.assert_array_equal(cols, [1, 2])
        assert a.row(1)[0].size == 0

    def test_extract_row_col(self):
        a = grb.Matrix.from_coo([0, 1], [1, 1], [1.0, 2.0], 2, 3)
        r = a.extract_row(0)
        assert r.size == 3 and r[1] == 1.0
        c = a.extract_col(1)
        assert c.size == 2
        np.testing.assert_array_equal(c.values, [1.0, 2.0])

    @pytest.mark.parametrize("kind", ["row", "col"])
    def test_extract_row_col_out_of_range(self, kind):
        """-1, -2 and n are outside the matrix: no negative wrap-around to
        another row or column, no empty vector, no numpy IndexError."""
        a = grb.Matrix.from_coo([0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0], 3, 3)
        extract = a.extract_row if kind == "row" else a.extract_col
        for i in (-1, -2, 3, np.int64(3)):
            with pytest.raises(IndexOutOfBounds):
                extract(i)
        assert extract(2)[2] == 3.0


class TestStructural:
    def test_transpose_cached_identity(self):
        a = grb.Matrix.from_coo([0], [1], [5.0], 2, 2)
        assert a.T is a.T  # cache hit
        assert a.T[1, 0] == 5.0

    def test_transpose_fresh_copy(self):
        a = grb.Matrix.from_coo([0], [1], [5.0], 2, 2)
        t = a.transpose()
        assert t is not a.T
        assert t.isequal(a.T)

    @given(sparse_matrices())
    def test_transpose_involution(self, a):
        np.testing.assert_array_equal(a.T.T.to_dense(), a.to_dense())

    def test_pattern(self):
        a = grb.Matrix.from_coo([0, 1], [0, 1], [0.0, 5.0], 2, 2)
        p = a.pattern()
        assert p.type is grb.BOOL and p.nvals == 2

    def test_tril_triu(self):
        a = grb.Matrix.from_dense(np.arange(1, 10, dtype=np.float64).reshape(3, 3))
        np.testing.assert_array_equal(a.tril().to_dense(),
                                      np.tril(a.to_dense()))
        np.testing.assert_array_equal(a.triu(1).to_dense(),
                                      np.triu(a.to_dense(), 1))

    def test_offdiag_ndiag(self):
        a = grb.Matrix.from_dense(np.ones((3, 3)))
        assert a.ndiag() == 3
        assert a.offdiag().ndiag() == 0
        assert a.offdiag().nvals == 6

    def test_select_valued(self):
        a = grb.Matrix.from_coo([0, 0], [0, 1], [1.0, 5.0], 2, 2)
        assert a.select("valuegt", 2.0).nvals == 1

    @pytest.mark.parametrize("thunk,fmt", [(0.5, "bitmap"), (0.0, "bitmap"),
                                           (0.9, "csr"), (2.0, "csr")])
    def test_select_consults_format_policy(self, thunk, fmt, rng):
        """``select`` cuts the output CSR out of the input's; the store it
        lands in — and every view of it — must be the one the key
        round-trip through ``_set_from_keys`` would have produced."""
        a = grb.Matrix.from_dense(rng.random((64, 64)))
        out = a.select("valuegt", thunk)
        keep = a.values > thunk
        twin = grb.Matrix(a.type, 64, 64)
        twin._set_from_keys(a.keys()[keep], a.values[keep])
        assert out._store.fmt == twin._store.fmt == fmt
        assert out.isequal(twin)
        np.testing.assert_array_equal(out.keys(), twin.keys())
        np.testing.assert_array_equal(out.to_dense(), twin.to_dense())

    def test_select_to_few_live_rows(self, rng):
        dense = np.zeros((256, 8))
        dense[rng.integers(0, 256, 150), rng.integers(0, 8, 150)] = 0.5
        dense[[3, 77, 200]] = rng.random((3, 8)) + 1.0
        out = grb.Matrix.from_dense(dense).select("valuegt", 0.75)
        assert out.format == "csr" and out.nvals == 24
        np.testing.assert_array_equal(out.to_dense(), np.where(dense > 0.75, dense, 0))
        np.testing.assert_array_equal(np.flatnonzero(np.diff(out.indptr)),
                                      [3, 77, 200])

    @given(data=st.data())
    def test_select_compacts_like_a_boolean_mask(self, data):
        """``select`` takes the survivors by position; the CSR it returns
        must be the one boolean-mask compaction gives — n = 0, empty rows,
        and masks that keep every entry, none or some."""
        nrows = data.draw(st.integers(0, 8), "nrows")
        ncols = data.draw(st.integers(0, 8), "ncols")
        dense = data.draw(st.lists(
            st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows), "dense")
        live = np.array(data.draw(st.lists(
            st.booleans(), min_size=nrows * ncols,
            max_size=nrows * ncols), "live"), bool).reshape(nrows, ncols)
        r, c = np.nonzero(live)
        vals = np.array(dense, np.float64).reshape(nrows, ncols)[r, c]
        a = in_layout(grb.Matrix.from_coo(r, c, vals, nrows, ncols),
                      data.draw(st.sampled_from(("csr", "bitmap")), "fmt"))
        kind = data.draw(st.sampled_from(
            ("valuele", "valuegt", "tril", "triu", "offdiag", "touches")),
            "op")
        if kind == "touches":
            op = _TOUCHES
            thunk = np.array(data.draw(st.lists(
                st.booleans(), min_size=max(nrows, ncols),
                max_size=max(nrows, ncols)), "flags"), bool)
            keep = thunk[r] | thunk[c]
        elif kind.startswith("value"):
            op, thunk = kind, data.draw(st.integers(-5, 5), "thunk")
            keep = vals <= thunk if kind == "valuele" else vals > thunk
        else:
            op = kind
            thunk = data.draw(st.integers(-nrows - 1, ncols + 1), "k")
            keep = {"tril": c <= r + thunk, "triu": c >= r + thunk,
                    "offdiag": c != r + thunk}[kind]
        out = a.select(op, thunk)
        indptr = np.concatenate(([0], np.cumsum(keep)))[a.indptr]
        assert out.shape == a.shape and out.type == a.type
        np.testing.assert_array_equal(out.indptr, indptr)
        np.testing.assert_array_equal(out.indices, c[keep])
        np.testing.assert_array_equal(out.values, vals[keep])

    def test_is_symmetric_pattern(self):
        sym = grb.Matrix.from_coo([0, 1], [1, 0], [1.0, 2.0], 2, 2)
        assert sym.is_symmetric_pattern()
        asym = grb.Matrix.from_coo([0], [1], [1.0], 2, 2)
        assert not asym.is_symmetric_pattern()

    def test_apply_positional(self):
        a = grb.Matrix.from_coo([0, 1], [1, 0], [9.0, 9.0], 2, 2)
        np.testing.assert_array_equal(
            a.apply(grb.unary.ROWINDEX).values, [0, 1])
        np.testing.assert_array_equal(
            a.apply(grb.unary.COLINDEX).values, [1, 0])


class TestEwise:
    @given(sparse_matrices(max_dim=6))
    def test_ewise_add_matches_dense(self, a):
        b = a.apply(grb.unary.AINV)
        c = a.ewise_add(b, grb.binary.PLUS)
        np.testing.assert_array_equal(c.to_dense(), np.zeros(a.shape))

    def test_ewise_mult_intersection(self):
        a = grb.Matrix.from_coo([0, 0], [0, 1], [2.0, 3.0], 1, 3)
        b = grb.Matrix.from_coo([0, 0], [1, 2], [5.0, 7.0], 1, 3)
        c = a.ewise_mult(b, grb.binary.TIMES)
        assert c.nvals == 1 and c[0, 1] == 15.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            grb.Matrix(grb.FP64, 2, 2).ewise_add(grb.Matrix(grb.FP64, 2, 3),
                                                 grb.binary.PLUS)


class TestReductions:
    def test_rowwise_colwise(self):
        a = grb.Matrix.from_dense(np.array([[1.0, 2.0], [0.0, 4.0]]),
                                  keep_zeros=False)
        r = a.reduce_rowwise(grb.monoid.PLUS_MONOID)
        np.testing.assert_array_equal(r.to_dense(), [3.0, 4.0])
        c = a.reduce_colwise(grb.monoid.PLUS_MONOID)
        np.testing.assert_array_equal(c.to_dense(), [1.0, 6.0])

    def test_rowwise_skips_empty_rows(self):
        a = grb.Matrix.from_coo([0], [0], [5.0], 3, 2)
        r = a.reduce_rowwise(grb.monoid.PLUS_MONOID)
        np.testing.assert_array_equal(r.indices, [0])

    def test_scalar(self):
        a = grb.Matrix.from_coo([0, 1], [1, 0], [2.0, 3.0], 2, 2)
        assert a.reduce_scalar(grb.monoid.PLUS_MONOID) == 5.0
        assert a.reduce_scalar(grb.monoid.MAX_MONOID) == 3.0

    def test_degrees(self):
        a = grb.Matrix.from_coo([0, 0, 1], [0, 1, 0], np.ones(3), 3, 3)
        np.testing.assert_array_equal(a.row_degrees().to_dense(), [2, 1, 0])
        np.testing.assert_array_equal(a.col_degrees().to_dense(), [2, 1, 0])


class TestExtract:
    def test_submatrix(self):
        a = grb.Matrix.from_dense(np.arange(12, dtype=np.float64).reshape(3, 4))
        sub = a.extract([2, 0], [1, 3])
        np.testing.assert_array_equal(
            sub.to_dense(), a.to_dense()[np.ix_([2, 0], [1, 3])])

    def test_permutation(self):
        a = grb.Matrix.from_dense(np.arange(9, dtype=np.float64).reshape(3, 3))
        p = np.array([2, 1, 0])
        perm = a.extract(p, p)
        np.testing.assert_array_equal(perm.to_dense(), a.to_dense()[np.ix_(p, p)])


class TestScipyInterop:
    def test_to_scipy_zero_copy_view(self):
        a = grb.Matrix.from_coo([0], [1], [5.0], 2, 2)
        s = a.to_scipy()
        assert s.shape == (2, 2) and s[0, 1] == 5.0

    def test_keys_sorted(self):
        a = grb.Matrix.from_coo([1, 0, 1], [0, 1, 2], [1.0, 2.0, 3.0], 2, 3)
        keys = a.keys()
        assert np.all(np.diff(keys) > 0)

    def test_clear(self):
        a = grb.Matrix.from_coo([0], [0], [1.0], 2, 2)
        a.clear()
        assert a.nvals == 0 and a.shape == (2, 2)


def _kron_small_tuples():
    """kron-small's symmetrised edge list (the tuples ``gap.generators.kron``
    builds at scale 12: 130 650 of them, about 25 % duplicates, the
    longest run in the dozens) with ``[1, 255]`` float weights, and the
    generator that drew them."""
    src, dst = rmat_edges(12, 16, GRAPH500_ABCD, seed=1)
    keep = src != dst
    rows = np.concatenate((src[keep], dst[keep]))
    cols = np.concatenate((dst[keep], src[keep]))
    rng = np.random.default_rng(0)
    vals = rng.integers(1, 256, size=rows.size).astype(np.float64)
    return rows, cols, vals, 1 << 12, rng


class TestBuildRatioGuard:
    """The tuple build's sort and fold cost a few array passes (``ab_ratio``).

    Both guards build kron-small's symmetrised edge list with
    ``dup_op=MIN``.
    """

    def test_duplicate_build_costs_a_few_passes(self):
        """The duplicate fold, against a build of the same key set with the
        duplicates removed and the order shuffled.  The fast arm sorts more
        tuples and folds, so the ratio sits below parity by design: it
        reads 0.67-0.81 with the tagged key sort in both arms, as it did
        with the stable ``argsort`` (0.68-0.73), and a fold with one
        ``dup_op`` call per duplicate tuple read about 0.19."""
        rows, cols, vals, n, rng = _kron_small_tuples()
        _, first = np.unique(rows * n + cols, return_index=True)
        first = rng.permutation(first)
        assert first.size < rows.size          # duplicates to fold
        MIN = grb.binary.MIN

        def dup_build():
            return grb.Matrix.from_coo(rows, cols, vals, n, n, dup_op=MIN)

        def unique_build():
            return grb.Matrix.from_coo(rows[first], cols[first], vals[first],
                                       n, n, dup_op=MIN)

        assert dup_build().pattern().isequal(unique_build().pattern())
        assert ab_ratio(dup_build, unique_build) >= 0.26

    def test_tagged_sort_beats_stable_argsort(self):
        """The position-tagged key sort (``grb/_kernels/build.py``) against
        the stable ``argsort`` it replaced: the same shuffled tuples built
        at shape ``n × n`` (24 key bits + 17 position bits: tagged) and at
        ``n × 2**45`` (57 + 17 bits do not fit in 63: the fallback).  The
        shape alone picks the route; both arms fold the same duplicates."""
        rows, cols, vals, n, rng = _kron_small_tuples()
        shuffle = rng.permutation(rows.size)
        rows, cols, vals = rows[shuffle], cols[shuffle], vals[shuffle]
        MIN = grb.binary.MIN

        def tagged():
            return grb.Matrix.from_coo(rows, cols, vals, n, n, dup_op=MIN)

        def fallback():
            return grb.Matrix.from_coo(rows, cols, vals, n, 1 << 45,
                                       dup_op=MIN)

        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            fast = tagged()
            assert not spy.called
            slow = fallback()
            assert spy.call_count == 1          # the key sort only
        for got, want in zip(fast.to_coo(), slow.to_coo()):
            np.testing.assert_array_equal(got, want)
        assert ab_ratio(tagged, fallback) >= 1.3
