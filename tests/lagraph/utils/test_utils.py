"""Tests for the LAGraph utility functions (Sec. V)."""

import io
import time

import numpy as np
import pytest

from repro import grb
from repro import lagraph as lg
from repro.lagraph.errors import IOError_, PropertyMissing
from repro.lagraph.utils import (
    Timer,
    binread,
    binwrite,
    isall,
    isequal,
    mmread,
    mmwrite,
    pattern,
    sample_degree,
    sort1,
    sort2,
    sort3,
    sort_by_degree,
    tic,
    toc,
)


class TestTimer:
    def test_timer_measures(self):
        t = Timer()
        t.tic()
        time.sleep(0.01)
        elapsed = t.toc()
        assert 0.005 < elapsed < 1.0

    def test_module_level(self):
        tic()
        assert toc() >= 0.0


class TestSorts:
    def test_sort1(self):
        np.testing.assert_array_equal(sort1([3, 1, 2]), [1, 2, 3])

    def test_sort2_cosorts(self):
        a, b = sort2([3, 1, 2], [30, 10, 20])
        np.testing.assert_array_equal(a, [1, 2, 3])
        np.testing.assert_array_equal(b, [10, 20, 30])

    def test_sort2_ties_break_by_second(self):
        a, b = sort2([1, 1, 0], [5, 2, 9])
        np.testing.assert_array_equal(a, [0, 1, 1])
        np.testing.assert_array_equal(b, [9, 2, 5])

    def test_sort3(self):
        a, b, c = sort3([1, 1, 0], [2, 2, 9], [7, 3, 1])
        np.testing.assert_array_equal(a, [0, 1, 1])
        np.testing.assert_array_equal(c, [1, 3, 7])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sort2([1], [1, 2])
        with pytest.raises(ValueError):
            sort3([1], [1], [1, 2])


class TestMatrixOps:
    def test_pattern(self):
        a = grb.Matrix.from_coo([0], [1], [7.5], 2, 2)
        p = pattern(a)
        assert p.type is grb.BOOL and p.nvals == 1

    def test_isequal(self):
        a = grb.Matrix.from_coo([0], [1], [7.5], 2, 2)
        assert isequal(a, a.dup())
        assert not isequal(a, grb.Matrix.from_coo([0], [1], [7.6], 2, 2))
        assert not isequal(a, grb.Matrix.from_coo([1], [0], [7.5], 2, 2))

    def test_isall_structure_first(self):
        a = grb.Matrix.from_coo([0], [1], [5.0], 2, 2)
        b = grb.Matrix.from_coo([0], [0], [5.0], 2, 2)
        assert not isall(a, b, grb.binary.LE)

    def test_isall_comparator(self):
        a = grb.Matrix.from_coo([0, 1], [1, 0], [1.0, 2.0], 2, 2)
        b = grb.Matrix.from_coo([0, 1], [1, 0], [3.0, 2.0], 2, 2)
        assert isall(a, b, grb.binary.LE)
        assert not isall(a, b, grb.binary.GE)

    def test_isall_empty(self):
        assert isall(grb.Matrix(grb.FP64, 2, 2), grb.Matrix(grb.FP64, 2, 2),
                     grb.binary.EQ)


class TestDegreeUtils:
    def _graph(self):
        # degrees: 0 -> 3, 1 -> 1, 2 -> 0, 3 -> 2
        r = [0, 0, 0, 1, 3, 3]
        c = [1, 2, 3, 0, 0, 1]
        A = grb.Matrix.from_coo(r, c, np.ones(6, bool), 4, 4)
        return lg.Graph(A, lg.ADJACENCY_DIRECTED)

    def test_requires_cached_degree(self):
        with pytest.raises(PropertyMissing):
            sort_by_degree(self._graph())
        with pytest.raises(PropertyMissing):
            sample_degree(self._graph())

    def test_sort_by_degree_ascending(self):
        g = self._graph()
        g.cache_row_degree()
        perm = sort_by_degree(g)
        np.testing.assert_array_equal(perm, [2, 1, 3, 0])

    def test_sort_by_degree_descending(self):
        g = self._graph()
        g.cache_row_degree()
        perm = sort_by_degree(g, ascending=False)
        assert perm[0] == 0

    def test_sample_degree_full_population(self):
        g = self._graph()
        g.cache_row_degree()
        mean, median = sample_degree(g, nsamples=10_000)
        assert 1.0 < mean < 2.1   # true mean 1.5
        assert median in (1.0, 1.5, 2.0)

    def test_sample_degree_colwise(self):
        g = self._graph()
        g.cache_col_degree()
        mean, _ = sample_degree(g, byrow=False, nsamples=10_000)
        assert mean > 0


class TestMatrixMarketIO:
    def test_round_trip_real(self, tmp_path):
        a = grb.Matrix.from_coo([0, 2], [1, 0], [1.5, -2.25], 3, 3)
        path = tmp_path / "m.mtx"
        mmwrite(a, path)
        b = mmread(path)
        assert isequal(a, b)

    def test_round_trip_integer(self, tmp_path):
        a = grb.Matrix.from_coo([0], [1], [42], 2, 2, typ=grb.INT64)
        path = tmp_path / "m.mtx"
        mmwrite(a, path)
        b = mmread(path)
        assert b.dtype == np.int64 and b[0, 1] == 42

    def test_round_trip_pattern(self, tmp_path):
        a = grb.Matrix.from_coo([0, 1], [1, 0], np.ones(2, bool), 2, 2)
        path = tmp_path / "m.mtx"
        mmwrite(a, path)
        b = mmread(path)
        assert b.dtype == np.bool_ and b.nvals == 2

    def test_symmetric_expansion(self):
        text = """%%MatrixMarket matrix coordinate real symmetric
3 3 2
2 1 5.0
3 3 7.0
"""
        m = mmread(io.StringIO(text))
        assert m[1, 0] == 5.0 and m[0, 1] == 5.0
        assert m[2, 2] == 7.0 and m.nvals == 3

    def test_skew_symmetric(self):
        text = """%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 5.0
"""
        m = mmread(io.StringIO(text))
        assert m[1, 0] == 5.0 and m[0, 1] == -5.0

    def test_comments_skipped(self):
        text = """%%MatrixMarket matrix coordinate real general
% a comment
% another
2 2 1
1 2 3.0
"""
        assert mmread(io.StringIO(text))[0, 1] == 3.0

    def test_bad_header(self):
        with pytest.raises(IOError_):
            mmread(io.StringIO("not a matrix market file\n1 1 0\n"))

    def test_unsupported_field(self):
        with pytest.raises(IOError_):
            mmread(io.StringIO(
                "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"))

    def test_empty_matrix(self, tmp_path):
        a = grb.Matrix(grb.FP64, 3, 2)
        path = tmp_path / "m.mtx"
        mmwrite(a, path)
        b = mmread(path)
        assert b.shape == (3, 2) and b.nvals == 0

    def test_comment_written(self, tmp_path):
        a = grb.Matrix.from_coo([0], [0], [1.0], 1, 1)
        path = tmp_path / "m.mtx"
        mmwrite(a, path, comment="generated by tests")
        assert "generated by tests" in path.read_text()


class TestBinaryIO:
    def test_round_trip(self, tmp_path):
        a = grb.Matrix.from_coo([0, 2], [1, 0], [1.5, -2.25], 3, 3)
        path = tmp_path / "m.npz"
        binwrite(a, path)
        b = binread(path)
        assert isequal(a, b)

    def test_preserves_dtype(self, tmp_path):
        a = grb.Matrix.from_coo([0], [0], [7], 2, 2, typ=grb.INT32)
        path = tmp_path / "m.npz"
        binwrite(a, path)
        assert binread(path).dtype == np.int32

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, a=np.arange(3))
        with pytest.raises(IOError_):
            binread(path)

    # a 2 x 2 file whose arrays break one CSR invariant each:
    # (indptr, indices, values)
    HOSTILE = {
        "column-out-of-range": ([0, 1, 1], [5], [1.0]),
        "indptr-not-monotone": ([0, 2, 1], [0, 1], [1.0, 2.0]),
        "indptr-past-indices": ([0, 1, 3], [0], [1.0]),
        "indptr-wrong-length": ([0, 1], [0], [1.0]),
        "indptr-not-from-zero": ([1, 1, 1], [0], [1.0]),
        "values-length-mismatch": ([0, 1, 1], [0], [1.0, 2.0]),
        "indices-unsorted-in-row": ([0, 2, 2], [1, 0], [1.0, 2.0]),
        "indices-duplicate-in-row": ([0, 2, 2], [1, 1], [1.0, 2.0]),
    }

    @pytest.mark.parametrize("case", HOSTILE)
    def test_rejects_malformed_csr(self, tmp_path, case):
        indptr, indices, values = self.HOSTILE[case]
        path = tmp_path / "hostile.npz"
        np.savez(path, magic=np.array("lagraph-csr-v1"),
                 shape=np.array([2, 2], dtype=np.int64),
                 indptr=np.array(indptr, dtype=np.int64),
                 indices=np.array(indices, dtype=np.int64),
                 values=np.array(values))
        with pytest.raises(IOError_):
            binread(path)

    def _written(self, tmp_path):
        path = tmp_path / "m.npz"
        binwrite(grb.Matrix.from_coo(np.arange(50), np.arange(50),
                                     np.arange(50.0), 50, 50), path)
        return path, path.read_bytes()

    def test_rejects_truncated_file(self, tmp_path):
        path, data = self._written(tmp_path)
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(IOError_):
            binread(path)

    def test_rejects_corrupt_container(self, tmp_path):
        path, data = self._written(tmp_path)
        mid = len(data) // 2
        path.write_bytes(data[:mid] + bytes(64) + data[mid + 64:])
        with pytest.raises(IOError_):
            binread(path)
