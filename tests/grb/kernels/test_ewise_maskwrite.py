"""Property tests for the eWise merges and the mask/accum write-back.

These are the correctness core of the substrate: the dense model in
``tests/dense_model.py`` implements the spec text naively, and the sparse
kernels must agree with it on arbitrary inputs.
"""

import numpy as np
from hypothesis import given, strategies as st

import dense_model as dm  # noqa: E402  (path added by tests/conftest.py)
from repro import grb  # noqa: E402
from repro.grb._kernels.ewise import (  # noqa: E402
    intersect,
    intersect_walk,
    setdiff_keys,
    union_merge,
)
from repro.grb._kernels.maskwrite import mask_allowed_keys, masked_write  # noqa: E402
from repro.grb.ops import binary as b  # noqa: E402


def _sparse(draw_present, values):
    keys = np.flatnonzero(draw_present).astype(np.int64)
    return keys, values[keys]


@st.composite
def two_dense_vectors(draw, n_max=16):
    n = draw(st.integers(1, n_max))
    pa = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    pb = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    va = np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)),
                  dtype=np.int64)
    vb = np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)),
                  dtype=np.int64)
    va[~pa] = 0
    vb[~pb] = 0
    return n, pa, va, pb, vb


class TestUnionMerge:
    @given(two_dense_vectors())
    def test_matches_dense_model(self, data):
        n, pa, va, pb, vb = data
        ka, xa = _sparse(pa, va)
        kb, xb = _sparse(pb, vb)
        keys, vals = union_merge(ka, xa, kb, xb, b.PLUS)
        ep, ev = dm.ewise_add(pa, va, pb, vb, b.PLUS)
        np.testing.assert_array_equal(keys, np.flatnonzero(ep))
        np.testing.assert_array_equal(vals, ev[ep])

    @given(two_dense_vectors())
    def test_min_passthrough_semantics(self, data):
        # eWiseAdd with MIN: lone entries pass through unchanged (union
        # semantics), they are NOT compared against an implicit zero.
        n, pa, va, pb, vb = data
        ka, xa = _sparse(pa, va)
        kb, xb = _sparse(pb, vb)
        keys, vals = union_merge(ka, xa, kb, xb, b.MIN)
        for k, v in zip(keys, vals):
            if pa[k] and pb[k]:
                assert v == min(va[k], vb[k])
            elif pa[k]:
                assert v == va[k]
            else:
                assert v == vb[k]

    def test_keys_sorted_unique(self):
        keys, _ = union_merge(np.array([0, 5]), np.array([1.0, 2.0]),
                              np.array([3, 5]), np.array([4.0, 8.0]), b.PLUS)
        np.testing.assert_array_equal(keys, [0, 3, 5])


class TestIntersect:
    """The intersection of two stored vectors, in every format pairing
    (both sorted: a binary-search probe; one bitmap: a probe of it; both
    bitmap: the flag AND), against the dense model."""

    FORMATS = ("sparse", "bitmap")

    @staticmethod
    def _vector(present, values, fmt):
        keys = np.flatnonzero(present)
        v = grb.Vector.from_coo(keys, values[keys], present.size)
        return v.set_format(fmt)

    @given(two_dense_vectors(), st.sampled_from(FORMATS),
           st.sampled_from(FORMATS))
    def test_matches_dense_model(self, data, fa, fb):
        n, pa, va, pb, vb = data
        u, v = self._vector(pa, va, fa), self._vector(pb, vb, fb)
        keys, vals = intersect(u, v, b.TIMES, intersect_walk(u, v))
        ep, ev = dm.ewise_mult(pa, va, pb, vb, b.TIMES)
        np.testing.assert_array_equal(keys, np.flatnonzero(ep))
        np.testing.assert_array_equal(vals, ev[ep])
        assert vals.dtype == ev.dtype

    def test_disjoint_is_empty(self):
        for fmt in self.FORMATS:
            u = grb.Vector.from_coo([0, 2], [1.0, 2.0], 4).set_format(fmt)
            v = grb.Vector.from_coo([1, 3], [3.0, 4.0], 4).set_format(fmt)
            keys, vals = intersect(u, v, b.PLUS, intersect_walk(u, v))
            assert keys.size == 0 and vals.size == 0
            assert vals.dtype == np.float64

    def test_walk_takes_the_smallest_sorted_participant(self):
        big = grb.Vector.from_coo(np.arange(8), np.ones(8), 8)
        small = grb.Vector.from_coo([1, 5], [2.0, 3.0], 8)
        big.set_format("sparse")
        small.set_format("sparse")
        assert intersect_walk(big, small)[1]().tolist() == [1, 5]
        mask = grb.structure(
            grb.Vector.from_coo([5], [1.0], 8).set_format("sparse"))
        driver, keys = intersect_walk(big, small, mask)
        assert (driver, keys().tolist()) == ("mask", [5])
        # a complemented mask is no bound, and a bitmap side is no walk
        assert intersect_walk(big, small, ~mask)[0] == "operand"
        assert intersect_walk(big.dup().set_format("bitmap"),
                              small.dup().set_format("bitmap")) is None


class TestSetdiffKeys:
    @given(st.lists(st.integers(0, 20), max_size=10),
           st.lists(st.integers(0, 20), max_size=10))
    def test_matches_python_sets(self, xs, ys):
        a = np.unique(np.array(xs, dtype=np.int64))
        bkeys = np.unique(np.array(ys, dtype=np.int64))
        mask = setdiff_keys(a, bkeys)
        expected = np.array([x not in set(ys) for x in a], dtype=bool)
        np.testing.assert_array_equal(mask, expected)


@st.composite
def write_back_cases(draw, n_max=14):
    n = draw(st.integers(1, n_max))

    def vec():
        p = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        v = np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)),
                     dtype=np.int64)
        v[~p] = 0
        return p, v

    pc, vc = vec()
    pt, vt = vec()
    pm, vm = vec()
    has_mask = draw(st.booleans())
    structural = draw(st.booleans())
    complemented = draw(st.booleans())
    replace = draw(st.booleans())
    accum = draw(st.sampled_from([None, "plus", "min"]))
    return (n, pc, vc, pt, vt, pm, vm, has_mask, structural, complemented,
            replace, accum)


class TestMaskedWrite:
    """The full §2.3 transaction vs the dense model, all flag combinations."""

    @given(write_back_cases())
    def test_matches_dense_model(self, case):
        (n, pc, vc, pt, vt, pm, vm, has_mask, structural, complemented,
         replace, accum_name) = case
        accum = b.by_name(accum_name) if accum_name else None

        c_keys, c_vals = np.flatnonzero(pc).astype(np.int64), vc[pc]
        t_keys, t_vals = np.flatnonzero(pt).astype(np.int64), vt[pt]
        m_keys, m_vals = np.flatnonzero(pm).astype(np.int64), vm[pm]

        if has_mask:
            allowed_keys = mask_allowed_keys(m_keys, m_vals, structural)
            allowed_dense = dm.mask_allowed(pm, vm, structural, complemented)
        else:
            allowed_keys = None
            complemented = False
            allowed_dense = None

        keys, vals = masked_write(
            c_keys, c_vals, t_keys, t_vals, accum=accum,
            allowed_keys=allowed_keys, complement=complemented,
            replace=replace, out_dtype=np.dtype(np.int64))

        ep, ev = dm.masked_write(pc, vc, pt, vt, accum=accum,
                                 allowed=allowed_dense, replace=replace)
        np.testing.assert_array_equal(keys, np.flatnonzero(ep))
        np.testing.assert_array_equal(vals, ev[ep])

    def test_no_mask_no_accum_replaces_contents(self):
        keys, vals = masked_write(
            np.array([0, 1]), np.array([5, 6]),
            np.array([2]), np.array([7]),
            accum=None, allowed_keys=None, complement=False, replace=False,
            out_dtype=np.dtype(np.int64))
        np.testing.assert_array_equal(keys, [2])
        np.testing.assert_array_equal(vals, [7])

    def test_merge_keeps_outside_mask(self):
        # c = {0: 5}, t = {1: 7}, mask allows {1} only
        keys, vals = masked_write(
            np.array([0]), np.array([5]),
            np.array([1]), np.array([7]),
            accum=None, allowed_keys=np.array([1]), complement=False,
            replace=False, out_dtype=np.dtype(np.int64))
        np.testing.assert_array_equal(keys, [0, 1])
        np.testing.assert_array_equal(vals, [5, 7])

    def test_replace_deletes_outside_mask(self):
        keys, vals = masked_write(
            np.array([0]), np.array([5]),
            np.array([1]), np.array([7]),
            accum=None, allowed_keys=np.array([1]), complement=False,
            replace=True, out_dtype=np.dtype(np.int64))
        np.testing.assert_array_equal(keys, [1])

    def test_mask_deletes_masked_c_entries_missing_from_t(self):
        # spec: inside the mask the output becomes exactly Z
        keys, _ = masked_write(
            np.array([0, 1]), np.array([5, 6]),
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            accum=None, allowed_keys=np.array([0]), complement=False,
            replace=False, out_dtype=np.dtype(np.int64))
        np.testing.assert_array_equal(keys, [1])

    def test_valued_mask_skips_explicit_zeros(self):
        allowed = mask_allowed_keys(np.array([0, 1]), np.array([0, 3]),
                                    structural=False)
        np.testing.assert_array_equal(allowed, [1])

    def test_structural_mask_keeps_explicit_zeros(self):
        allowed = mask_allowed_keys(np.array([0, 1]), np.array([0, 3]),
                                    structural=True)
        np.testing.assert_array_equal(allowed, [0, 1])
