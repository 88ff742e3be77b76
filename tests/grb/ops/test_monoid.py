"""Tests for monoids, including the grouped reduction used by matmul."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import ab_ratio
from repro.grb.ops import monoid as m


class TestIdentities:
    def test_plus_times(self):
        assert m.PLUS_MONOID.identity(np.dtype(np.float64)) == 0.0
        assert m.TIMES_MONOID.identity(np.dtype(np.int64)) == 1

    def test_min_max_float(self):
        assert m.MIN_MONOID.identity(np.dtype(np.float64)) == np.inf
        assert m.MAX_MONOID.identity(np.dtype(np.float64)) == -np.inf

    def test_min_max_int(self):
        assert m.MIN_MONOID.identity(np.dtype(np.int32)) == np.iinfo(np.int32).max
        assert m.MAX_MONOID.identity(np.dtype(np.int32)) == np.iinfo(np.int32).min

    def test_logical(self):
        assert m.LOR_MONOID.identity(np.dtype(bool)) == False  # noqa: E712
        assert m.LAND_MONOID.identity(np.dtype(bool)) == True  # noqa: E712

    def test_any_has_no_identity(self):
        with pytest.raises(ValueError):
            m.ANY_MONOID.identity(np.dtype(np.int64))


class TestReduceAll:
    def test_plus(self):
        assert m.PLUS_MONOID.reduce_all(np.array([1.0, 2.0, 3.0])) == 6.0

    def test_empty_returns_identity(self):
        assert m.PLUS_MONOID.reduce_all(np.array([], dtype=np.float64)) == 0.0
        assert m.MIN_MONOID.reduce_all(np.array([], dtype=np.float64)) == np.inf

    def test_any_picks_first(self):
        assert m.ANY_MONOID.reduce_all(np.array([7, 8, 9])) == 7

    @given(st.lists(st.integers(-10, 10), min_size=1, max_size=20))
    def test_min_matches_numpy(self, xs):
        arr = np.array(xs, dtype=np.int64)
        assert m.MIN_MONOID.reduce_all(arr) == arr.min()


class TestReduceGroups:
    def test_basic_plus(self):
        keys = np.array([2, 0, 2, 1, 0])
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        k, v = m.PLUS_MONOID.reduce_groups(keys, vals, 3)
        np.testing.assert_array_equal(k, [0, 1, 2])
        np.testing.assert_array_equal(v, [7.0, 4.0, 4.0])

    def test_any_picks_first_in_storage_order(self):
        keys = np.array([5, 5, 5])
        vals = np.array([30, 10, 20])
        k, v = m.ANY_MONOID.reduce_groups(keys, vals, 6)
        np.testing.assert_array_equal(k, [5])
        np.testing.assert_array_equal(v, [30])

    def test_empty(self):
        k, v = m.MIN_MONOID.reduce_groups(np.array([], dtype=np.int64),
                                          np.array([], dtype=np.float64), 4)
        assert k.size == 0 and v.size == 0

    def test_single_group(self):
        k, v = m.MAX_MONOID.reduce_groups(np.zeros(4, dtype=np.int64),
                                          np.array([1, 9, 3, 7]), 1)
        np.testing.assert_array_equal(k, [0])
        np.testing.assert_array_equal(v, [9])

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(-9, 9)),
                    min_size=1, max_size=40))
    def test_matches_python_groupby(self, pairs):
        keys = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs], dtype=np.int64)
        for mono, fold in ((m.PLUS_MONOID, sum), (m.MIN_MONOID, min),
                           (m.MAX_MONOID, max)):
            k, v = mono.reduce_groups(keys, vals, 7)
            expected = {}
            for kk, vv in pairs:
                expected[kk] = fold([expected[kk], vv]) if kk in expected else vv
            assert dict(zip(k.tolist(), v.tolist())) == expected

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(-9, 9)),
                    min_size=1, max_size=40))
    def test_any_returns_some_group_member(self, pairs):
        keys = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs], dtype=np.int64)
        k, v = m.ANY_MONOID.reduce_groups(keys, vals, 7)
        members = {}
        for kk, vv in pairs:
            members.setdefault(kk, set()).add(vv)
        for kk, vv in zip(k.tolist(), v.tolist()):
            assert vv in members[kk]


# ---------------------------------------------------------------------------
# the sort-free path against a sorted reference
# ---------------------------------------------------------------------------

SLACK = m.DENSE_REDUCE_SLACK
DTYPES = (np.bool_, np.int8, np.uint64, np.int64, np.float32, np.float64)
MONOIDS = ("plus", "times", "min", "max", "any", "lor", "land", "lxor", "eq")
# np.equal has reduction loops for bool only
MONOID_DTYPES = [(name, dt) for name in MONOIDS for dt in DTYPES
                 if name != "eq" or dt is np.bool_]
SHAPES = ("one", "one-group", "all-distinct", "max-key", "past-guard")


def sorted_reference(mono, keys, values):
    """The textbook grouped reduction: stable sort, one ``reduceat``."""
    order = np.argsort(keys, kind="stable")
    sk, sv = keys[order], values[order]
    starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    if mono.ufunc is None:
        return sk[starts], sv[starts]
    return sk[starts], mono.ufunc.reduceat(sv, starts)


def _values(rng, dtype, size):
    dt = np.dtype(dtype)
    if dt.kind == "b":
        return rng.random(size) < 0.5
    if dt.kind == "f":
        # specials that make min/max/any/logical interesting; no -inf, so
        # plus never meets inf - inf
        pool = np.array([0.0, -0.0, 1.5, -2.25, 3.0, np.nan, np.inf], dtype=dt)
        return rng.choice(pool, size, p=[.2, .2, .15, .15, .15, .1, .05])
    info = np.iinfo(dt)   # the full range: sums and products must wrap alike
    return rng.integers(info.min, info.max, size, dtype=dt, endpoint=True)


def _case(rng, shape):
    """``(keys, bound)`` for one of the named key shapes."""
    if shape == "one":
        return np.array([3], dtype=np.int64), 5
    if shape == "one-group":
        return np.full(40, 2, dtype=np.int64), 4
    if shape == "all-distinct":
        return rng.permutation(64).astype(np.int64), 64
    if shape == "max-key":
        keys = rng.integers(0, 50, 300)
        keys[rng.integers(0, 300)] = 49
        return keys.astype(np.int64), 50
    keys = rng.integers(0, 30, 20).astype(np.int64)     # past-guard
    return keys, SLACK * keys.size + 1


def _mixed_zero_groups(keys, values, ukeys, bound):
    """Groups holding both +0.0 and -0.0: the one place neither path
    defines the result's sign (see ``Monoid.reduce_groups``)."""
    zero = values == 0
    neg = np.bincount(keys[zero & np.signbit(values)], minlength=bound) > 0
    pos = np.bincount(keys[zero & ~np.signbit(values)], minlength=bound) > 0
    return (neg & pos)[ukeys]


def assert_same_reduction(mono, keys, values, bound):
    got_k, got_v = mono.reduce_groups(keys, values, bound)
    ref_k, ref_v = sorted_reference(mono, keys, values)
    np.testing.assert_array_equal(got_k, ref_k)
    assert got_k.dtype == np.int64
    assert got_v.dtype == ref_v.dtype
    np.testing.assert_array_equal(got_v, ref_v)          # NaN == NaN here
    if got_v.dtype.kind == "f":
        defined = np.ones(got_k.size, dtype=bool)
        if mono.name in ("min", "max"):
            defined = ~_mixed_zero_groups(keys, values, got_k, bound)
        np.testing.assert_array_equal(np.signbit(got_v)[defined],
                                      np.signbit(ref_v)[defined])


class TestSortFreeReduce:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("name,dtype", MONOID_DTYPES)
    def test_matches_sorted_reference(self, name, dtype, shape, rng):
        mono = m.by_name(name)
        keys, bound = _case(rng, shape)
        values = _values(rng, dtype, keys.size)
        exact = name != "eq" and (name not in ("plus", "times")
                                  or np.dtype(dtype).kind in "biu")
        assert mono.sort_free(values.dtype, keys.size, bound) == \
            (exact and shape != "past-guard")
        with np.errstate(all="ignore"):
            assert_same_reduction(mono, keys, values, bound)

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("name", ("min", "max"))
    def test_signed_zero_kept_when_unmixed(self, name, dtype, rng):
        """Groups of only -0.0 (or only +0.0) come back with their sign."""
        keys = rng.integers(0, 8, 400).astype(np.int64)
        values = np.where(keys % 2 == 0, -0.0, 0.0).astype(dtype)
        k, v = m.by_name(name).reduce_groups(keys, values, 8)
        np.testing.assert_array_equal(np.signbit(v), k % 2 == 0)

    @pytest.mark.parametrize("name", ("min", "max"))
    def test_nan_propagates_without_warning(self, name):
        keys = np.array([0, 1, 0, 1, 2], dtype=np.int64)
        values = np.array([1.0, np.nan, 2.0, 5.0, -0.0])
        with np.errstate(all="raise"):
            k, v = m.by_name(name).reduce_groups(keys, values, 3)
        np.testing.assert_array_equal(
            v, [1.0 if name == "min" else 2.0, np.nan, -0.0])
        assert np.signbit(v[2])

    @pytest.mark.parametrize("name", ("lor", "land", "lxor"))
    def test_logical_result_is_bool_on_integer_input(self, name):
        keys = np.array([0, 0, 1, 1, 1], dtype=np.int64)
        values = np.array([0, 2, 3, 0, 5], dtype=np.int8)
        k, v = m.by_name(name).reduce_groups(keys, values, 2)
        assert v.dtype == np.bool_
        expected = {"lor": [True, True], "land": [False, False],
                    "lxor": [True, False]}[name]
        np.testing.assert_array_equal(v, expected)

    def test_small_integers_widen_like_reduceat(self):
        keys = np.zeros(300, dtype=np.int64)
        values = np.full(300, 127, dtype=np.int8)
        _, v = m.PLUS_MONOID.reduce_groups(keys, values, 1)
        assert v.dtype == np.int64 and v[0] == 300 * 127
        _, v = m.PLUS_MONOID.reduce_groups(keys, values.astype(bool), 1)
        assert v.dtype == np.int64 and v[0] == 300

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_float_plus_keeps_reduceat_bits(self, dtype, rng):
        """Long float segments are summed pairwise by ``reduceat``; a dense
        accumulator would sum them left to right and change the last bits,
        so float ``plus`` must stay on the sorted path however affordable
        the key range is."""
        keys = np.repeat(np.arange(6), [8, 9, 64, 129, 500, 2000])
        keys = keys[rng.permutation(keys.size)].astype(np.int64)
        values = (rng.standard_normal(keys.size) * 1e3).astype(dtype)
        assert not m.PLUS_MONOID.sort_free(values.dtype, keys.size, 6)
        k, v = m.PLUS_MONOID.reduce_groups(keys, values, 6)
        rk, rv = sorted_reference(m.PLUS_MONOID, keys, values)
        assert v.tobytes() == rv.tobytes()
        # ... and the accumulator, asked for by name, is the sequential sum
        _, dv = m.PLUS_MONOID.reduce_dense(keys, values, 6)
        seq = [np.add.accumulate(values[keys == g])[-1] for g in range(6)]
        assert dv.tobytes() == np.array(seq, dtype=dtype).tobytes()

    def test_empty(self):
        for mono in (m.MIN_MONOID, m.ANY_MONOID):
            for fn in (mono.reduce_groups, mono.reduce_dense):
                k, v = fn(np.array([], dtype=np.int64),
                          np.array([], dtype=np.float32), 9)
                assert k.size == 0 and k.dtype == np.int64
                assert v.size == 0 and v.dtype == np.float32


class TestReduceSequential:
    """``reduce_sequential`` == a Python ``acc[k] = acc[k] + x`` loop from
    the identity, in the values' own dtype — the compiled-accumulator order
    ``reduceat`` leaves on long float groups, small integers and ``-0.0``."""

    @staticmethod
    def _loop(mono, keys, values):
        acc = {}
        with np.errstate(all="ignore"):
            for k, x in zip(keys.tolist(), values):
                acc[k] = mono.ufunc(acc.get(k, mono.identity(values.dtype)), x,
                                    dtype=values.dtype)
        ukeys = np.array(sorted(acc), dtype=np.int64)
        return ukeys, np.array([acc[k] for k in ukeys], dtype=values.dtype)

    @pytest.mark.parametrize("dtype", (np.float64, np.float32, np.int64,
                                       np.int32, np.uint8))
    def test_matches_the_loop(self, rng, dtype):
        keys = rng.integers(0, 12, 400)          # ~33 per group: pairwise
        if np.issubdtype(dtype, np.floating):    # territory for reduceat
            values = (rng.standard_normal(400) * 1e3).astype(dtype)
        else:
            info = np.iinfo(dtype)                # sums wrap
            values = rng.integers(info.max // 4, info.max, 400).astype(dtype)
        ukeys, got = m.PLUS_MONOID.reduce_sequential(keys, values)
        want_keys, want = self._loop(m.PLUS_MONOID, keys, values)
        np.testing.assert_array_equal(ukeys, want_keys)
        assert got.dtype == values.dtype
        assert got.tobytes() == want.tobytes()

    def test_differs_from_reduceat_where_it_should(self, rng):
        keys = np.zeros(64, dtype=np.int64)
        values = rng.random(64)
        _, seq = m.PLUS_MONOID.reduce_sequential(keys, values)
        _, pairwise = m.PLUS_MONOID.reduce_groups(keys, values, 10**9)
        assert seq[0] != pairwise[0]             # same sum, other rounding
        assert seq[0] == pytest.approx(pairwise[0], rel=1e-14)

    def test_lone_negative_zero_and_empty(self):
        _, got = m.PLUS_MONOID.reduce_sequential(np.array([3]),
                                                 np.array([-0.0]))
        assert not np.signbit(got[0])            # 0 + -0.0 = +0.0
        keys, vals = m.PLUS_MONOID.reduce_sequential(
            np.empty(0, np.int64), np.empty(0, np.float32))
        assert keys.size == 0 and vals.dtype == np.float32


class TestReduceRatioGuard:
    """In-process A/B guard on the one constant the reduce path has: the
    shipped ``reduce_groups`` against its own sorted fallback (the same
    call with a bound past the guard, which the sort ignores), timed by
    ``helpers.ab_ratio`` — only the ratio is asserted."""

    @staticmethod
    def _speedup(mono, m_, bound, reps, rng):
        keys = rng.integers(0, bound, m_).astype(np.int64)
        values = rng.random(m_)
        past_guard = SLACK * m_ + 1
        assert not mono.sort_free(values.dtype, m_, past_guard)
        return ab_ratio(lambda: mono.reduce_groups(keys, values, bound),
                        lambda: mono.reduce_groups(keys, values, past_guard),
                        reps)

    @pytest.mark.parametrize("name", ("min", "any"))
    def test_heavy_level_is_sort_free(self, name, rng):
        # a kron-medium SSSP/BFS level: measured 15-23x
        assert self._speedup(m.by_name(name), 50_000, 16_384, 3, rng) >= 3.0

    @pytest.mark.parametrize("name", ("min", "any"))
    def test_near_empty_level_holds_parity(self, name, rng):
        # 40 contributions over the 72x72 road grid's key range: past the
        # guard, so the sort runs and the guard's own check is all it costs
        assert self._speedup(m.by_name(name), 40, 5_184, 300, rng) >= 1 / 1.5

    @pytest.mark.parametrize("name", ("min", "any"))
    def test_guard_edge_is_no_cliff(self, name, rng):
        # the same 40 contributions over the widest key range the guard
        # admits: here the accumulator's fixed costs show (measured 0.75x
        # for min, 1.25x for any), and must stay within 2x of the sort
        assert self._speedup(m.by_name(name), 40, SLACK * 40, 300, rng) >= 0.5


class TestRegistry:
    def test_by_name(self):
        assert m.by_name("plus") is m.PLUS_MONOID
        assert m.by_name("any") is m.ANY_MONOID

    def test_unknown(self):
        with pytest.raises(KeyError):
            m.by_name("nope")
