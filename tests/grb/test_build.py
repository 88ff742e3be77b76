"""The tuple build (``C ↤ {i, j, x}``, ``w ↤ {i, x}``) and its duplicate fold.

``Matrix.from_coo`` / ``Vector.from_coo`` fold duplicate tuples one
duplicate *rank* at a time (``grb/_kernels/build.py``).  The contract is
the tuple-by-tuple left fold in input order: keys, value bytes and dtype
must equal :func:`helpers.oracle_build` for every registered
``BinaryOp`` — the non-commutative ones, floating ``plus`` over long runs
(where a pairwise sum would round differently), ``min`` over ±0.0 and NaN,
integer overflow and ``bool``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import oracle_build
from repro import grb
from repro.grb._kernels.build import stable_order
from repro.grb.ops import binary
from repro.grb.ops.binary import BinaryOp

#: every built-in operator, as the binary-op registry lists them
OPS = [getattr(binary, name) for name in binary.__all__
       if isinstance(getattr(binary, name), BinaryOp)]

DTYPES = [np.bool_, np.int8, np.uint8, np.int64, np.float32, np.float64]

NROWS, NCOLS = 2, 3        # six matrix keys: long runs at a few dozen tuples


def _elements(dtype):
    dt = np.dtype(dtype)
    if dt == np.bool_:
        return st.booleans()
    if dt.kind in "iu":
        info = np.iinfo(dt)
        return st.integers(int(info.min), int(info.max))
    specials = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e16])
    return st.one_of(specials, st.floats(width=dt.itemsize * 8))


@st.composite
def tuples(draw, nkeys):
    """``(keys, values)`` over ``nkeys`` keys, in random input order."""
    dtype = draw(st.sampled_from(DTYPES))
    n = draw(st.integers(0, 40))
    keys = draw(st.lists(st.integers(0, nkeys - 1), min_size=n, max_size=n))
    vals = draw(st.lists(_elements(dtype), min_size=n, max_size=n))
    return (np.array(keys, dtype=np.int64),
            np.array(vals, dtype=dtype))


def _shaped_builds(nrows, ncols):
    """Builds of linear keys as an ``nrows × ncols`` matrix and as a vector
    of ``nrows * ncols``; each returns ``(keys, values, dtype)``."""
    def matrix(keys, vals, op):
        m = grb.Matrix.from_coo(keys // ncols, keys % ncols, vals, nrows,
                                ncols, dup_op=op)
        r, c, v = m.to_coo()
        return r * np.int64(ncols) + c, v, m.type.dtype

    def vector(keys, vals, op):
        w = grb.Vector.from_coo(keys, vals, nrows * ncols, dup_op=op)
        i, v = w.to_coo()
        return i, v, w.type.dtype
    return {"matrix": matrix, "vector": vector}


BUILDS = _shaped_builds(NROWS, NCOLS)


def _assert_matches_oracle(build, keys, vals, op):
    try:
        want_keys, want_vals = oracle_build(keys, vals, vals.dtype, op)
    except Exception as exc:      # e.g. numpy refusing bool subtract
        with pytest.raises(type(exc)):
            build(keys, vals, op)
        return
    with np.errstate(all="ignore"):
        got_keys, got_vals, dtype = build(keys, vals, op)
    np.testing.assert_array_equal(got_keys, want_keys)
    assert dtype == want_vals.dtype == got_vals.dtype
    assert got_vals.tobytes() == want_vals.tobytes()


@pytest.mark.parametrize("kind", sorted(BUILDS))
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
@given(data=tuples(NROWS * NCOLS))
def test_fold_matches_tuple_by_tuple_oracle(kind, op, data):
    keys, vals = data
    _assert_matches_oracle(BUILDS[kind], keys, vals, op)


def _interleave(runs):
    """Tuples of several runs, dealt round-robin (no run is contiguous)."""
    keys, vals = [], []
    longest = max(len(v) for v in runs.values())
    for t in range(longest):
        for k, v in runs.items():
            if t < len(v):
                keys.append(k)
                vals.append(v[t])
    return np.array(keys, dtype=np.int64), np.array(vals)


_rng = np.random.default_rng(7)
_ORDERED = _interleave({1: [10.0, 3.0, 2.0, 1.0], 2: [1.0, 2.0]})
EDGE_CASES = {
    # magnitudes spread over 30 decades: a pairwise sum rounds differently
    "plus-float-long-runs": (binary.PLUS, _interleave({
        0: list(_rng.standard_normal(17) * 10.0 ** _rng.integers(-15, 15, 17)),
        4: [1e16] + [1.0] * 9 + [-1e16],
        5: [0.1] * 8})),
    "min-signed-zero-nan": (binary.MIN, _interleave({
        0: [0.0, -0.0, 0.0], 1: [-0.0, 0.0], 2: [np.nan, 1.0, -0.0],
        3: [1.0, np.nan, 2.0]})),
    "minus-order": (binary.MINUS, _ORDERED),
    "rminus-order": (binary.RMINUS, _ORDERED),
    "int8-plus-overflow": (binary.PLUS, _interleave({
        0: np.array([100, 100, 100, -128], dtype=np.int8),
        3: np.array([-128, -1, 127], dtype=np.int8)})),
    "bool-lor": (binary.LOR, _interleave({
        0: [False, False, True, False], 5: [False, False]})),
}


@pytest.mark.parametrize("kind", sorted(BUILDS))
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_fold_edge_cases(kind, case):
    op, (keys, vals) = EDGE_CASES[case]
    _assert_matches_oracle(BUILDS[kind], keys, vals, op)


def test_plus_fold_is_not_a_pairwise_sum():
    """The long float run really separates a left fold from ``reduceat``."""
    keys, vals = EDGE_CASES["plus-float-long-runs"][1]
    _, got, _ = BUILDS["vector"](keys, vals, binary.PLUS)
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(keys[order]) != 0])
    pairwise = np.add.reduceat(vals[order], starts)
    assert got.tobytes() != pairwise.tobytes()


@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_duplicates_without_dup_op_raise(kind):
    keys, vals = np.array([3, 1, 3]), np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="without dup_op"):
        BUILDS[kind](keys, vals, None)
    got_keys, got_vals, _ = BUILDS[kind](keys[1:], vals[1:], None)
    np.testing.assert_array_equal(got_keys, [1, 3])
    np.testing.assert_array_equal(got_vals, [2.0, 3.0])


# ---------------------------------------------------------------------------
# the three routes of ``stable_order``: ordered, tagged, fallback
# ---------------------------------------------------------------------------

def _route(keys, bound):
    """Which route ``stable_order(keys, bound)`` takes, read by a spy on
    ``np.argsort`` (only the fallback calls it)."""
    with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
        order, _ = stable_order(keys, bound)
    if order is None:
        return "ordered"
    return "fallback" if spy.called else "tagged"


#: matrix shapes per route; a vector is built over ``nrows * ncols`` keys
SHAPES = {
    "ordered": (NROWS, NCOLS),
    "tagged": (1 << 10, 1 << 10),
    # 57 key bits + 9 position bits: the tags do not fit in 63
    "fallback": (1 << 12, 1 << 45),
}


def _route_tuples(route, dtype):
    """Linear keys and values that take ``route`` at ``SHAPES[route]``:
    duplicate runs of up to a dozen tuples, interleaved."""
    rng = np.random.default_rng(11)
    nrows, ncols = SHAPES[route]
    if route == "ordered":       # equal neighbours, no key below its left
        keys = np.repeat(np.arange(6, dtype=np.int64), [3, 1, 0, 5, 2, 4])
    else:
        distinct = rng.choice(nrows, 40, replace=False) * np.int64(ncols) \
            + rng.integers(0, ncols, 40)
        keys = rng.permutation(np.repeat(distinct, rng.integers(1, 13, 40)))
    vals = rng.integers(-100, 100, keys.size).astype(dtype)
    if vals.dtype.kind == "f":
        vals *= 10.0 ** rng.integers(-12, 12, keys.size)
    return keys, vals


ROUTE_CASES = [("ordered", "matrix"), ("ordered", "vector"),
               ("tagged", "matrix"), ("tagged", "vector"),
               ("fallback", "matrix")]


@pytest.mark.parametrize("dtype", [np.float64, np.int8])
@pytest.mark.parametrize("route,kind", ROUTE_CASES)
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_each_route_matches_oracle(route, kind, op, dtype):
    nrows, ncols = SHAPES[route]
    keys, vals = _route_tuples(route, dtype)
    assert _route(keys, nrows * ncols) == route
    _assert_matches_oracle(_shaped_builds(nrows, ncols)[kind], keys, vals, op)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("route,kind", ROUTE_CASES)
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_zero_and_one_tuples(route, kind, op, n):
    nrows, ncols = SHAPES[route]
    keys = np.array([nrows * ncols - 1] * n, dtype=np.int64)
    vals = np.array([-0.5] * n)
    assert _route(keys, nrows * ncols) == "ordered"
    _assert_matches_oracle(_shaped_builds(nrows, ncols)[kind], keys, vals, op)


@st.composite
def wide_tuples(draw):
    """Tuples over a handful of keys drawn from a 2**20 key space."""
    distinct = draw(st.lists(st.integers(0, (1 << 20) - 1), min_size=1,
                             max_size=8, unique=True))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=60))
    vals = draw(st.lists(_elements(np.float64), min_size=len(picks),
                         max_size=len(picks)))
    return (np.array(distinct, dtype=np.int64)[picks].reshape(-1),
            np.array(vals, dtype=np.float64))


@pytest.mark.parametrize("kind", sorted(BUILDS))
@pytest.mark.parametrize("op", [binary.PLUS, binary.MINUS, binary.MIN,
                                binary.FIRST], ids=lambda op: op.name)
@given(data=wide_tuples())
def test_wide_key_space_matches_oracle(kind, op, data):
    keys, vals = data
    _assert_matches_oracle(_shaped_builds(1 << 10, 1 << 10)[kind], keys,
                           vals, op)


@given(keys=st.lists(st.integers(0, (1 << 40) - 1), max_size=200),
       bound_bits=st.sampled_from([40, 56, 62, 63]))
def test_stable_order_is_stable_argsort(keys, bound_bits):
    keys = np.array(keys, dtype=np.int64)
    order, sk = stable_order(keys, 1 << bound_bits)
    want = np.argsort(keys, kind="stable")
    if order is None:
        np.testing.assert_array_equal(want, np.arange(keys.size))
        assert sk is keys
    else:
        np.testing.assert_array_equal(order, want)
        np.testing.assert_array_equal(sk, keys[want])


# ---------------------------------------------------------------------------
# ownership: the ordered route gathers nothing, so it must copy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dup", [False, True])
def test_built_objects_own_their_arrays(dup):
    """A build from sorted caller arrays (the route that skips the sort
    and the gather) does not alias them: mutating them afterwards leaves
    the built ``Vector`` and ``Matrix`` unchanged."""
    idx = np.array([0, 2, 2, 5] if dup else [0, 2, 5, 7], dtype=np.int64)
    rows = np.zeros(4, dtype=np.int64)
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    w = grb.Vector.from_coo(idx, vals, 8, dup_op=binary.PLUS)
    m = grb.Matrix.from_coo(rows, idx, vals, 1, 8, dup_op=binary.PLUS)
    want_w, want_m = w.to_coo(), m.to_coo()
    idx[:] = [7, 6, 4, 3]
    rows[:] = 1
    vals[:] = -1.0
    for got, want in zip(w.to_coo(), want_w):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(m.to_coo(), want_m):
        np.testing.assert_array_equal(got, want)
