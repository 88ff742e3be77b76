"""The tuple build (``C ↤ {i, j, x}``, ``w ↤ {i, x}``) and its duplicate fold.

``Matrix.from_coo`` / ``Vector.from_coo`` fold duplicate tuples one
duplicate *rank* at a time (``grb/_kernels/build.py``).  The contract is
the tuple-by-tuple left fold in input order: keys, value bytes and dtype
must equal :func:`helpers.oracle_build` for every registered
``BinaryOp`` — the non-commutative ones, floating ``plus`` over long runs
(where a pairwise sum would round differently), ``min`` over ±0.0 and NaN,
integer overflow and ``bool``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import oracle_build
from repro import grb
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


def _matrix_build(keys, vals, op):
    m = grb.Matrix.from_coo(keys // NCOLS, keys % NCOLS, vals, NROWS, NCOLS,
                            dup_op=op)
    r, c, v = m.to_coo()
    return r * NCOLS + c, v, m.type.dtype


def _vector_build(keys, vals, op):
    w = grb.Vector.from_coo(keys, vals, NROWS * NCOLS, dup_op=op)
    i, v = w.to_coo()
    return i, v, w.type.dtype


BUILDS = {"matrix": _matrix_build, "vector": _vector_build}


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
    _, got, _ = _vector_build(keys, vals, binary.PLUS)
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
