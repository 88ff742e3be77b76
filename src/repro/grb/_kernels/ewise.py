"""Element-wise union / intersection merges over sorted sparse structures.

These implement the value semantics of ``eWiseAdd`` (union: the operator is
applied only where *both* operands have entries, otherwise the lone entry is
copied through) and ``eWiseMult`` (intersection) from the GraphBLAS spec.

The same kernels serve vectors (keys are indices) and matrices (keys are
linearised ``i * ncols + j`` coordinates) — callers linearise first.

Format-aware fast path: when both operands are bitmap-resident
(:mod:`repro.grb.storage.bitmap`), the ``*_merge_bitmap`` variants merge
the dense flag/value arrays directly — no sorted-key intersection — and
return the same sorted sparse result, value for value.  When only one side
is, or a sparse mask bounds the result, :func:`intersect_probe` walks the
small sorted side and looks the others up, so an intersection costs what
its smallest participant holds, not what the grid does.
"""

from __future__ import annotations

import numpy as np
from ...obs.profile import profiled

__all__ = ["union_merge", "intersect_merge", "setdiff_keys",
           "union_merge_bitmap", "intersect_merge_bitmap", "intersect_probe",
           "merge_objects"]


@profiled("intersect_merge")
def intersect_merge(keys_a, vals_a, keys_b, vals_b, op):
    """Apply ``op`` on the key intersection of two sorted sparse structures.

    Parameters
    ----------
    keys_a, keys_b:
        Sorted, unique int64 key arrays.
    vals_a, vals_b:
        Matching value arrays.
    op:
        Vectorised binary operator ``op(a_vals, b_vals)``.

    Returns ``(keys, values)`` with keys sorted ascending.
    """
    common, ia, ib = np.intersect1d(keys_a, keys_b, assume_unique=True,
                                    return_indices=True)
    if common.size == 0:
        dt = op(vals_a[:0], vals_b[:0]).dtype
        return common, np.empty(0, dtype=dt)
    return common, op(vals_a[ia], vals_b[ib])


@profiled("union_merge")
def union_merge(keys_a, vals_a, keys_b, vals_b, op):
    """eWiseAdd semantics: union of structures, ``op`` only on the overlap.

    Entries present in exactly one operand are copied through unchanged
    (cast to the output dtype).
    """
    common, ia, ib = np.intersect1d(keys_a, keys_b, assume_unique=True,
                                    return_indices=True)
    both = op(vals_a[ia], vals_b[ib]) if common.size else op(vals_a[:0], vals_b[:0])
    out_dt = np.result_type(both.dtype, vals_a.dtype, vals_b.dtype)

    only_a = np.ones(keys_a.size, dtype=bool)
    only_a[ia] = False
    only_b = np.ones(keys_b.size, dtype=bool)
    only_b[ib] = False

    keys = np.concatenate((common, keys_a[only_a], keys_b[only_b]))
    vals = np.concatenate((
        both.astype(out_dt, copy=False),
        vals_a[only_a].astype(out_dt, copy=False),
        vals_b[only_b].astype(out_dt, copy=False),
    ))
    order = np.argsort(keys, kind="stable")
    return keys[order], vals[order]


@profiled("intersect_merge_bitmap")
def intersect_merge_bitmap(present_a, dense_a, present_b, dense_b, op):
    """eWiseMult over two bitmap representations.

    Bit-identical to :func:`intersect_merge` on the equivalent sparse
    operands: same keys (sorted), same values (the op sees the same operand
    values element-wise), same dtype.
    """
    keys = np.flatnonzero(present_a & present_b).astype(np.int64)
    return keys, op(dense_a[keys], dense_b[keys])


def _probe(view, keys):
    """``(hit, values)``: which of the sorted ``keys`` one operand stores,
    and its values at those.

    ``view`` is the operand's ``(present, dense)`` pair over the grid
    (told by the bool flags) or its sorted ``(keys, values)`` pair."""
    first, second = view
    if first.dtype == np.bool_:
        hit = first[keys]
        return hit, second[keys[hit]]
    if first.size == 0:
        return np.zeros(keys.size, dtype=bool), second
    pos = np.minimum(np.searchsorted(first, keys), first.size - 1)
    hit = first[pos] == keys
    return hit, second[pos[hit]]


@profiled("intersect_probe")
def intersect_probe(keys, a, b, op):
    """eWiseMult restricted to the sorted candidate ``keys``.

    ``keys`` is any sorted unique superset of the wanted result — a sparse
    operand's own keys, or the allowed keys of the mask the result is
    about to be written through — and ``a`` / ``b`` are operand views as
    :func:`_probe` takes them.  Bit-identical to :func:`intersect_merge`
    restricted to ``keys``: the op sees the same operand values
    element-wise, at O(|keys|) flag gathers per bitmap operand and a
    binary search per sparse one.
    """
    hit, vals_a = _probe(a, keys)
    keys = keys[hit]
    hit, vals_b = _probe(b, keys)
    return keys[hit], op(vals_a[hit], vals_b)


@profiled("union_merge_bitmap")
def union_merge_bitmap(present_a, dense_a, present_b, dense_b, op):
    """eWiseAdd over two bitmap representations.

    The op runs only on the overlap; lone entries are copied through with
    the same dtype-promotion rule as :func:`union_merge`
    (``result_type(op-result, a, b)``).
    """
    both = present_a & present_b
    overlap = np.flatnonzero(both).astype(np.int64)
    applied = op(dense_a[overlap], dense_b[overlap])
    out_dt = np.result_type(applied.dtype, dense_a.dtype, dense_b.dtype)
    keys = np.flatnonzero(present_a | present_b).astype(np.int64)
    out = np.zeros(present_a.size, dtype=out_dt)
    only_a = present_a & ~both
    out[only_a] = dense_a[only_a].astype(out_dt, copy=False)
    only_b = present_b & ~both
    out[only_b] = dense_b[only_b].astype(out_dt, copy=False)
    out[overlap] = applied.astype(out_dt, copy=False)
    return keys, out[keys]


def merge_objects(a, b, op, *, union: bool):
    """Element-wise merge of two stored objects, picking the layout-best path.

    ``a``/``b`` are any objects speaking the mask protocol
    (``_mask_present_dense`` / ``_mask_keys_values`` — both ``Vector`` and
    ``Matrix``).  When both are bitmap-resident the dense merge runs;
    otherwise the sorted-key merge.  Returns ``(keys, values)`` either way
    — identical to the sparse reference by construction.
    """
    pa = a._mask_present_dense()
    pb = b._mask_present_dense() if pa is not None else None
    if pa is not None and pb is not None:
        fn = union_merge_bitmap if union else intersect_merge_bitmap
        return fn(pa[0], pa[1], pb[0], pb[1], op)
    ka, va = a._mask_keys_values()
    kb, vb = b._mask_keys_values()
    fn = union_merge if union else intersect_merge
    return fn(ka, va, kb, vb, op)


def setdiff_keys(keys_a, keys_b):
    """Boolean mask over ``keys_a`` marking entries *not* present in ``keys_b``.

    ``keys_b`` must be sorted unique int64; ``keys_a`` may be in any order
    and contain duplicates (each element is probed independently — the
    masked-mxm pre-reduce filter relies on this, so keep that property if
    this is ever rewritten as a merge).
    """
    if keys_b.size == 0:
        return np.ones(keys_a.size, dtype=bool)
    pos = np.searchsorted(keys_b, keys_a)
    pos = np.minimum(pos, keys_b.size - 1)
    return keys_b[pos] != keys_a
