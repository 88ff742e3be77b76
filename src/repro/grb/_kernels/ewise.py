"""Element-wise union / intersection merges over sorted sparse structures.

These implement the value semantics of ``eWiseAdd`` (union: the operator is
applied only where *both* operands have entries, otherwise the lone entry is
copied through) and ``eWiseMult`` (intersection) from the GraphBLAS spec.

The array kernels serve vectors (keys are indices) and matrices (keys are
linearised ``i * ncols + j`` coordinates) — callers linearise first.
:func:`union` and :func:`intersect` take the stored objects themselves and
pick the method from their formats; the engine's ``ewise-union`` /
``ewise-intersect`` rules (:mod:`repro.grb.engine.entrywise`) and the
``Vector`` / ``Matrix`` ``ewise_add`` / ``ewise_mult`` methods all call
them:

* a union of two bitmap-resident operands merges their dense flag/value
  arrays (:func:`union_merge_bitmap`), any other pair their sorted keys
  (:func:`union_merge`) — the same sorted result, value for value;
* an intersection walks its smallest sorted participant — an operand, or
  the allowed keys of a non-complemented sparse mask the result is about
  to be written through (:func:`intersect_walk`) — and probes the other
  operands, so it costs what that participant holds, not what the grid
  does.  Only when every participant is bitmap-resident does it AND the
  flag arrays.
"""

from __future__ import annotations

import numpy as np
from ...obs.profile import profiled

__all__ = ["union", "union_merge", "union_merge_bitmap", "intersect",
           "intersect_walk", "setdiff_keys"]


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


def union(a, b, op):
    """eWiseAdd of two stored objects (``Vector`` or ``Matrix``, read
    through the mask protocol ``_mask_present_dense`` /
    ``_mask_keys_values``): the dense merge when both are bitmap-resident,
    the sorted-key merge otherwise.  Returns ``(keys, values)``."""
    pa = a._mask_present_dense()
    pb = b._mask_present_dense() if pa is not None else None
    if pb is not None:
        return union_merge_bitmap(pa[0], pa[1], pb[0], pb[1], op)
    ka, va = a._mask_keys_values()
    kb, vb = b._mask_keys_values()
    return union_merge(ka, va, kb, vb, op)


def intersect_walk(a, b, mask=None):
    """What an intersection of ``a`` and ``b`` walks: ``None`` when every
    participant is bitmap-resident, else ``(driver, keys)`` — the smallest
    sorted participant (``"operand"``, or ``"mask"`` for a
    non-complemented mask the result is only ever seen through) and a
    zero-arg callable returning its sorted keys.  Ties go to ``a``, then
    ``b``, then the mask."""
    sides = [(x.nvals, "operand", x) for x in (a, b) if x.format != "bitmap"]
    if (mask is not None and not mask.complemented
            and mask.obj.format != "bitmap"):
        sides.append((mask.obj.nvals, "mask", mask))
    if not sides:
        return None
    _, driver, side = min(sides, key=lambda s: s[0])
    if driver == "mask":
        return driver, side.allowed_keys
    return driver, lambda: side._mask_keys_values()[0]


def _probe(obj, keys):
    """``(hit, values)``: which of the sorted ``keys`` one stored object
    holds, and its values at those — a flag gather when it is
    bitmap-resident, a binary search of its sorted keys otherwise."""
    pd = obj._mask_present_dense()
    if pd is not None:
        hit = pd[0][keys]
        return hit, pd[1][keys[hit]]
    first, second = obj._mask_keys_values()
    if first.size == 0:
        return np.zeros(keys.size, dtype=bool), second
    pos = np.minimum(np.searchsorted(first, keys), first.size - 1)
    hit = first[pos] == keys
    return hit, second[pos[hit]]


@profiled("intersect")
def intersect(a, b, op, walk):
    """eWiseMult of two stored objects along :func:`intersect_walk`'s
    ``walk``; returns ``(keys, values)`` with keys sorted ascending.

    With ``walk=None`` both are bitmap-resident and the result is the AND
    of their flags.  Otherwise the walked keys — a sorted unique superset
    of the wanted result — are probed in ``a``, the survivors in ``b``,
    and ``op`` sees the two operands' values at the common keys
    element-wise, whichever way they were found: every walk gives the
    same values at the same keys (restricted to the mask's keys, for a
    mask walk).
    """
    if walk is None:
        present_a, dense_a = a._mask_present_dense()
        present_b, dense_b = b._mask_present_dense()
        keys = np.flatnonzero(present_a & present_b).astype(np.int64)
        return keys, op(dense_a[keys], dense_b[keys])
    keys = walk[1]()
    hit, vals_a = _probe(a, keys)
    keys = keys[hit]
    hit, vals_b = _probe(b, keys)
    return keys[hit], op(vals_a[hit], vals_b)


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
