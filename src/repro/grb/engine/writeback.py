"""The write-back seam: every rule's result lands through here.

A rule's kernel yields raw ``(keys, values)``; :func:`finish` applies any
fused epilogues *before* the single masked write-back, so an
``apply``/``select`` riding on a multiply or merge never materialises an
intermediate object (unless :data:`~repro.grb.engine.cost.FUSION_ENABLED`
is off, in which case the chain decomposes into the seed sequence, which
is the bit-identity reference).  The write-back itself
(:func:`write_back`) lands in place where the output's store and the
transaction's shape allow, and rebuilds the store otherwise;
:func:`region_write` is the assign variant that touches one sub-range.

The mask-selection helpers live here too: the write-back's own resolution
of a mask, and the two ways a kernel applies the same selection early —
:func:`mask_live_rows` / :func:`mask_rows` (rows a product or gather can
skip) and :func:`mask_key_filter` (keys dropped before a reduce).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...obs import trace as _trace
from .. import cancel as _cancel
from .._kernels import apply_select as _selectops
from .._kernels.ewise import setdiff_keys
from .._kernels.maskwrite import delta_write, masked_write
from ..mask import Mask
from ..matrix import Matrix
from ..types import from_dtype
from ..vector import Vector
from . import cost
from .plan import Plan

__all__ = ["write_back", "region_write", "finish", "finish_like",
           "mask_rows", "mask_live_rows", "mask_key_filter"]


# ---------------------------------------------------------------------------
# mask selection
# ---------------------------------------------------------------------------

def _mask_selection(mask: Optional[Mask]):
    """(allowed_keys, allowed_present, complemented) for the write-back.

    Bitmap-resident mask objects resolve through their dense flag array
    (O(1) membership per key — the storage-layer fast path); everything
    else materialises the sorted allowed-key set.
    """
    if mask is None:
        return None, None, False
    present = mask.allowed_present()
    if present is not None:
        return None, present, mask.complemented
    return mask.allowed_keys(), None, mask.complemented


def mask_rows(mask: Optional[Mask], nrows: int) -> Optional[np.ndarray]:
    """Row set selected by a vector mask (pre-computation restriction)."""
    if mask is None:
        return None
    present = mask.allowed_present()
    if present is not None:       # bitmap-resident mask: flags are storage
        if mask.complemented:
            return np.flatnonzero(~present).astype(np.int64)
        return np.flatnonzero(present).astype(np.int64)
    allowed = mask.allowed_keys()
    if mask.complemented:
        present = np.zeros(nrows, dtype=bool)
        present[allowed] = True
        return np.flatnonzero(~present).astype(np.int64)
    return allowed


def mask_live_rows(mask: Optional[Mask], nrows: int,
                   ncols: int) -> Optional[np.ndarray]:
    """Output rows a masked write can still touch (``None`` = all of them).

    Non-complemented masks: rows holding at least one allowed mask entry.
    Complemented masks: rows whose mask row is not yet *full* (a full row
    blocks every position — BC's ``⟨¬s(P)⟩`` once a source has reached the
    whole graph).  Dead rows are sliced off before the product is computed.
    """
    if mask is None:
        return None
    present = mask.allowed_present()
    if present is not None:
        counts = present.reshape(nrows, ncols).sum(axis=1)
    elif mask.structural and getattr(mask.obj, "nrows", None) == nrows:
        # structural matrix mask: per-row allowed counts are just the
        # stored-entry counts — O(nrows), no key materialisation
        counts = np.diff(mask.obj.indptr)
    else:
        allowed = mask.allowed_keys()
        counts = np.bincount(allowed // np.int64(ncols), minlength=nrows)
    live = (counts < ncols) if mask.complemented else (counts > 0)
    n_live = int(np.count_nonzero(live))
    if n_live > cost.LIVE_ROW_FRACTION * nrows:
        # pruning a sliver of rows costs more (operand slicing) than it saves
        return None
    return np.flatnonzero(live).astype(np.int64)


def mask_key_filter(mask: Optional[Mask]):
    """``keys -> keep`` predicate matching the write-back's mask selection.

    Applied by the expand kernel *before* its group-reduce so contributions
    the mask would discard never pay the sort.  Bitmap-resident masks
    resolve with O(1) flag gathers; everything else searches the sorted
    allowed-key set (the same machinery :func:`masked_write` uses, so the
    selection is identical by construction).
    """
    if mask is None:
        return None
    present = mask.allowed_present()
    if present is not None:
        if mask.complemented:
            return lambda keys: ~present[keys]
        return lambda keys: present[keys]
    allowed = mask.allowed_keys()
    if mask.complemented:
        return lambda keys: setdiff_keys(keys, allowed)
    return lambda keys: ~setdiff_keys(keys, allowed)


# ---------------------------------------------------------------------------
# the spec transaction, shared by every rule
# ---------------------------------------------------------------------------

def write_back(out, t_keys, t_vals, mask: Optional[Mask], accum,
               replace: bool):
    """The spec write-back ``out⟨mask⟩ ⊙= T`` — the one every rule, fused
    pass and façade helper shares; one ``write`` span per transaction."""
    allowed, present, complemented = _mask_selection(mask)
    return _transact(out, t_keys, t_vals, allowed, present, complemented,
                     accum, replace)


def _transact(out, t_keys, t_vals, allowed, present, complemented: bool,
              accum, replace: bool):
    """:func:`write_back` with the mask already resolved to its selection.

    Two ways to land the same content.  A transaction that can only touch
    entries it names — an accumulator without ``replace`` (``Z ⊇ C``), or
    a plain assignment through a non-complemented mask without ``replace``
    — into an output whose bitmap store may be written in place
    (:meth:`~repro.grb.storage.bitmap.BitmapStore.writable`) scatters just
    those entries (``delta=True`` on the span).  Everything else computes
    the output's whole new content and rebuilds its store, reading the
    old content only when it can reach the result.
    """
    is_vector = isinstance(out, Vector)
    masked = allowed is not None or present is not None
    # asked of every transaction, whatever its shape: looking at the store
    # is the output's read boundary, where staged setElement calls land —
    # before this write, never on top of it
    st = out._writable_bitmap()
    if replace or (accum is None and (complemented or not masked)):
        st = None
    with _trace.span("write", cat="write", delta=st is not None,
                     target="vector" if is_vector else "matrix"):
        if st is not None:
            delta_write(t_keys, t_vals, store=st, accum=accum,
                        allowed_keys=allowed, allowed_present=present,
                        complement=complemented)
            out._wrote_in_place()
            return out
        if accum is None and (replace or not masked):
            c_keys, c_vals = t_keys[:0], t_vals[:0]   # old content is dead
        else:
            c_keys, c_vals = out._mask_keys_values()
        keys, vals = masked_write(
            c_keys, c_vals, t_keys, t_vals,
            accum=accum, allowed_keys=allowed, allowed_present=present,
            complement=complemented, replace=replace,
            out_dtype=out.type.dtype,
        )
        if is_vector:
            out._set_sparse(keys, vals)
        else:
            out._set_from_keys(keys, vals)
        return out


def region_write(out, region_keys, t_keys, t_vals, mask: Optional[Mask],
                 accum, replace: bool):
    """Write ``T`` into the sub-range ``region_keys`` of ``out``.

    Assign semantics: inside the region (∩ mask) the output becomes exactly
    ``Z``; positions outside the region are never touched.  The effective
    allowed set is the region intersected with the (possibly complemented)
    mask, after which the write-back runs un-complemented.  With
    ``replace=True`` entries inside the region but outside the mask are
    cleared (subassign-style replace).
    """
    if mask is None:
        allowed = region_keys
    else:
        m_allowed = mask.allowed_keys()
        if mask.complemented:
            keep = ~np.isin(region_keys, m_allowed, assume_unique=False)
        else:
            keep = np.isin(region_keys, m_allowed, assume_unique=False)
        allowed = region_keys[keep]
        if replace:
            # subassign replace: clear region entries the mask rejects
            _transact(out, np.empty(0, np.int64),
                      np.empty(0, out.type.dtype), region_keys[~keep],
                      None, False, None, False)
    return _transact(out, t_keys, t_vals, allowed, None, False, accum, False)


# ---------------------------------------------------------------------------
# epilogues, then the write
# ---------------------------------------------------------------------------

def _epilogue_arrays(ep, keys, vals, is_vector: bool, ncols: int,
                     nrows: Optional[int] = None):
    """Run one epilogue directly on raw output arrays (the fused path).

    ``nrows`` — the row count of the product the arrays describe (a
    vector's size) — is the key bound a ``reduce_rowwise`` needs."""
    if ep.kind == "reduce_rowwise":
        rows = keys if is_vector else keys // np.int64(ncols)
        return ep.op.reduce_groups(rows, vals, nrows)
    if ep.kind == "reduce_scalar":
        return ep.op.reduce_all(np.abs(vals) if ep.absolute else vals)

    def rows():
        return keys if is_vector else keys // np.int64(ncols)

    def cols():
        return (np.zeros(keys.size, dtype=np.int64) if is_vector
                else keys % np.int64(ncols))

    if ep.kind == "apply":
        return keys, _selectops.eval_unary(ep.op, vals, ep.thunk, rows, cols)
    if ep.kind == "select":
        keep = _selectops.eval_select(ep.op, vals, ep.thunk, rows, cols)
        return keys[keep], vals[keep]
    raise ValueError(f"unknown epilogue kind {ep.kind!r}")


def _epilogue_materialised(ep, keys, vals, is_vector: bool, size,
                           nrows, ncols):
    """Run one epilogue through a materialised intermediate (fusion off).

    This replays the seed sequence exactly — build the object, call its
    method, re-extract the arrays — and is the bit-identity reference the
    fused path is tested against (and the slow arm of the fusion ratio
    guard).
    """
    if is_vector:
        obj = Vector(from_dtype(vals.dtype), size)
        obj._set_sparse(keys, vals)
    else:
        obj = Matrix(from_dtype(vals.dtype), nrows, ncols)
        obj._set_from_keys(keys, vals)
    if ep.kind == "apply":
        t = obj.apply(ep.op, ep.thunk)
    elif ep.kind == "select":
        t = obj.select(ep.op, ep.thunk)
    elif ep.kind == "reduce_rowwise":
        t = obj.reduce_rowwise(ep.op)
        return t._idx, t._vals
    elif ep.kind == "reduce_scalar":
        v = obj._vals if is_vector else obj.values
        return ep.op.reduce_all(np.abs(v) if ep.absolute else v)
    else:
        raise ValueError(f"unknown epilogue kind {ep.kind!r}")
    if is_vector:
        return t._idx, t._vals
    return t.keys(), t.values


def finish(plan: Plan, keys, vals, *, is_vector: bool, size=None,
           nrows=None, ncols=None):
    """Apply fused epilogues, then resolve the plan's output contract.

    ``out=None`` plans yield raw ``(keys, values)`` (or the scalar of a
    ``reduce_scalar`` chain); otherwise the single masked write-back runs
    on the post-epilogue arrays.  The plan's mask/accum/replace describe
    that *final* write — with no output object, a mask instead restricts
    the computed result itself (``T⟨M⟩``), applied before any epilogue
    consumes it, so ``plan_mxm(None, A, A, sr, mask=...)`` yields exactly
    the entries a masked write into an empty output would keep.
    """
    # cancellation checkpoint between a kernel's compute pass and its
    # epilogue/write-back: with a deadline already blown, skip the
    # masked-write work too (one ContextVar read when no scope is active)
    _cancel.checkpoint()
    if (plan.out is None and plan.mask is not None
            and not plan.meta.get("_premasked")):
        # fallback-kernel output can carry non-mask entries; the dot rule's
        # cannot (it computes per mask entry) and marks itself _premasked
        allowed, present, complemented = _mask_selection(plan.mask)
        keys, vals = masked_write(
            np.empty(0, np.int64), np.empty(0, vals.dtype), keys, vals,
            accum=None, allowed_keys=allowed, allowed_present=present,
            complement=complemented, replace=True, out_dtype=vals.dtype)
    fused = cost.FUSION_ENABLED
    for i, ep in enumerate(plan.epilogues):
        with _trace.span("epilogue:" + ep.kind, cat="epilogue",
                         fused=fused):
            if ep.kind == "reduce_rowwise":
                # the chain becomes a vector of per-row values
                if fused:
                    keys, vals = _epilogue_arrays(
                        ep, keys, vals, is_vector, ncols,
                        size if is_vector else nrows)
                else:
                    keys, vals = _epilogue_materialised(
                        ep, keys, vals, is_vector, size, nrows, ncols)
                is_vector, size = True, nrows
                continue
            if ep.kind == "reduce_scalar":
                if fused:
                    return _epilogue_arrays(ep, keys, vals, is_vector, ncols)
                return _epilogue_materialised(ep, keys, vals, is_vector,
                                              size, nrows, ncols)
            if fused:
                keys, vals = _epilogue_arrays(ep, keys, vals, is_vector,
                                              ncols)
            else:
                keys, vals = _epilogue_materialised(ep, keys, vals,
                                                    is_vector, size, nrows,
                                                    ncols)
    if plan.out is None:
        return keys, vals
    return write_back(plan.out, keys, vals, plan.mask, plan.accum,
                      plan.replace)


def finish_like(plan: Plan, like, keys, vals):
    """:func:`finish` for a result shaped like the object ``like`` (an
    entry-wise op's first operand)."""
    if isinstance(like, Vector):
        return finish(plan, keys, vals, is_vector=True, size=like.size)
    return finish(plan, keys, vals, is_vector=False,
                  nrows=like.nrows, ncols=like.ncols)
