"""Execution strategies: the rules behind every plan, and their kernels' glue.

This module is where the scattered pre-engine dispatch logic of
``operations.py`` now lives, reorganised as registered planner rules:

* ``mxm`` — ``mxm-small-expand`` (a plus.times-reducible product of at
  most ``ncols(B)`` flops, on the expansion kernel in its SciPy-replay
  mode: below that the compiled kernel's per-call set-up is the cost),
  ``mxm-masked-dot`` (the dot3 masked-SpGEMM kernel, claimed via
  the unified chooser in :mod:`repro.grb.engine.cost`), ``mxm-scipy``
  (compiled plus.times-reducible path, mask-restricted to live rows) and
  ``mxm-expand`` (the always-applicable flop-expansion reference).
* ``mxv`` / ``vxm`` — ``mxv-fused-dense-accum`` (a plain-``plus``
  accumulate into a full output, on SciPy's dense product), then the
  gather/push reference, which replays SciPy's summation order for
  plus.times-reducible semirings — one answer at any frontier density.
* ``ewise_add`` / ``ewise_mult`` — bitmap-layout dense merge when both
  operands are bitmap-resident, sorted-key merge otherwise (the format
  fast path that used to hide inside ``merge_objects``); ``ewise_mult``
  first tries ``ewise-probe``, which walks the smallest sorted
  participant and looks the bitmap ones up.
* ``apply`` / ``select`` — entry-wise evaluation directly on the source's
  arrays (value-only selects never expand coordinates — the
  ``apply_select`` fast path, now a visible rule).
* ``assign`` / ``assign_scalar`` — the spec's sub-range write transaction.

Every rule funnels its kernel's raw ``(keys, values)`` result through
:func:`finish`, which applies any fused epilogues *before* the single
masked write-back — an ``apply``/``select`` riding on a multiply or merge
never materialises an intermediate object (unless
:data:`~repro.grb.engine.cost.FUSION_ENABLED` is off, in which case the
chain decomposes into the seed sequence, which is the bit-identity
reference).  The write-back itself (:func:`write_back`) lands in place
where the output's store and the transaction's shape allow, and rebuilds
the store otherwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ...obs import profile as _profile
from ...obs import trace as _trace
from .. import cancel as _cancel
from .._kernels import apply_select as _selectops
from .._kernels import masked_matmul as _mm
from .._kernels.ewise import (
    intersect_merge,
    intersect_merge_bitmap,
    intersect_probe,
    setdiff_keys,
    union_merge,
    union_merge_bitmap,
)
from .._kernels.gather import csr_row_lengths, expand_rows
from .._kernels.maskwrite import delta_write, masked_write
from .._kernels.matmul import mxm_expand, mxv_gather, vxm_sparse
from ..mask import Mask
from ..matrix import Matrix
from ..ops.semiring import Semiring
from ..types import from_dtype
from ..vector import Vector
from . import cost
from .plan import Plan
from .rules import register

__all__ = ["write_back", "finish", "scipy_mxm", "mask_live_rows",
           "mask_key_filter"]

# SciPy keeps explicit zeros produced by cancellation in sparse matmul; probe
# once so the fast path knows whether structure needs a separate pattern
# product.
_probe = sp.csr_matrix(np.array([[1.0, -1.0]])) @ sp.csr_matrix(np.array([[1.0], [1.0]]))
_SCIPY_KEEPS_ZEROS = _probe.nnz == 1
del _probe


# ---------------------------------------------------------------------------
# write-back helpers (the spec transaction, shared by every rule)
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


# ---------------------------------------------------------------------------
# epilogue application
# ---------------------------------------------------------------------------

def _epilogue_arrays(ep, keys, vals, is_vector: bool, ncols: int,
                     nrows: Optional[int] = None):
    """Run one epilogue directly on raw output arrays (the fused path).

    ``nrows`` — the row count of the product the arrays describe (a
    vector's size) — is the key bound a ``reduce_rowwise`` needs."""
    if ep.kind == "apply":
        out = _selectops.eval_unary(
            ep.op, vals, ep.thunk,
            rows=lambda: keys if is_vector else keys // np.int64(ncols),
            cols=lambda: (np.zeros(keys.size, dtype=np.int64) if is_vector
                          else keys % np.int64(ncols)))
        return keys, out
    if ep.kind == "select":
        op = ep.op
        if not op.uses_coords:
            keep = op(vals, None, None, ep.thunk)
        elif is_vector:
            keep = op(vals, keys, np.zeros(keys.size, dtype=np.int64),
                      ep.thunk)
        elif getattr(op, "keyed", False):
            # keyed predicate: consumes the linearised keys as-is, no
            # div/mod coordinate round-trip
            keep = op(vals, keys, None, ep.thunk)
        else:
            keep = op(vals, keys // np.int64(ncols), keys % np.int64(ncols),
                      ep.thunk)
        return keys[keep], vals[keep]
    if ep.kind == "reduce_rowwise":
        rows = keys if is_vector else keys // np.int64(ncols)
        return ep.op.reduce_groups(rows, vals, nrows)
    if ep.kind == "reduce_scalar":
        return ep.op.reduce_all(np.abs(vals) if ep.absolute else vals)
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


# ---------------------------------------------------------------------------
# matmul fast-path helpers
# ---------------------------------------------------------------------------

def _scipy_operand(m: Matrix, use_values: bool, dtype):
    """SciPy CSR of ``m`` with values (cast) or the all-ones pattern.

    Pattern operands come from the per-store-version cache
    (:meth:`Matrix.pattern_operand`) instead of being rebuilt per call.
    Both views are cached CSR: SciPy's spmatmul converts non-CSR operands
    internally *per call*, so feeding a CSC-pinned operand "natively" here
    would re-pay that conversion every multiply — the cached canonical view
    pays it once.  (CSC-pinned operands do feed the dot kernel natively:
    its ``Bᵀ`` input is ``transpose_csr()``, free on a CSC store.)
    """
    if use_values:
        s = m.to_scipy()
        return s.astype(dtype, copy=False) if s.dtype != dtype else s
    return m.pattern_operand(dtype)


def _mult_uses(semiring: Semiring):
    """Which operands' values the multiply op reads: (use_a, use_b)."""
    name = semiring.mult.name
    return name in ("times", "first"), name in ("times", "second")


def _scipy_dtype(a: Matrix, b, semiring: Semiring) -> np.dtype:
    """The computation dtype of the SciPy fast path for these operands."""
    if semiring.mult.name == "pair":
        return np.dtype(np.int64)
    dt = semiring.mult_dtype(a.dtype, b.dtype)
    return np.dtype(np.int64) if dt == np.bool_ else np.dtype(dt)


def scipy_mxm(a: Matrix, b: Matrix, semiring: Semiring,
              rows: Optional[np.ndarray] = None):
    """plus.times-reducible ``C = A ⊕.⊗ B`` on SciPy; returns (keys, vals).

    ``rows`` restricts the product to a subset of A's rows (the mask-live
    rows — dead rows can never survive the write-back, so they are sliced
    off *before* the ``@``).  The per-(i,j) accumulation order is k-
    ascending either way, so restricted and full products are bit-identical
    on the surviving rows.
    """
    use_a, use_b = _mult_uses(semiring)
    dt = _scipy_dtype(a, b, semiring)
    sa = _scipy_operand(a, use_a, dt)
    if rows is not None:
        sa = sa[rows]
    prod = sa @ _scipy_operand(b, use_b, dt)
    prod = prod.tocsr()
    prod.sort_indices()
    prow = expand_rows(prod.indptr.astype(np.int64), prod.shape[0])
    row_ids = rows[prow] if rows is not None else prow
    keys = row_ids * np.int64(prod.shape[1]) + prod.indices.astype(np.int64)
    vals = prod.data
    if (not _SCIPY_KEEPS_ZEROS and (use_a or use_b)
            and not ((not use_a or a.values_all_ge_one())
                     and (not use_b or b.values_all_ge_one()))):
        # structure must come from a cancellation-proof pattern product;
        # skipped when every value-carrying operand is float with values
        # ≥ 1 (such products/sums stay ≥ 1 — no underflow-to-zero, no
        # integer wrap — so SciPy can never have pruned an entry)
        pa = _scipy_operand(a, False, np.int64)
        if rows is not None:
            pa = pa[rows]
        pat = (pa @ _scipy_operand(b, False, np.int64)).tocsr()
        pat.sort_indices()
        prow = expand_rows(pat.indptr.astype(np.int64), pat.shape[0])
        prow_ids = rows[prow] if rows is not None else prow
        pkeys = prow_ids * np.int64(pat.shape[1]) + pat.indices.astype(np.int64)
        out = np.zeros(pkeys.size, dtype=vals.dtype)
        pos = np.searchsorted(pkeys, keys)
        out[pos] = vals
        return pkeys, out
    return keys, vals


def _mask_rows(mask: Optional[Mask], nrows: int) -> Optional[np.ndarray]:
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
# mxm rules
# ---------------------------------------------------------------------------

def _mask_engaged(plan: Plan) -> bool:
    """Whether the masked engine analyses this product at all (tiny
    products are cheaper to compute in full than to analyse)."""
    a, b = plan.args
    return (plan.mask is not None
            and a.nvals + b.nvals >= cost.MASKED_MIN_NNZ)


def _col_lengths(m: Matrix) -> np.ndarray:
    """Stored-entry count per column — conversion-free on every format.

    CSC-pinned stores (and CSR stores whose transpose is already cached —
    e.g. after :func:`repro.grb.engine.preplan`) read column pointers
    directly, an O(ncols) diff; everything else counts the canonical CSR
    column ids with one O(nnz) bincount.  This is what lets the chooser
    price the dot kernel *without* building ``Bᵀ`` first (the transpose is
    deferred until the dot rule actually claims the plan)."""
    st = m._S()
    if st.fmt == "csc" or getattr(st, "_csc", None) is not None:
        return np.diff(st.transpose_csr()[0])
    return np.bincount(st.csr()[1], minlength=m.ncols)


def _row_lengths(m: Matrix) -> np.ndarray:
    """Stored-entry count per row — conversion-free on every format."""
    st = m._S()
    if st.fmt == "csc" and getattr(st, "_csr", None) is None:
        return np.bincount(st.transpose_csr()[1], minlength=m.nrows)
    return np.diff(st.csr()[0])


def _run_expand(plan: Plan, rows, key_keep):
    """``mxm_expand`` on the plan's operands, then :func:`finish`.

    A semiring SciPy could run goes through the kernel's SciPy-replay mode
    (operands cast to :func:`_scipy_dtype`, sequential k-ascending sums),
    so the expansion's bytes are ``scipy_mxm``'s whichever rule claimed
    the product; a value array the multiply ignores is not handed over."""
    a, b = plan.args
    if plan.transpose_b:
        b = b.T
    sr = plan.operator
    replay = sr.scipy_reducible()
    use_a, use_b = _mult_uses(sr) if replay else (True, True)
    keys, vals = mxm_expand(
        a.indptr, a.indices, a.values if use_a else None, a.nrows,
        b.indptr, b.indices, b.values if use_b else None, b.ncols, sr,
        a_rows=a._S().entry_rows() if rows is None else None,
        rows=rows, key_keep=key_keep,
        cast_dtype=_scipy_dtype(a, b, sr) if replay else None)
    return finish(plan, keys, vals, is_vector=False,
                  nrows=a.nrows, ncols=b.ncols)


@register("mxm", "mxm-small-expand")
class _MxmSmallExpand:
    """A plus.times-reducible product of at most ``ncols(B)`` flops, on
    the expansion kernel instead of the compiled one.

    SciPy's Gustavson pass allocates and clears an ``ncols(B)``-cell
    workspace per call, wraps both operands and the result in
    ``csr_matrix`` objects, and needs a second (pattern) product whenever
    an operand holds a value below 1; the expansion costs what its flops
    cost.  A product with fewer multiplications than that workspace has
    cells — the near-empty levels of a batched traversal on a
    high-diameter graph, hundreds per BC batch — is therefore claimed here
    and replayed bit for bit (:func:`_run_expand`).  The bound is the
    operand's own shape, so the rule has no constant: the measured
    crossover tracks ``ncols(B)`` (docs/BENCHMARKING.md, ISSUE 23).

    The exact flop count ``Σ_k∈A |B(k,:)|`` is one O(nnz(A)) gather of
    ``B``'s row pointer, and is only attempted when ``nnz(A)`` itself is
    within the bound (every entry of ``A`` meeting an empty row of ``B``
    aside, a product has at least that many flops): a heavy level
    declines on two integer compares.  The mask is applied to the
    expansion's keys before the reduce; no row restriction is analysed —
    there is less product here than the analysis would read.
    """

    @staticmethod
    def applies(plan: Plan):
        a, b = plan.args
        bound = plan.meta["_bn_cols"]
        if (not plan.operator.scipy_reducible() or not b.nvals
                or not 0 < a.nvals <= bound):
            return None
        if plan.transpose_b:
            b = b.T
        flops = int(csr_row_lengths(b.indptr, a.indices).sum())
        if flops > bound:
            return None
        return {"method": "small-expand", "flops": flops,
                "flop_bound": bound}

    @staticmethod
    def run(plan: Plan, detail: dict):
        return _run_expand(plan, None, mask_key_filter(plan.mask))


@register("mxm", "mxm-masked-dot")
class _MxmMaskedDot:
    """One sorted-intersection dot product per mask entry (dot3 kernel).

    Claims the plan when the unified chooser prices the probe work (plus
    the ≤ 1-output-per-mask-entry write) below the fallback's estimated
    flops plus product materialisation.  Feeds the kernel ``Bᵀ`` in CSR
    form without materialising a transpose: for ``transpose_b=True`` (TC's
    ``L plus.pair Uᵀ``) that is the operand's own CSR arrays, otherwise the
    store's cached CSC view — native for CSC-pinned operands.
    """

    @staticmethod
    def applies(plan: Plan):
        a, b = plan.args
        sr = plan.operator
        mask = plan.mask
        if (not _mask_engaged(plan) or mask.complemented
                or not _mm.dot_supported(sr)
                or not a.nvals or not b.nvals):
            return None
        allowed = mask.allowed_keys()
        bn_cols = plan.meta["_bn_cols"]
        if allowed.size == 0:
            plan.meta["_dot"] = (allowed, None, None, None, None)
            return {"method": "dot", "mask_nvals": 0}
        a_ip, a_ix, _ = a._S().csr()
        # Bᵀ's per-row lengths and B-effective's per-row lengths without
        # materialising any layout conversion: the Bᵀ feed itself (the
        # store's cached CSC view for transpose_b=False) is built only
        # when this rule claims the plan — a fallback-routed multiply
        # never pays it
        if plan.transpose_b:
            bt_row_lengths = _row_lengths(b)
            beff_lengths = _col_lengths(b)
        else:
            bt_row_lengths = _col_lengths(b)
            beff_lengths = _row_lengths(b)
        ncols64 = np.int64(bn_cols)
        rows_m = allowed // ncols64
        cols_m = allowed - rows_m * ncols64
        lengths = (a_ip[rows_m + 1] - a_ip[rows_m], bt_row_lengths[cols_m])
        cost_dot = cost.dot_probe_cost(*lengths)
        est_flops = cost.expand_flops_estimate(a_ix, beff_lengths)
        scipy_path = sr.scipy_reducible()
        est_out = cost.product_nnz_estimate(est_flops, a.nrows, bn_cols)
        method = cost.choose_masked_method(
            cost_dot, est_flops, scipy_path=scipy_path,
            mask_nvals=allowed.size, est_out_nnz=est_out)
        decision = {
            "method": "dot" if method == "dot" else "fallback",
            "semiring": sr.name,
            "mask_nvals": int(allowed.size),
            "dot_probes": int(cost_dot),
            "expand_flops_est": float(est_flops),
            "est_out_nnz": float(est_out),
            "scipy_path": scipy_path,
        }
        if _profile.deep_active():
            decision["expand_flops"] = cost.expand_flops_exact(a_ix,
                                                               beff_lengths)
        if method != "dot":
            plan.meta.update(decision)     # survives into the fallback event
            return None
        plan.meta["_dot"] = (allowed, rows_m, cols_m, lengths, None)
        return decision

    @staticmethod
    def run(plan: Plan, detail: dict):
        a, b = plan.args
        sr = plan.operator
        allowed, rows_m, cols_m, lengths, _ = plan.meta["_dot"]
        bn_cols = plan.meta["_bn_cols"]
        if rows_m is None:                     # empty mask: empty product
            t_keys = np.empty(0, np.int64)
            t_vals = np.empty(0, _scipy_dtype(a, b, sr))
        else:
            a_ip, a_ix, a_vv = a._S().csr()
            # the Bᵀ feed, paid only now that the dot kernel is chosen:
            # the operand's own CSR for transpose_b (zero conversion), the
            # store's cached/native CSC view otherwise
            bt_ip, bt_ix, bt_vv = b._S().csr() if plan.transpose_b \
                else b._S().transpose_csr()
            cast_dt = _scipy_dtype(a, b, sr) if sr.scipy_reducible() else None
            probe = plan.meta.get("_dot_probe")
            if probe is None:
                # the structure-resolution stage — a pure function of the
                # operand structures and the mask, stashed as a plan-cache
                # feed: a repeated identical multiply re-runs only the
                # value stage below
                mult = sr.mult.name
                probe = _mm.masked_dot_probe(
                    a_ip, a_ix, bt_ip, bt_ix, rows_m, cols_m, a.ncols,
                    mult in ("times", "first"), mult in ("times", "second"),
                    lengths=lengths)
                plan.meta["_dot_probe"] = probe
            hit, t_vals = _mm.masked_dot_reduce(probe, a_vv, bt_vv,
                                                rows_m.size, sr,
                                                cast_dtype=cast_dt)
            t_keys = allowed[hit]
        plan.meta["_premasked"] = True  # output ⊆ mask by construction
        return finish(plan, t_keys, t_vals, is_vector=False,
                      nrows=a.nrows, ncols=bn_cols)


def _live_rows_feed(plan: Plan, nrows: int, ncols: int):
    """The mask-live row set, computed once per plan shape.

    Stashed under ``plan.meta["_rows"]`` (a plan-cache feed key): a cached
    dispatch of the same shape re-attaches it, so the O(nnz) live-row scan
    is skipped along with the chooser."""
    if "_rows" not in plan.meta:
        plan.meta["_rows"] = mask_live_rows(plan.mask, nrows, ncols) \
            if _mask_engaged(plan) else None
    return plan.meta["_rows"]


@register("mxm", "mxm-scipy")
class _MxmScipy:
    """Compiled CSR multiply for plus.times-reducible semirings,
    mask-restricted to live output rows when the masked engine engages."""

    @staticmethod
    def applies(plan: Plan):
        a, b = plan.args
        if plan.operator.scipy_reducible() and a.nvals and b.nvals:
            _live_rows_feed(plan, a.nrows, plan.meta["_bn_cols"])
            return {"method": plan.meta.get("method", "scipy")}
        return None

    @staticmethod
    def run(plan: Plan, detail: dict):
        a, b = plan.args
        if plan.transpose_b:
            b = b.T
        rows = _live_rows_feed(plan, a.nrows, b.ncols)
        keys, vals = scipy_mxm(a, b, plan.operator, rows=rows)
        return finish(plan, keys, vals, is_vector=False,
                      nrows=a.nrows, ncols=b.ncols)


@register("mxm", "mxm-expand")
class _MxmExpand:
    """Flop-order expansion + group-reduce: the always-applicable
    reference, serving every semiring the other rules cannot."""

    @staticmethod
    def applies(plan: Plan):
        a, _ = plan.args
        _live_rows_feed(plan, a.nrows, plan.meta["_bn_cols"])
        return {"method": plan.meta.get("method", "expand")}

    @staticmethod
    def run(plan: Plan, detail: dict):
        a, _ = plan.args
        rows = _live_rows_feed(plan, a.nrows, plan.meta["_bn_cols"])
        return _run_expand(
            plan, rows,
            mask_key_filter(plan.mask) if _mask_engaged(plan) else None)


# ---------------------------------------------------------------------------
# mxv / vxm rules
# ---------------------------------------------------------------------------

def _replay(plan: Plan):
    """``(use_first, use_second, cast_dtype)`` for a vector product's
    operands in ⊗ order.  A plus.times-reducible semiring runs the
    gather/push kernel in its SciPy-replay mode, as :func:`_run_expand`
    does: SciPy's dtype, and no value array the multiply ignores.  Any
    other semiring reads both sides and casts nothing."""
    sr = plan.operator
    if not sr.scipy_reducible():
        return True, True, None
    return (*_mult_uses(sr), _scipy_dtype(*plan.args, sr))


@register("mxv", "mxv-fused-dense-accum")
class _MxvFusedDenseAccum:
    """``w ⊙= A ⊕.⊗ u`` accumulated straight into a full output's dense
    array — the masked-accum write-back fusion.

    When the output is *full* (an entry at every position — PageRank's rank
    vector after ``assign_scalar``) and the accumulator is plain ``plus``,
    the spec transaction degenerates to ``w_dense += t_dense``: the union
    merge of the write-back is dead work, because the output structure is
    known full in advance.  The frontier's density does not matter: an
    unmasked ``mxv-gather`` reads every row of ``A`` too, so SciPy's
    compiled product over the whole matrix is never more work, and each
    row's sum is the one ``mxv-gather`` would replay.

    Adding the *full* dense product is bit-identical to the reference as
    long as no off-structure position can produce a non-zero: those
    positions are sums of ``term · 0`` (the vector's absent entries carry
    0 in its bitmap), which is exactly 0 for finite terms but NaN for
    ``±inf · 0``.  Multiplies whose matrix side is a pattern
    (``⊗ = second``) are immune by construction; ``times``/``first``
    multiplies qualify when :meth:`Matrix.values_all_finite` holds — the
    cached per-store-version guard that closes the ``inf·0`` edge (the
    only divergence left is ``-0.0 + 0.0 = +0.0``, which compares equal).
    """

    @staticmethod
    def applies(plan: Plan):
        if (not cost.FUSION_ENABLED or plan.mask is not None or plan.replace
                or plan.epilogues or plan.out is None):
            return None
        a, u = plan.args
        w = plan.out
        sr = plan.operator
        mult = sr.mult.name
        # "second"/"pair" read no matrix values (pattern side — exact zeros
        # off structure by construction); "times"/"first" need every stored
        # value finite so no inf·0 NaN can leak into untouched positions
        safe = mult in ("second", "pair") or (
            mult in ("times", "first") and a.values_all_finite())
        if (getattr(plan.accum, "name", None) == "plus"
                and w.nvals == w.size and w.size > 0
                and np.issubdtype(w.type.dtype, np.floating)
                and sr.scipy_reducible() and safe):
            return {"method": "fused-dense-accum", "mult": mult}
        return None

    @staticmethod
    def run(plan: Plan, detail: dict):
        a, u = plan.args
        w = plan.out
        sr = plan.operator
        use_a, use_b = _mult_uses(sr)
        dt = _scipy_dtype(a, u, sr)
        present, dense = u._store.bitmap()
        sa = _scipy_operand(a, use_a, dt)
        uvec = dense.astype(dt, copy=False) if use_b else present.astype(dt)
        t_dense = sa @ uvec
        _, w_dense = w._store.bitmap()
        out = (w_dense + t_dense).astype(w.type.dtype, copy=False)
        w._set_sparse(np.arange(w.size, dtype=np.int64), out)
        return w


@register("mxv", "mxv-gather")
class _MxvGather:
    """Row gather: only the mask-selected rows of ``A`` are examined (the
    complemented-structural-mask BFS pull touches exactly the unvisited
    rows).  Each row folds its terms in storage order, so a
    plus.times-reducible product equals SciPy's ``A @ u`` byte for byte
    (:func:`_replay`) at any frontier density."""

    @staticmethod
    def applies(plan: Plan):
        return {"method": "gather"}

    @staticmethod
    def run(plan: Plan, detail: dict):
        a, u = plan.args
        rows = _mask_rows(plan.mask, a.nrows)
        if rows is None:
            rows = np.arange(a.nrows, dtype=np.int64)
        use_a, use_u, cast = _replay(plan)
        present, dense = u._store.bitmap()
        idx, vals = mxv_gather(a.indptr, a.indices,
                               a.values if use_a else None, present,
                               dense if use_u else None, rows, plan.operator,
                               cast_dtype=cast)
        return finish(plan, idx, vals, is_vector=True, size=a.nrows)


@register("vxm", "vxm-sparse-push")
class _VxmSparsePush:
    """Frontier push: cost ∝ total frontier out-degree.  The frontier is
    walked k-ascending, so a plus.times-reducible product equals SciPy's
    ``uᵀ A`` byte for byte (:func:`_replay`) at any frontier density."""

    @staticmethod
    def applies(plan: Plan):
        return {"method": "sparse-push"}

    @staticmethod
    def run(plan: Plan, detail: dict):
        u, a = plan.args
        use_u, use_a, cast = _replay(plan)
        idx, vals = vxm_sparse(u._idx, u._vals if use_u else None,
                               a.indptr, a.indices,
                               a.values if use_a else None, a.ncols,
                               plan.operator, cast_dtype=cast)
        return finish(plan, idx, vals, is_vector=True, size=a.ncols)


# ---------------------------------------------------------------------------
# ewise rules (the bitmap fast path, made a visible decision)
# ---------------------------------------------------------------------------

def _ewise_run(plan: Plan, keys, vals):
    a = plan.args[0]
    if isinstance(a, Vector):
        return finish(plan, keys, vals, is_vector=True, size=a.size)
    return finish(plan, keys, vals, is_vector=False,
                  nrows=a.nrows, ncols=a.ncols)


class _EwiseBitmapBase:
    """Dense flag/value merge when both operands are bitmap-resident —
    no sorted-key intersection, identical results by construction."""

    union = True

    @classmethod
    def applies(cls, plan: Plan):
        a, b = plan.args
        pa = a._mask_present_dense()
        if pa is None:
            return None
        pb = b._mask_present_dense()
        if pb is None:
            return None
        plan.meta["_bitmaps"] = (pa, pb)
        return {"layout": "bitmap"}

    @classmethod
    def run(cls, plan: Plan, detail: dict):
        pa, pb = plan.meta.pop("_bitmaps")
        fn = union_merge_bitmap if cls.union else intersect_merge_bitmap
        keys, vals = fn(pa[0], pa[1], pb[0], pb[1], plan.operator)
        return _ewise_run(plan, keys, vals)


class _EwiseSortedBase:
    """Sorted-key merge over the operands' sparse views (reference)."""

    union = True

    @classmethod
    def applies(cls, plan: Plan):
        return {"layout": "sorted"}

    @classmethod
    def run(cls, plan: Plan, detail: dict):
        a, b = plan.args
        ka, va = a._mask_keys_values()
        kb, vb = b._mask_keys_values()
        fn = union_merge if cls.union else intersect_merge
        keys, vals = fn(ka, va, kb, vb, plan.operator)
        return _ewise_run(plan, keys, vals)


@register("ewise_add", "ewise-bitmap-merge")
class _EwiseAddBitmap(_EwiseBitmapBase):
    union = True


@register("ewise_add", "ewise-sorted-merge")
class _EwiseAddSorted(_EwiseSortedBase):
    union = True


def _view(obj):
    """An operand as :func:`intersect_probe` takes it: the bitmap pair
    when bitmap-resident, the sorted ``(keys, values)`` pair otherwise."""
    return obj._mask_present_dense() or obj._mask_keys_values()


@register("ewise_mult", "ewise-probe")
class _EwiseMultProbe:
    """Intersection driven from its smallest sorted participant.

    An intersection is a subset of each operand — and of a
    non-complemented mask's allowed keys, when the result is only ever
    seen through that mask.  With a bitmap-resident operand to look
    entries up in, the smallest *sorted* key set among those (a sparse
    operand, a sparse mask) is walked and every other participant probed:
    ``W⟨s(S)⟩ = B div∩ P`` gathers ``B`` and ``P`` at the level's keys,
    ``W ×∩ P`` gathers ``P`` at ``W``'s.  Declines when nothing is bitmap
    (the sorted merge is the same work) or nothing is sorted (the bitmap
    merge's flag scan is)."""

    @staticmethod
    def applies(plan: Plan):
        sorted_sides = [(x.nvals, False, x) for x in plan.args
                        if x.format != "bitmap"]
        if len(sorted_sides) == 2:
            return None
        mask = plan.mask
        if (mask is not None and not mask.complemented
                and mask.obj.format != "bitmap"):
            sorted_sides.append((mask.obj.nvals, True, mask.obj))
        if not sorted_sides:
            return None
        _, by_mask, driver = min(sorted_sides, key=lambda side: side[0])
        plan.meta["_driver"] = (driver, by_mask)
        return {"layout": "probe", "driver": "mask" if by_mask else "operand"}

    @staticmethod
    def run(plan: Plan, detail: dict):
        a, b = plan.args
        driver, by_mask = plan.meta.pop("_driver")
        keys = plan.mask.allowed_keys() if by_mask \
            else driver._mask_keys_values()[0]
        keys, vals = intersect_probe(keys, _view(a), _view(b), plan.operator)
        return _ewise_run(plan, keys, vals)


@register("ewise_mult", "ewise-bitmap-merge")
class _EwiseMultBitmap(_EwiseBitmapBase):
    union = False


@register("ewise_mult", "ewise-sorted-merge")
class _EwiseMultSorted(_EwiseSortedBase):
    union = False


# ---------------------------------------------------------------------------
# apply / select rules
# ---------------------------------------------------------------------------

@register("apply", "apply-entrywise")
class _ApplyEntrywise:
    """``f(A, k)`` evaluated directly on the source's arrays — the
    structure is inherited, so no intermediate object is ever built."""

    @staticmethod
    def applies(plan: Plan):
        return {"positional": plan.operator.positional or "value"}

    @staticmethod
    def run(plan: Plan, detail: dict):
        src = plan.args[0]
        op = plan.operator
        thunk = plan.meta.get("_thunk")
        if isinstance(src, Vector):
            idx = src._idx
            vals = _selectops.eval_unary(
                op, src._vals, thunk, rows=lambda: idx,
                cols=lambda: np.zeros(idx.size, dtype=np.int64))
            return finish(plan, idx, vals, is_vector=True, size=src.size)
        vals = _selectops.eval_unary(
            op, src.values, thunk, rows=lambda: src._S().entry_rows(),
            cols=lambda: src.indices)
        return finish(plan, src.keys(), vals, is_vector=False,
                      nrows=src.nrows, ncols=src.ncols)


class _SelectBase:
    @staticmethod
    def _finish(plan, keep):
        src = plan.args[0]
        if isinstance(src, Vector):
            return finish(plan, src._idx[keep], src._vals[keep],
                          is_vector=True, size=src.size)
        return finish(plan, src.keys()[keep], src.values[keep],
                      is_vector=False, nrows=src.nrows, ncols=src.ncols)


@register("select", "select-value-only")
class _SelectValueOnly(_SelectBase):
    """Value-only predicates never expand entry coordinates — the
    format-aware fast path, now a visible rule."""

    @staticmethod
    def applies(plan: Plan):
        if not plan.operator.uses_coords:
            return {"path": "value-only"}
        return None

    @classmethod
    def run(cls, plan: Plan, detail: dict):
        src = plan.args[0]
        vals = src._vals if isinstance(src, Vector) else src.values
        keep = plan.operator(vals, None, None, plan.meta.get("_thunk"))
        return cls._finish(plan, keep)


@register("select", "select-coords")
class _SelectCoords(_SelectBase):
    """Coordinate predicates read row ids from the store (hypersparse:
    O(live) expansion) and column ids from the canonical view."""

    @staticmethod
    def applies(plan: Plan):
        return {"path": "coords"}

    @classmethod
    def run(cls, plan: Plan, detail: dict):
        src = plan.args[0]
        op = plan.operator
        thunk = plan.meta.get("_thunk")
        if isinstance(src, Vector):
            keep = op(src._vals, src._idx,
                      np.zeros(src._idx.size, dtype=np.int64), thunk)
        else:
            st = src._S()
            keep = op(st.csr()[2], st.entry_rows(), st.csr()[1], thunk)
        return cls._finish(plan, keep)


# ---------------------------------------------------------------------------
# update rule (C⟨M⟩⊙= T — a bare write-back transaction)
# ---------------------------------------------------------------------------

@register("update", "update-write")
class _UpdateWrite:
    """``C⟨M⟩⊙= T``: the write-back transaction with no compute stage.

    A plan like every other call, so it is dispatched, traced and counted
    the same way.  A bitmap output takes the in-place delta write, so the
    BFS parent update ``p⟨s(q)⟩ = q`` costs O(|q|) per level."""

    @staticmethod
    def applies(plan: Plan):
        return {"target": "vector" if isinstance(plan.out, Vector)
                else "matrix"}

    @staticmethod
    def run(plan: Plan, detail: dict):
        t = plan.args[0]
        return write_back(plan.out, *t._mask_keys_values(), plan.mask,
                          plan.accum, plan.replace)


# ---------------------------------------------------------------------------
# assign / assign_scalar rules (the spec's sub-range write transaction)
# ---------------------------------------------------------------------------

def _region_write(out, region_keys, t_keys, t_vals, mask: Optional[Mask],
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


@register("assign", "assign-region")
class _AssignRegion:
    @staticmethod
    def applies(plan: Plan):
        return {"target": "vector" if isinstance(plan.out, Vector)
                else "matrix"}

    @staticmethod
    def run(plan: Plan, detail: dict):
        from ..errors import DimensionMismatch
        w = plan.out
        u = plan.args[0]
        indices = plan.meta.get("_indices")
        mask, accum, replace = plan.mask, plan.accum, plan.replace
        if isinstance(w, Vector):
            if indices is None:
                return write_back(w, u._idx, u._vals, mask, accum, replace)
            indices = np.asarray(indices, dtype=np.int64)
            if u.size != indices.size:
                raise DimensionMismatch("assign: index list size mismatch")
            t_idx = indices[u._idx]
            t_vals = u._vals
            order = np.argsort(t_idx, kind="stable")
            region = np.unique(indices)
            return _region_write(w, region, t_idx[order], t_vals[order],
                                 mask, accum, replace)
        rows, cols = (None, None) if indices is None else indices
        whole = rows is None and cols is None
        rows = np.arange(w.nrows, dtype=np.int64) if rows is None \
            else np.asarray(rows, dtype=np.int64)
        cols = np.arange(w.ncols, dtype=np.int64) if cols is None \
            else np.asarray(cols, dtype=np.int64)
        if not (u.nrows == rows.size and u.ncols == cols.size):
            raise DimensionMismatch("assign: submatrix shape mismatch")
        ur, uc, uv = u.to_coo()
        t_keys = rows[ur] * np.int64(w.ncols) + cols[uc]
        order = np.argsort(t_keys, kind="stable")
        if whole:
            return write_back(w, t_keys[order], uv[order], mask, accum,
                              replace)
        region = np.unique(
            (np.unique(rows)[:, None] * np.int64(w.ncols) +
             np.unique(cols)[None, :]).ravel())
        return _region_write(w, region, t_keys[order], uv[order], mask,
                             accum, replace)


@register("assign_scalar", "assign-scalar-region")
class _AssignScalarRegion:
    @staticmethod
    def applies(plan: Plan):
        return {"target": "vector" if isinstance(plan.out, Vector)
                else "matrix"}

    @staticmethod
    def run(plan: Plan, detail: dict):
        w = plan.out
        value = plan.operator
        indices = plan.meta.get("_indices")
        mask, accum, replace = plan.mask, plan.accum, plan.replace
        if isinstance(w, Vector):
            whole = indices is None
            idx = np.arange(w.size, dtype=np.int64) if whole \
                else np.unique(np.asarray(indices, dtype=np.int64))
            vals = np.full(idx.size, value, dtype=w.type.dtype)
            if whole:
                return write_back(w, idx, vals, mask, accum, replace)
            return _region_write(w, idx, idx, vals, mask, accum, replace)
        rows, cols = (None, None) if indices is None else indices
        whole = rows is None and cols is None
        rows = np.arange(w.nrows, dtype=np.int64) if rows is None \
            else np.unique(np.asarray(rows, dtype=np.int64))
        cols = np.arange(w.ncols, dtype=np.int64) if cols is None \
            else np.unique(np.asarray(cols, dtype=np.int64))
        t_keys = (rows[:, None] * np.int64(w.ncols) + cols[None, :]).ravel()
        t_vals = np.full(t_keys.size, value, dtype=w.type.dtype)
        if whole:
            return write_back(w, t_keys, t_vals, mask, accum, replace)
        return _region_write(w, t_keys, t_keys, t_vals, mask, accum, replace)
