"""The ``mxm`` family: its four rules, the SciPy adapter and the
masked-dot analysis.

Rules, in trial order:

* ``mxm-small-expand`` — a plus.times-reducible product of at most
  ``ncols(B)`` flops, on the expansion kernel in its SciPy-replay mode
  (below that the compiled kernel's per-call set-up is the cost);
* ``mxm-masked-dot`` — the dot3 masked-SpGEMM kernel, claimed via the
  unified chooser in :mod:`repro.grb.engine.cost`;
* ``mxm-scipy`` — the compiled plus.times-reducible path, its product
  filtered by the mask before it is ordered;
* ``mxm-expand`` — the always-applicable flop-expansion reference.

:func:`scipy_mxm` and the operand helpers beside it are the SciPy
adapter; the ``mxv`` family (:mod:`repro.grb.engine.mxv`) reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .._kernels import masked_matmul as _mm
from .._kernels.gather import csr_row_lengths, expand_rows
from .._kernels.matmul import mxm_expand
from ..matrix import Matrix
from ..ops.semiring import Semiring
from . import cost, plancache
from .plan import Plan
from .rules import register
from .writeback import finish, mask_key_filter

__all__ = ["scipy_mxm", "scipy_operand", "scipy_dtype", "mult_uses"]

# SciPy keeps explicit zeros produced by cancellation in sparse matmul; probe
# once so the fast path knows whether structure needs a separate pattern
# product.
_probe = sp.csr_matrix(np.array([[1.0, -1.0]])) @ sp.csr_matrix(np.array([[1.0], [1.0]]))
_SCIPY_KEEPS_ZEROS = _probe.nnz == 1
del _probe


# ---------------------------------------------------------------------------
# the SciPy adapter
# ---------------------------------------------------------------------------

def scipy_operand(m: Matrix, use_values: bool, dtype):
    """SciPy CSR of ``m`` with values (cast) or the all-ones pattern.

    Pattern operands come from the per-store-version cache
    (:meth:`Matrix.pattern_operand`) instead of being rebuilt per call.
    Both views are cached CSR: SciPy's spmatmul converts non-CSR operands
    internally *per call*, so the cached canonical view pays any
    conversion once.
    """
    if use_values:
        s = m.to_scipy()
        return s.astype(dtype, copy=False) if s.dtype != dtype else s
    return m.pattern_operand(dtype)


def mult_uses(semiring: Semiring):
    """Which operands' values the multiply op reads: (use_a, use_b)."""
    name = semiring.mult.name
    return name in ("times", "first"), name in ("times", "second")


def scipy_dtype(a: Matrix, b, semiring: Semiring) -> np.dtype:
    """The computation dtype of the SciPy fast path for these operands."""
    if semiring.mult.name == "pair":
        return np.dtype(np.int64)
    dt = semiring.mult_dtype(a.dtype, b.dtype)
    return np.dtype(np.int64) if dt == np.bool_ else np.dtype(dt)


def _cannot_vanish(m: Matrix, mult: str) -> bool:
    """Whether no product entry carrying ``m``'s values can sum to an
    exact 0 that SciPy would prune.

    ``times`` needs every value ≥ 1: products and sums of float terms that
    are each ≥ 1 stay ≥ 1 (an overflow lands on ``inf``), while a product
    of tiny positive values can underflow to 0.  ``first``/``second`` copy
    the value unchanged (times the pattern's 1), and a sum of positive
    floats is positive, denormals included.  A non-floating matrix never
    qualifies (:meth:`Matrix.values_min` is NaN: an integer sum can wrap
    to 0)."""
    lo = m.values_min()
    return lo >= 1 if mult == "times" else lo > 0


def _ordered(prod, key_keep):
    """Linearised ``(keys, vals)`` of a SciPy product, in key order.

    SciPy leaves each row's columns unsorted.  Unfiltered, the rows are
    sorted in place.  With ``key_keep``, the keys are formed from the raw
    product, the entries the mask discards are dropped, and only the
    survivors are ordered, by one argsort (the keys are unique, so the
    order is exact)."""
    if key_keep is None:
        prod.sort_indices()
    prow = expand_rows(prod.indptr.astype(np.int64), prod.shape[0])
    keys = prow * np.int64(prod.shape[1]) + prod.indices.astype(np.int64)
    if key_keep is None:
        return keys, prod.data
    keep = key_keep(keys)
    keys, vals = keys[keep], prod.data[keep]
    order = np.argsort(keys)
    return keys[order], vals[order]


def scipy_mxm(a: Matrix, b: Matrix, semiring: Semiring, key_keep=None):
    """plus.times-reducible ``C = A ⊕.⊗ B`` on SciPy; returns (keys, vals).

    ``key_keep`` (:func:`mask_key_filter`) drops the entries the mask
    discards from the unsorted product, so only what the mask keeps is
    ordered; the result is then exactly ``T⟨M⟩``.

    SciPy prunes a sum that comes out 0, so unless no value-carrying
    operand can produce one (:func:`_cannot_vanish`) the structure comes
    from a second, cancellation-proof pattern product.
    """
    use_a, use_b = mult_uses(semiring)
    dt = scipy_dtype(a, b, semiring)
    keys, vals = _ordered(
        scipy_operand(a, use_a, dt) @ scipy_operand(b, use_b, dt), key_keep)
    mult = semiring.mult.name
    if _SCIPY_KEEPS_ZEROS or ((not use_a or _cannot_vanish(a, mult))
                              and (not use_b or _cannot_vanish(b, mult))):
        return keys, vals
    pkeys, _ = _ordered(scipy_operand(a, False, np.int64)
                        @ scipy_operand(b, False, np.int64), key_keep)
    out = np.zeros(pkeys.size, dtype=vals.dtype)
    out[np.searchsorted(pkeys, keys)] = vals
    return pkeys, out


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

    A store whose transpose is already cached (e.g. after
    :func:`repro.grb.engine.preplan`) reads its column pointers directly,
    an O(ncols) diff; otherwise one O(nnz) bincount of the canonical CSR
    column ids.  This is what lets the chooser price the dot kernel
    *without* building ``Bᵀ`` first (the transpose is deferred until the
    dot rule actually claims the plan)."""
    st = m._S()
    if st._csc is not None:
        return np.diff(st._csc[0])
    return np.bincount(st.csr()[1], minlength=m.ncols)


def _row_lengths(m: Matrix) -> np.ndarray:
    """Stored-entry count per row."""
    return np.diff(m._S().csr()[0])


def _run_expand(plan: Plan, key_keep):
    """``mxm_expand`` on the plan's operands, then :func:`finish`.

    A semiring SciPy could run goes through the kernel's SciPy-replay mode
    (operands cast to :func:`scipy_dtype`, sequential k-ascending sums),
    so the expansion's bytes are ``scipy_mxm``'s whichever rule claimed
    the product; a value array the multiply ignores is not handed over."""
    a, b = plan.args
    if plan.transpose_b:
        b = b.T
    sr = plan.operator
    replay = sr.scipy_reducible()
    use_a, use_b = mult_uses(sr) if replay else (True, True)
    keys, vals = mxm_expand(
        a.indptr, a.indices, a.values if use_a else None, a.nrows,
        b.indptr, b.indices, b.values if use_b else None, b.ncols, sr,
        key_keep=key_keep,
        cast_dtype=scipy_dtype(a, b, sr) if replay else None)
    return finish(plan, keys, vals, is_vector=False,
                  nrows=a.nrows, ncols=b.ncols)


@register("mxm", "mxm-small-expand")
class _MxmSmallExpand:
    """A plus.times-reducible product of at most ``ncols(B)`` flops, on
    the expansion kernel instead of the compiled one.

    SciPy's Gustavson pass allocates and clears an ``ncols(B)``-cell
    workspace per call, wraps both operands and the result in
    ``csr_matrix`` objects, and needs a second (pattern) product whenever
    a value-carrying operand could sum to 0; the expansion costs what its
    flops cost.  A product with fewer multiplications than that workspace
    has cells — the near-empty levels of a batched traversal on a
    high-diameter graph, hundreds per BC batch — is therefore claimed here
    and replayed bit for bit (:func:`_run_expand`).  The bound is the
    operand's own shape, so the rule has no constant: the measured
    crossover tracks ``ncols(B)`` (CHANGES.md, PR 23).

    The exact flop count ``Σ_k∈A |B(k,:)|`` is one O(nnz(A)) gather of
    ``B``'s row pointer, and is only attempted when ``nnz(A)`` itself is
    within the bound (every entry of ``A`` meeting an empty row of ``B``
    aside, a product has at least that many flops): a heavy level
    declines on two integer compares.  The mask is applied to the
    expansion's keys before the reduce.
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
        return _run_expand(plan, mask_key_filter(plan.mask))


@dataclass(eq=False)
class _DotAnalysis:
    """The masked-dot analysis of one product, memoized on its mask
    (``Matrix._dot``) the way ``G->AT`` is kept on its graph.

    ``key`` names what the analysis read besides the mask: each operand's
    ``(uid, store_version)``, the ``transpose_b`` bit, the mask's
    structural bit and which operand values the multiply reads (the probe
    stage records entry positions only for those).  The mask's own
    changes need no key: ``Matrix._invalidate`` drops the memo.  ``probe``
    is :func:`~repro.grb._kernels.masked_matmul.masked_dot_probe`'s output,
    left ``None`` until a dot run fills it: the ``(t, apos, bpos)`` hits
    of a valued multiply, or for ``pair`` one hit count per mask entry (a
    mask-sized array, however many hits there are)."""

    key: tuple
    allowed: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    lengths: tuple
    probes: int
    flops: int
    probe: Optional[tuple] = None

    def nbytes(self) -> int:
        probe = self.probe
        if isinstance(probe, np.ndarray):          # pair: the hit counts
            probe = (probe,)
        arrays = (self.allowed, self.rows, self.cols, *self.lengths,
                  *(probe or ()))
        return sum(a.nbytes for a in arrays if a is not None)


def _dot_analysis(plan: Plan, allowed: np.ndarray, key: tuple):
    """Mask coordinates, length pairs and the exact probe and flop counts
    of a masked product, read off the operands without materialising any
    layout conversion: the ``Bᵀ`` feed itself (the store's cached CSC
    view for ``transpose_b=False``) is built only when the dot rule runs,
    so a fallback-routed multiply never pays it."""
    a, b = plan.args
    a_ip, a_ix, _ = a._S().csr()
    if plan.transpose_b:
        bt_row_lengths = _row_lengths(b)
        beff_lengths = _col_lengths(b)
    else:
        bt_row_lengths = _col_lengths(b)
        beff_lengths = _row_lengths(b)
    ncols64 = np.int64(plan.meta["_bn_cols"])
    rows_m = allowed // ncols64
    cols_m = allowed - rows_m * ncols64
    lengths = (a_ip[rows_m + 1] - a_ip[rows_m], bt_row_lengths[cols_m])
    return _DotAnalysis(key, allowed, rows_m, cols_m, lengths,
                        cost.dot_probe_cost(*lengths),
                        cost.expand_flops_exact(a_ix, beff_lengths))


@register("mxm", "mxm-masked-dot")
class _MxmMaskedDot:
    """One sorted-intersection dot product per mask entry (dot3 kernel).

    Claims the plan when the unified chooser prices the exact probe count
    at no more than the exact flop count of the unmasked product.  Feeds
    the kernel ``Bᵀ`` in CSR form without materialising a transpose: for
    ``transpose_b=True`` (TC's ``L plus.pair Uᵀ``) that is the operand's
    own CSR arrays, otherwise the store's cached CSC view.

    The analysis the chooser prices, and the probe stage a dot run
    resolves, are memoized on the mask (:class:`_DotAnalysis`): a
    repeated product over unchanged operands re-runs only the chooser's
    comparison and the kernel's value stage.  The chooser itself runs on
    every call, so a monkeypatched cost constant re-routes at once.
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
        key = (a._uid, a.store_version, b._uid, b.store_version,
               plan.transpose_b, mask.structural, mult_uses(sr))
        m = mask.obj
        m._flush_pending()          # staged writes drop the memo first
        memo = m._dot
        hit = memo is not None and memo.key == key
        if not hit:
            allowed = mask.allowed_keys()
            if allowed.size == 0:
                plan.meta["_dot"] = None
                return {"method": "dot", "mask_nvals": 0}
            memo = m._dot = _dot_analysis(plan, allowed, key)
        plancache.count(hit)
        method = cost.choose_masked_method(memo.probes, memo.flops)
        decision = {
            "method": method,
            "semiring": sr.name,
            "mask_nvals": int(memo.allowed.size),
            "dot_probes": memo.probes,
            "expand_flops": memo.flops,
            "plan_cache": "hit" if hit else "miss",
        }
        if method != "dot":
            plan.meta.update(decision)     # survives into the fallback event
            return None
        plan.meta["_dot"] = memo
        return decision

    @staticmethod
    def run(plan: Plan, detail: dict):
        a, b = plan.args
        sr = plan.operator
        memo = plan.meta["_dot"]
        bn_cols = plan.meta["_bn_cols"]
        if memo is None:                       # empty mask: empty product
            t_keys = np.empty(0, np.int64)
            t_vals = np.empty(0, scipy_dtype(a, b, sr))
        else:
            a_ip, a_ix, a_vv = a._S().csr()
            # the Bᵀ feed, paid only now that the dot kernel is chosen:
            # the operand's own CSR for transpose_b (zero conversion), the
            # store's cached CSC view otherwise
            bt_ip, bt_ix, bt_vv = b._S().csr() if plan.transpose_b \
                else b._S().transpose_csr()
            cast_dt = scipy_dtype(a, b, sr) if sr.scipy_reducible() else None
            if memo.probe is None:
                # the structure-resolution stage, kept on the memo before
                # the write-back below can change the mask (which drops
                # the memo, and so the probe, with it); a probe cancelled
                # between its blocks never reaches the memo
                memo.probe = _mm.masked_dot_probe(
                    a_ip, a_ix, bt_ip, bt_ix, memo.rows, memo.cols, a.ncols,
                    *mult_uses(sr), lengths=memo.lengths)
            hit, t_vals = _mm.masked_dot_reduce(memo.probe, a_vv, bt_vv,
                                                memo.rows.size, sr,
                                                cast_dtype=cast_dt)
            t_keys = memo.allowed[hit]
        plan.meta["_premasked"] = True  # output ⊆ mask by construction
        return finish(plan, t_keys, t_vals, is_vector=False,
                      nrows=a.nrows, ncols=bn_cols)


@register("mxm", "mxm-scipy")
class _MxmScipy:
    """Compiled CSR multiply for plus.times-reducible semirings.  When the
    masked engine engages, the product is filtered by the mask before it
    is ordered (:func:`scipy_mxm`)."""

    @staticmethod
    def applies(plan: Plan):
        a, b = plan.args
        if plan.operator.scipy_reducible() and a.nvals and b.nvals:
            return {"method": plan.meta.get("method", "scipy")}
        return None

    @staticmethod
    def run(plan: Plan, detail: dict):
        a, b = plan.args
        if plan.transpose_b:
            b = b.T
        key_keep = mask_key_filter(plan.mask) if _mask_engaged(plan) \
            else None
        keys, vals = scipy_mxm(a, b, plan.operator, key_keep=key_keep)
        # a filtered product is T⟨M⟩ already: an out=None plan skips
        # finish's second masked write, as the dot rule's does
        plan.meta["_premasked"] = key_keep is not None
        return finish(plan, keys, vals, is_vector=False,
                      nrows=a.nrows, ncols=b.ncols)


@register("mxm", "mxm-expand")
class _MxmExpand:
    """Flop-order expansion + group-reduce: the always-applicable
    reference, serving every semiring the other rules cannot."""

    @staticmethod
    def applies(plan: Plan):
        return {"method": plan.meta.get("method", "expand")}

    @staticmethod
    def run(plan: Plan, detail: dict):
        return _run_expand(
            plan, mask_key_filter(plan.mask) if _mask_engaged(plan) else None)

