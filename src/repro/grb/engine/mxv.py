"""The ``mxv`` / ``vxm`` family: vector products on the gather/push
kernels.

``mxv-fused-dense-accum`` takes a plain-``plus`` accumulate into a full
output on SciPy's dense product; otherwise ``mxv-gather`` and
``vxm-sparse-push`` run the reference kernels, which replay SciPy's
summation order for plus.times-reducible semirings — one answer at any
frontier density.
"""

from __future__ import annotations

import numpy as np

from .._kernels.matmul import mxv_gather, vxm_sparse
from . import cost
from .mxm import mult_uses, scipy_dtype, scipy_operand
from .plan import Plan
from .rules import register
from .writeback import finish, mask_rows


def _replay(plan: Plan):
    """``(use_first, use_second, cast_dtype)`` for a vector product's
    operands in ⊗ order.  A plus.times-reducible semiring runs the
    gather/push kernel in its SciPy-replay mode, as the ``mxm`` expansion
    does: SciPy's dtype, and no value array the multiply ignores.  Any
    other semiring reads both sides and casts nothing."""
    sr = plan.operator
    if not sr.scipy_reducible():
        return True, True, None
    return (*mult_uses(sr), scipy_dtype(*plan.args, sr))


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
        use_a, use_b = mult_uses(sr)
        dt = scipy_dtype(a, u, sr)
        present, dense = u._store.bitmap()
        sa = scipy_operand(a, use_a, dt)
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
        rows = mask_rows(plan.mask, a.nrows)
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

