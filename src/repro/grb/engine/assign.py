"""The update / assign family: write transactions with no compute stage.

``update-write`` is ``C⟨M⟩⊙= T``, the bare write-back; ``assign-region``
and ``assign-scalar-region`` are the spec's sub-range write, landing
through :func:`~repro.grb.engine.writeback.region_write` when they touch
part of the output and through the plain write-back when they cover it.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch
from ..vector import Vector
from .plan import Plan
from .rules import register
from .writeback import region_write, write_back


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


@register("assign", "assign-region")
class _AssignRegion:
    @staticmethod
    def applies(plan: Plan):
        return {"target": "vector" if isinstance(plan.out, Vector)
                else "matrix"}

    @staticmethod
    def run(plan: Plan, detail: dict):
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
            return region_write(w, region, t_idx[order], t_vals[order],
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
        return region_write(w, region, t_keys[order], uv[order], mask,
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
            return region_write(w, idx, idx, vals, mask, accum, replace)
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
        return region_write(w, t_keys, t_keys, t_vals, mask, accum, replace)
