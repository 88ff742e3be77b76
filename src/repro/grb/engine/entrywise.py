"""The entry-wise family: ``ewise_add``, ``ewise_mult``, ``apply`` and
``select``, one rule each.

Each rule picks its method from the operands' formats, as SuiteSparse
picks one operation's method from its operands' sparsity, and reports the
choice in its decision detail:

* ``ewise-union`` — the dense flag/value merge when both operands are
  bitmap-resident, the sorted-key merge otherwise (``layout``);
* ``ewise-intersect`` — walks the smallest sorted participant (an operand,
  or a non-complemented sparse mask) and probes the others, or ANDs the
  flags when every participant is bitmap (``layout``, ``driver``);
* ``apply-entrywise`` / ``select-entrywise`` — evaluation directly on the
  source's arrays; a value-only predicate never expands coordinates
  (``path``).

The kernels are :mod:`repro.grb._kernels.ewise`'s and
:mod:`repro.grb._kernels.apply_select`'s, the same functions the
``Vector`` / ``Matrix`` methods call.
"""

from __future__ import annotations

import numpy as np

from .._kernels import apply_select as _selectops
from .._kernels import ewise as _ewise
from ..vector import Vector
from .plan import Plan
from .rules import register
from .writeback import finish_like


def _entries(src):
    """``(keys, values, rows, cols)`` of a source's stored entries; the
    coordinate arrays come from zero-arg callables, built on demand."""
    if isinstance(src, Vector):
        idx = src._idx
        return (idx, src._vals, lambda: idx,
                lambda: np.zeros(idx.size, dtype=np.int64))
    return (src.keys(), src.values, src._S().entry_rows,
            lambda: src.indices)


@register("ewise_add", "ewise-union")
class _EwiseUnion:
    """``A ⊕∪ B`` (:func:`~repro.grb._kernels.ewise.union`)."""

    @staticmethod
    def applies(plan: Plan):
        a, b = plan.args
        both = a.format == "bitmap" and b.format == "bitmap"
        return {"layout": "bitmap" if both else "sorted"}

    @staticmethod
    def run(plan: Plan, detail: dict):
        a, b = plan.args
        return finish_like(plan, a, *_ewise.union(a, b, plan.operator))


@register("ewise_mult", "ewise-intersect")
class _EwiseIntersect:
    """``A ⊗∩ B`` (:func:`~repro.grb._kernels.ewise.intersect`).

    An intersection is a subset of each operand — and of a
    non-complemented mask's allowed keys, when the result is only ever
    seen through that mask.  The smallest *sorted* key set among those (a
    sparse operand, a sparse mask) is walked and every operand not walked
    probed at it: ``W⟨s(S)⟩ = B div∩ P`` gathers ``B`` and ``P`` at the
    level's keys, ``W ×∩ P`` gathers ``P`` at ``W``'s.  With every participant
    bitmap-resident there is nothing sorted to walk, and the flags are
    ANDed."""

    @staticmethod
    def applies(plan: Plan):
        walk = plan.meta["_walk"] = _ewise.intersect_walk(*plan.args,
                                                          plan.mask)
        if walk is None:
            return {"layout": "bitmap"}
        return {"layout": "probe", "driver": walk[0]}

    @staticmethod
    def run(plan: Plan, detail: dict):
        a, b = plan.args
        return finish_like(plan, a, *_ewise.intersect(
            a, b, plan.operator, plan.meta.pop("_walk")))


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
        keys, vals, rows, cols = _entries(src)
        vals = _selectops.eval_unary(plan.operator, vals,
                                     plan.meta.get("_thunk"), rows, cols)
        return finish_like(plan, src, keys, vals)


@register("select", "select-entrywise")
class _SelectEntrywise:
    """``A⟨f(A, k)⟩`` (:func:`~repro.grb._kernels.apply_select.eval_select`):
    a value-only predicate reads the values alone; a coordinate predicate
    reads row ids from the store's ``entry_rows`` and column ids from the
    canonical view."""

    @staticmethod
    def applies(plan: Plan):
        return {"path": "coords" if plan.operator.uses_coords
                else "value-only"}

    @staticmethod
    def run(plan: Plan, detail: dict):
        src = plan.args[0]
        keys, vals, rows, cols = _entries(src)
        keep = _selectops.eval_select(plan.operator, vals,
                                      plan.meta.get("_thunk"), rows, cols)
        return finish_like(plan, src, keys[keep], vals[keep])
