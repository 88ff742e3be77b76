"""Select operators (``GrB_IndexUnaryOp`` used with ``GrB_select``).

A select operator is a boolean predicate ``f(value, i, j, thunk)`` evaluated
on every stored entry; entries where it returns ``False`` are dropped
(Sec. III-B-f of the paper).  All predicates are vectorised.

Format-aware evaluation: predicates declare whether they read entry
coordinates (``uses_coords``).  Value-only predicates (``valuegt``,
``nonzero``, ...) are evaluated without materialising the per-entry row
array at all, and coordinate predicates pull rows from the storage layer's
``entry_rows`` via :func:`eval_select`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from ...obs.profile import profiled

__all__ = [
    "SelectOp",
    "eval_unary",
    "eval_select",
    "TRIL",
    "TRIU",
    "DIAG",
    "OFFDIAG",
    "NONZERO",
    "VALUEEQ",
    "VALUENE",
    "VALUEGT",
    "VALUEGE",
    "VALUELT",
    "VALUELE",
    "ROWLE",
    "COLLE",
    "by_name",
]


@dataclass(frozen=True)
class SelectOp:
    """A vectorised entry predicate.

    ``fn(values, i, j, thunk) -> bool array``; for vectors ``j`` is zeros.
    ``uses_coords=False`` marks value-only predicates, which callers may
    evaluate with ``i``/``j`` set to ``None`` (no coordinate expansion).
    ``keyed=True`` marks predicates that accept the *linearised* matrix
    coordinate directly (``i`` = ``row·ncols + col`` keys, ``j=None``):
    fused epilogues then skip the div/mod split a kernel's raw key output
    would otherwise round-trip through (the op must still handle real
    ``(i, j)`` pairs for the materialised path).

    A thunk may be a :class:`~repro.grb.vector.Vector`: the predicate then
    receives the vector's ``(present, dense)`` arrays *as they are when it
    runs* — here, the one place every select path (the ``select`` rules,
    fused and materialised epilogues, the ``Vector`` / ``Matrix`` methods)
    calls through — read without marking the store exported, so a later
    write-back into that vector may still land in place.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray, object], np.ndarray]
    uses_coords: bool = True
    keyed: bool = False

    def __call__(self, values, i, j, thunk) -> np.ndarray:
        if hasattr(thunk, "_thunk_view"):
            thunk = thunk._thunk_view()
        return np.asarray(self.fn(values, i, j, thunk), dtype=bool)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SelectOp({self.name})"


@profiled("eval_unary")
def eval_unary(op, values: np.ndarray, thunk, rows, cols) -> np.ndarray:
    """Evaluate a ``UnaryOp`` over entry arrays — the one definition of
    apply's value semantics (positional i/j dispatch, thunk arity, the
    ``out_dtype`` cast), shared by ``Vector.apply`` / ``Matrix.apply`` and
    the engine's apply rule and fused epilogues so the paths cannot drift.

    ``rows`` / ``cols`` are zero-arg callables supplying the coordinate
    arrays; they are invoked only for positional ops, so value ops never
    pay a coordinate expansion.
    """
    if op.positional == "i":
        out = op.fn(rows())
    elif op.positional == "j":
        out = op.fn(cols())
    elif thunk is not None:
        out = op.fn(values, thunk)
    else:
        out = op.fn(values)
    if op.out_dtype is not None:
        out = out.astype(op.out_dtype, copy=False)
    return out


@profiled("eval_select")
def eval_select(op: "SelectOp", values: np.ndarray, store, thunk) -> np.ndarray:
    """Keep-mask of a predicate over a matrix store's entries.

    Value-only predicates never touch coordinates; the rest read row ids
    from the store's ``entry_rows`` and column ids from the canonical
    view.
    """
    if not op.uses_coords:
        return op(values, None, None, thunk)
    return op(values, store.entry_rows(), store.csr()[1], thunk)


TRIL = SelectOp("tril", lambda v, i, j, k: j <= i + (k or 0))
TRIU = SelectOp("triu", lambda v, i, j, k: j >= i + (k or 0))
DIAG = SelectOp("diag", lambda v, i, j, k: j == i + (k or 0))
OFFDIAG = SelectOp("offdiag", lambda v, i, j, k: j != i + (k or 0))
NONZERO = SelectOp("nonzero", lambda v, i, j, k: v.astype(bool), uses_coords=False)
VALUEEQ = SelectOp("valueeq", lambda v, i, j, k: v == k, uses_coords=False)
VALUENE = SelectOp("valuene", lambda v, i, j, k: v != k, uses_coords=False)
VALUEGT = SelectOp("valuegt", lambda v, i, j, k: v > k, uses_coords=False)
VALUEGE = SelectOp("valuege", lambda v, i, j, k: v >= k, uses_coords=False)
VALUELT = SelectOp("valuelt", lambda v, i, j, k: v < k, uses_coords=False)
VALUELE = SelectOp("valuele", lambda v, i, j, k: v <= k, uses_coords=False)
ROWLE = SelectOp("rowle", lambda v, i, j, k: i <= k)
COLLE = SelectOp("colle", lambda v, i, j, k: j <= k)

_REGISTRY = {
    op.name: op
    for op in (TRIL, TRIU, DIAG, OFFDIAG, NONZERO, VALUEEQ, VALUENE,
               VALUEGT, VALUEGE, VALUELT, VALUELE, ROWLE, COLLE)
}


def by_name(name: str) -> SelectOp:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown select op {name!r}") from None
