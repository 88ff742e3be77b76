"""Masked GraphBLAS operations (Table I of the paper).

Each function mirrors one row of Table I, written in the C API's
"output-first" style::

    vxm(w, u, A, semiring, mask=..., accum=..., replace=...)   # wᵀ⟨mᵀ⟩⊙= uᵀ ⊕.⊗ A

Every call is *described before it is executed*: the function builds a
:class:`~repro.grb.engine.plan.Plan` (op, operands, mask kind, accumulator,
descriptor bits, output target) and runs it at once through
:func:`repro.grb.engine.execute`, which routes the plan through the
registered planner rules under the unified cost model
(:mod:`repro.grb.engine.cost`).  Every call runs when it is made — the
spec's blocking mode, which it permits in non-blocking mode too.  The
kernel strategies themselves — the dot3 masked SpGEMM, the SciPy sparse
products, the element-wise merges and probes, the gather references — are
registered by the engine's rule families (:mod:`~repro.grb.engine.mxm`,
:mod:`~repro.grb.engine.mxv`, :mod:`~repro.grb.engine.entrywise`,
:mod:`~repro.grb.engine.assign`, all landing through
:mod:`~repro.grb.engine.writeback`); their decisions are observable through
:func:`repro.obs.decision` records and forceable through the cost
constants (or :func:`repro.grb.engine.force_rule`); the masked-dot rule
memoizes its analysis on the product's mask
(:mod:`repro.grb.engine.plancache` counts it).

All operations share the write-back transaction implemented in
:mod:`repro.grb._kernels.maskwrite`: compute ``T``, merge with the
accumulator, then write through the (possibly structural / complemented)
mask, honouring replace semantics.  The output object always keeps its
declared type; computed values are cast into it.

Algorithm hot loops that want more than one operation per output pass use
the engine's *fused plans* directly (``plan_mxv(...).then_select(...)``,
``plan_mxm(...).then_reduce_rowwise(...)``) — see the "Execution engine"
section of the README.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import engine
from ._kernels import apply_select as _selectops
from .descriptor import Descriptor
from .errors import DimensionMismatch, InvalidValue
from .mask import as_mask, complement as _complement, structure as _structure
from .matrix import Matrix, _index_array
from .ops.binary import BinaryOp
from .ops.monoid import Monoid
from .ops.semiring import Semiring
from .ops.unary import UnaryOp
from .vector import Vector

__all__ = [
    "vxm", "mxv", "mxm", "ewise_add", "ewise_mult", "apply", "select",
    "assign", "assign_scalar", "extract", "update", "reduce_rowwise",
    "reduce_colwise", "transpose", "kronecker",
]


def _check(cond: bool, msg: str):
    if not cond:
        raise DimensionMismatch(msg)


def _is_vector(x) -> bool:
    return isinstance(x, Vector)


def _resolve_desc(desc: Optional[Descriptor], mask, replace: bool, *,
                  op: str = "", transposes: bool = False):
    """Fold a bundled :class:`~repro.grb.descriptor.Descriptor` into the
    keyword form; returns ``(mask, replace)``.

    The structural/complement bits apply to a supplied mask object (they
    are no-ops without one); ``replace`` ORs with the keyword.
    Transposition bits are honoured only where the operation defines them
    (``mxm``) — anywhere else they raise rather than being silently
    dropped.
    """
    if desc is None:
        return mask, replace
    if not transposes and (desc.transpose_a or desc.transpose_b):
        raise InvalidValue(
            f"{op or 'operation'}: descriptor transpose bits are only "
            f"supported on mxm (transpose operands explicitly instead)")
    if mask is not None:
        if desc.mask_structural:
            mask = _structure(as_mask(mask))
        if desc.mask_complement:
            mask = _complement(as_mask(mask))
    return mask, replace or desc.replace


def _region(w, indices, op: str):
    """``indices`` (``None`` = ``GrB_ALL``; ``(rows, cols)`` for a matrix,
    either part ``None``) as int64 arrays, checked against ``w``'s
    dimensions before anything is written."""
    if indices is None:
        return None
    if _is_vector(w):
        return _index_array(indices, w.size, op)
    rows, cols = indices
    return (None if rows is None else _index_array(rows, w.nrows, op),
            None if cols is None else _index_array(cols, w.ncols, op))


# ---------------------------------------------------------------------------
# matrix multiplication (mxm / mxv / vxm)
# ---------------------------------------------------------------------------

def vxm(w: Vector, u: Vector, a: Matrix, semiring: Semiring, *,
        mask=None, accum: Optional[BinaryOp] = None, replace: bool = False,
        desc: Optional[Descriptor] = None):
    """``wᵀ⟨mᵀ⟩⊙= uᵀ ⊕.⊗ A`` — the "push" direction.

    Cost is proportional to the total out-degree of ``u``'s entries
    (``vxm-sparse-push``).  A plus.times-reducible semiring sums each
    output in SciPy's order, so the result is byte for byte SciPy's
    ``uᵀ A`` whatever the frontier's density.
    """
    mask, replace = _resolve_desc(desc, mask, replace, op="vxm")
    return engine.execute(engine.plan_vxm(
        w, u, a, semiring, mask=mask, accum=accum, replace=replace))


def mxv(w: Vector, a: Matrix, u: Vector, semiring: Semiring, *,
        mask=None, accum: Optional[BinaryOp] = None, replace: bool = False,
        desc: Optional[Descriptor] = None):
    """``w⟨m⟩⊙= A ⊕.⊗ u`` — the "pull" direction.

    When a mask is supplied, only the mask-selected rows of ``A`` are
    examined (the complemented-structural-mask BFS pull touches exactly the
    unvisited rows).  A plain-``plus`` accumulate into a *full* float
    output fuses the write-back into the multiply's output pass
    (``mxv-fused-dense-accum`` — PageRank's hot step).
    """
    mask, replace = _resolve_desc(desc, mask, replace, op="mxv")
    return engine.execute(engine.plan_mxv(
        w, a, u, semiring, mask=mask, accum=accum, replace=replace))


def mxm(c: Matrix, a: Matrix, b: Matrix, semiring: Semiring, *,
        mask=None, accum: Optional[BinaryOp] = None, replace: bool = False,
        transpose_a: bool = False, transpose_b: bool = False,
        desc: Optional[Descriptor] = None):
    """``C⟨M⟩⊙= A ⊕.⊗ B`` with optional operand transposition.

    ``transpose_b=True`` mirrors the descriptor-based ``F Bᵀ`` pull step of
    the paper's BC (Sec. IV-B): the transpose is taken from the operand's
    cache, never re-materialised per call.

    With a mask, the multiply itself is mask-driven: the planner routes
    non-complemented masks to the dot3 kernel
    (:mod:`repro.grb._kernels.masked_matmul`) when the unified cost model
    prices it cheaper; otherwise the SciPy / expand fallbacks drop the
    product entries the mask discards before they are sorted.  Results
    are bit-identical to the unmasked-then-write reference on every path.
    """
    mask, replace = _resolve_desc(desc, mask, replace, op="mxm",
                                  transposes=True)
    if desc is not None:
        transpose_a = transpose_a or desc.transpose_a
        transpose_b = transpose_b or desc.transpose_b
    return engine.execute(engine.plan_mxm(
        c, a, b, semiring, mask=mask, accum=accum, replace=replace,
        transpose_a=transpose_a, transpose_b=transpose_b))


# ---------------------------------------------------------------------------
# element-wise
# ---------------------------------------------------------------------------

def ewise_add(out, a, b, op: BinaryOp, *, mask=None, accum=None,
              replace: bool = False, desc: Optional[Descriptor] = None):
    """``C⟨M⟩⊙= A op∪ B`` (union of structures; op only on the overlap)."""
    mask, replace = _resolve_desc(desc, mask, replace, op="ewise_add")
    return engine.execute(engine.plan_ewise_add(
        out, a, b, op, mask=mask, accum=accum, replace=replace))


def ewise_mult(out, a, b, op: BinaryOp, *, mask=None, accum=None,
               replace: bool = False, desc: Optional[Descriptor] = None):
    """``C⟨M⟩⊙= A op∩ B`` (intersection of structures)."""
    mask, replace = _resolve_desc(desc, mask, replace, op="ewise_mult")
    return engine.execute(engine.plan_ewise_mult(
        out, a, b, op, mask=mask, accum=accum, replace=replace))


# ---------------------------------------------------------------------------
# apply / select / update
# ---------------------------------------------------------------------------

def apply(out, src, op: UnaryOp, thunk=None, *, mask=None, accum=None,
          replace: bool = False, desc: Optional[Descriptor] = None):
    """``C⟨M⟩⊙= f(A, k)``."""
    mask, replace = _resolve_desc(desc, mask, replace, op="apply")
    return engine.execute(engine.plan_apply(
        out, src, op, thunk, mask=mask, accum=accum, replace=replace))


def select(out, src, op, thunk=None, *, mask=None, accum=None,
           replace: bool = False, desc: Optional[Descriptor] = None):
    """``C⟨M⟩⊙= A⟨f(A, k)⟩``: filter entries by a predicate."""
    if isinstance(op, str):
        op = _selectops.by_name(op)
    mask, replace = _resolve_desc(desc, mask, replace, op="select")
    return engine.execute(engine.plan_select(
        out, src, op, thunk, mask=mask, accum=accum, replace=replace))


def update(out, t, *, mask=None, accum=None, replace: bool = False,
           desc: Optional[Descriptor] = None):
    """``C⟨M⟩⊙= T``: write an already computed object through the mask.

    With ``accum`` this is the paper's ``P += F`` idiom; with a mask it is
    ``p⟨s(q)⟩ = q``.  Plan-routed like every other call: ``update-write``
    runs the bare write-back transaction, in place into a writable bitmap
    output (the BFS parent update costs O(|q|) per level).
    """
    mask, replace = _resolve_desc(desc, mask, replace, op="update")
    return engine.execute(engine.plan_update(
        out, t, mask=mask, accum=accum, replace=replace))


# ---------------------------------------------------------------------------
# assign / extract
# ---------------------------------------------------------------------------

def assign(w, u, indices=None, *, mask=None, accum=None,
           replace: bool = False, desc: Optional[Descriptor] = None):
    """``w⟨m⟩(i)⊙= u`` — assign a vector (or matrix) into a sub-range.

    ``indices=None`` means ``GrB_ALL``.  For matrices pass
    ``indices=(rows, cols)``.  Positions outside the index range are never
    modified; inside the range the output takes ``u``'s pattern (so range
    positions absent from ``u`` lose their entry, per the spec).  An index
    outside ``w`` raises :class:`~repro.grb.errors.IndexOutOfBounds` before
    anything is written.
    """
    mask, replace = _resolve_desc(desc, mask, replace, op="assign")
    return engine.execute(engine.plan_assign(
        w, u, _region(w, indices, "assign"), mask=mask, accum=accum,
        replace=replace))


def assign_scalar(w, value, indices=None, *, mask=None, accum=None,
                  replace: bool = False, desc: Optional[Descriptor] = None):
    """``w⟨m⟩(i)⊙= s`` — assign a scalar to a sub-range (or everywhere).

    The scalar lands on *every selected position* (subject to the mask), not
    just existing entries — this is how the paper densifies vectors
    (``r(0:n-1) = teleport``, ``B(:) = 1.0``).  Positions outside the index
    range are never modified; an index outside ``w`` raises
    :class:`~repro.grb.errors.IndexOutOfBounds` before anything is written.
    """
    mask, replace = _resolve_desc(desc, mask, replace, op="assign_scalar")
    return engine.execute(engine.plan_assign_scalar(
        w, value, _region(w, indices, "assign_scalar"), mask=mask,
        accum=accum, replace=replace))


def extract(w, u, indices, *, mask=None, accum=None, replace: bool = False):
    """``w⟨m⟩⊙= u(i)``: subvector extract (Sec. III-B-d).

    ``w[k] = u[indices[k]]`` for positions where ``u`` has an entry.
    Duplicate indices are allowed (the same source entry fans out); an
    index outside ``u`` raises :class:`~repro.grb.errors.IndexOutOfBounds`.
    """
    mask = as_mask(mask)
    indices = _index_array(indices, u.size, "extract")
    _check(w.size == indices.size, "extract: output size mismatch")
    present, dense = u._store.bitmap()
    hit = present[indices]
    t_idx = np.flatnonzero(hit).astype(np.int64)
    t_vals = dense[indices[t_idx]]
    return engine.write_back(w, t_idx, t_vals, mask, accum, replace)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def reduce_rowwise(w: Vector, a: Matrix, monoid: Monoid, *, mask=None,
                   accum=None, replace: bool = False):
    """``w⟨m⟩⊙= [⊕ⱼ A(:, j)]``: per-row reduction into a vector."""
    _check(w.size == a.nrows, "reduce_rowwise: output size mismatch")
    t = a.reduce_rowwise(monoid)
    return engine.write_back(w, t._idx, t._vals, as_mask(mask), accum,
                             replace)


def reduce_colwise(w: Vector, a: Matrix, monoid: Monoid, *, mask=None,
                   accum=None, replace: bool = False):
    """``w⟨m⟩⊙= [⊕ᵢ A(i, :)]``: per-column reduction into a vector."""
    _check(w.size == a.ncols, "reduce_colwise: output size mismatch")
    t = a.reduce_colwise(monoid)
    return engine.write_back(w, t._idx, t._vals, as_mask(mask), accum,
                             replace)


def transpose(c: Matrix, a: Matrix, *, mask=None, accum=None,
              replace: bool = False):
    """``C⟨M⟩⊙= Aᵀ``: transposition as a standalone masked operation."""
    _check(c.nrows == a.ncols and c.ncols == a.nrows,
           f"transpose: C shape {c.shape} != ({a.ncols}, {a.nrows})")
    t = a.T
    return engine.write_back(c, t.keys(), t.values, as_mask(mask), accum,
                             replace)


# ---------------------------------------------------------------------------
# kronecker
# ---------------------------------------------------------------------------

def kronecker(a: Matrix, b: Matrix, op: BinaryOp) -> Matrix:
    """``C = A ⊗kron B``: the Kronecker product with multiply op ``op``.

    Used by the Graph500-style Kron generator.  Fully vectorised expansion:
    one output entry per (A entry, B entry) pair.
    """
    ar, ac, av = a.to_coo()
    br, bc, bv = b.to_coo()
    na = av.size
    nb = bv.size
    i = (np.repeat(ar, nb) * np.int64(b.nrows)) + np.tile(br, na)
    j = (np.repeat(ac, nb) * np.int64(b.ncols)) + np.tile(bc, na)
    vals = op(np.repeat(av, nb), np.tile(bv, na))
    return Matrix.from_coo(i, j, vals, a.nrows * b.nrows, a.ncols * b.ncols)
