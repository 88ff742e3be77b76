"""Mask-driven SpGEMM: compute only what the mask keeps.

The paper's headline matrix algorithms hand SuiteSparse:GraphBLAS a mask it
exploits *inside* the multiply: triangle counting's ``C⟨s(L)⟩ = L plus.pair
Uᵀ`` (Sec. IV-E / Alg. 6) touches one dot product per stored edge of ``L``,
never the full wedge count, and batched BC's per-level masked ``plus.first``
products (Sec. IV-B / Alg. 3) skip everything the mask will discard anyway.
This module is the *kernel*; which multiplies run it is decided by the
``mxm-masked-dot`` planner rule in :mod:`repro.grb.engine.executors`, under
the unified cost model in :mod:`repro.grb.engine.cost` (probe count + one
write per mask entry versus estimated flops + product materialisation).

``masked_dot``
    The *dot3* kernel (named after cuSPARSE/GraphBLAS "SDDMM-style" masked
    SpGEMM).  For every mask entry ``(i, j)`` it intersects CSR row
    ``A(i,:)`` with row ``j`` of ``Bᵀ`` (= column ``j`` of ``B``) — fully
    vectorised: the *shorter* of the two rows is expanded with
    :func:`~repro.grb._kernels.gather.concat_ranges` and probed into the
    other operand.  Cost is ``O(Σ_(i,j)∈M min(|A(i,:)|, |B(:,j)|))`` probe
    lanes — proportional to the mask, not to the flop count of the full
    product.

Probe resolution is itself a small per-call chooser with three
mechanisms, all bit-identical:

* **dense map** — when the probed operand's grid fits the
  :data:`DOT_DENSE_GRID_CAP` byte budget, each lane is one O(1) gather: a
  bool flag map when the probed side's values are unused (TC's
  ``plus.pair``), an int32 slot map holding ``entry + 1`` when they feed
  the multiply (BC's ``plus.first`` backward levels probing the 4 × n
  frontier ``W``);
* **bounded (galloping) search** — when the probe lanes are few relative
  to the probed operand's nnz (:data:`BOUNDED_PROBE_NNZ_RATIO`, the very
  asymmetric-rows regime), each lane binary-searches only its target
  *row span* — O(lanes · log max-row) — and the O(nnz) global key array is
  never materialised;
* **global searchsorted** — otherwise (a grid over the budget, such as
  TC's on kron-medium): one ``searchsorted`` against the sorted
  ``row·inner + col`` keys of every entry.

Bit-identity contract
---------------------
Whatever path resolves a probe, results are bit-identical to the reference
"compute the full product, then discard non-mask entries in the write-back"
pipeline: the dot kernel replays the fallback path's value arithmetic —
operand casts and k-ascending accumulation order for SciPy-reducible
semirings, the semiring's own ops in storage order otherwise — and entries
exist exactly where the pattern product intersects the mask (explicit zeros
from cancellation survive, as the spec requires).  The property suites in
``tests/grb/test_masked_mxm.py`` and ``tests/grb/engine/`` pin this across
semirings, mask kinds and storage formats.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..ops.monoid import PLUS_MONOID
from ..ops.semiring import Semiring
from .gather import concat_ranges, expand_rows
from .matmul import multiply_as
from ...obs.profile import profiled

__all__ = [
    "masked_dot_probe", "masked_dot_reduce",
    "DOT_DENSE_GRID_CAP", "BOUNDED_PROBE_NNZ_RATIO",
    "dot_supported", "bounded_searchsorted", "masked_dot",
]

#: ⊗ operators the dot kernel can replay bit-identically.
_DOT_MULTS = ("pair", "times", "first", "second")
#: ⊕ monoids whose grouped reduction the dot kernel can replay.
_DOT_MONOIDS = ("plus", "min", "any")


def dot_supported(semiring: Semiring) -> bool:
    """Whether :func:`masked_dot` can execute this semiring."""
    return (not semiring.positional
            and semiring.mult.name in _DOT_MULTS
            and semiring.add.name in _DOT_MONOIDS)


#: Byte budget for densifying a probed operand's ``nrows × inner`` grid
#: into a flat map that resolves each probe lane with one O(1) gather: a
#: bool flag map (1 byte a cell) when the probe needs membership only
#: (``pair`` / the pattern side of ``first``/``second`` — TC's
#: ``plus.pair``), an int32 slot map (4 bytes a cell, ``entry + 1`` or 0)
#: when it also needs the entry position (the valued side — BC's
#: ``plus.first`` backward levels).  Both maps share this one budget
#: (:func:`_dense_map_dtype`); a grid over it takes the global search.  A
#: kernel-mechanism cap, not a planner constant — it tunes how a chosen
#: kernel executes.
DOT_DENSE_GRID_CAP = 1 << 26  # cost: mechanism-cap (byte budget of the dot probe's dense maps; tests monkeypatch it here)

#: Probe-lane count below this fraction of the probed operand's nnz takes
#: the bounded (galloping) search: building the O(nnz) dense flags / global
#: key array would dominate, so each lane binary-searches its target row
#: span instead.  This is the very-asymmetric-rows regime — a small mask
#: whose entries intersect short rows against a huge operand.
BOUNDED_PROBE_NNZ_RATIO = 0.125  # cost: mechanism-cap (probe-strategy switch inside the dot kernel, not a planner constant)


def _row_key_array(indptr: np.ndarray, indices: np.ndarray,
                   inner: np.int64) -> np.ndarray:
    """Globally sorted ``row · inner + col`` key of every CSR entry.

    Strictly increasing (rows ascend, columns ascend within each row and are
    unique), so a single ``searchsorted`` resolves membership of any
    ``(row, k)`` pair in O(log nnz).
    """
    nrows = indptr.size - 1
    return expand_rows(indptr, nrows) * inner + indices


def bounded_searchsorted(arr: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                         targets: np.ndarray) -> np.ndarray:
    """Vectorised binary search of ``targets[t]`` in ``arr[lo[t]:hi[t])``.

    Each span must be sorted ascending (CSR row invariant).  Returns the
    per-lane insertion point — the same contract as ``np.searchsorted``
    restricted to the span, expressed as a global position into ``arr``.
    Runs ``ceil(log2(max span))`` full-vector rounds: the classic
    branch-free bisection, which is what makes the asymmetric-row probe
    O(lanes · log max-row) instead of O(nnz + lanes · log nnz).
    """
    lo = lo.astype(np.int64, copy=True)
    hi = hi.astype(np.int64, copy=True)
    if lo.size == 0:
        return lo
    max_span = int((hi - lo).max())
    while max_span > 0:
        active = lo < hi
        mid = (lo + hi) >> 1
        # inactive lanes read a safe position; their lo/hi never move
        probe = np.where(active, mid, 0)
        go_right = active & (arr[probe] < targets)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
        max_span >>= 1
    return lo


def _probe_bounded(indptr: np.ndarray, indices: np.ndarray,
                   probe_rows: np.ndarray, probe_cols: np.ndarray,
                   need_pos: bool):
    """Span-bounded (galloping) probe resolution.

    Each lane binary-searches only ``indices[indptr[row]:indptr[row+1])``
    — O(lanes · log max-row), and the probed operand's O(nnz) key/flag
    arrays are never materialised.  Chosen by :func:`masked_dot` when the
    lane count is small relative to the probed nnz (the very
    asymmetric-rows regime).
    """
    nnz = indices.size
    if nnz == 0:
        return (np.zeros(probe_rows.size, dtype=bool),
                np.zeros(probe_rows.size, dtype=np.int64) if need_pos
                else None)
    lo = indptr[probe_rows]
    hi = indptr[probe_rows + 1]
    pos = bounded_searchsorted(indices, lo, hi, probe_cols)
    safe = np.minimum(pos, nnz - 1)
    hit = (pos < hi) & (indices[safe] == probe_cols)
    return hit, (pos if need_pos else None)


def _dense_map_dtype(grid: int, need_pos: bool):
    """The cell dtype of the dense probe map for a ``grid``-cell operand —
    bool flags for membership, int32 ``entry + 1`` slots when the probe
    needs positions — or ``None`` when that map would not fit
    :data:`DOT_DENSE_GRID_CAP` bytes."""
    dtype = np.dtype(np.int32 if need_pos else bool)
    return dtype if grid * dtype.itemsize <= DOT_DENSE_GRID_CAP else None


def _probe_membership(indptr: np.ndarray, indices: np.ndarray,
                      seek: np.ndarray, inner: np.int64, need_pos: bool):
    """Resolve linearised ``row · inner + col`` probe keys against a CSR
    structure (a dense flag or slot map within :data:`DOT_DENSE_GRID_CAP`
    bytes, one global ``searchsorted`` otherwise).

    ``seek`` must be built by the caller as one expression over
    refcount-1 temporaries so NumPy's in-place temporary elision kicks in
    — computing it here from named factor arrays would force an extra
    lanes-sized allocation per probe group.

    Returns ``(hit, pos)``: a bool mask over the probe lanes and — only
    when ``need_pos`` (the probed side's values feed the multiply) — the
    entry position of each probe.  The slot map stores the same entry
    index the search finds, so both resolutions return the same positions.
    """
    hay = _row_key_array(indptr, indices, inner)
    grid = int(indptr.size - 1) * int(inner)
    dtype = _dense_map_dtype(grid, need_pos)
    if dtype is not None:
        dense = np.zeros(grid, dtype=dtype)
        if not need_pos:
            dense[hay] = True
            return dense[seek], None
        # entry + 1, so 0 marks an empty cell; a grid within the budget
        # holds at most 2**24 entries, far inside int32
        dense[hay] = np.arange(1, hay.size + 1, dtype=dtype)
        pos = dense[seek]
        hit = pos != 0
        pos -= 1
        return hit, pos
    if hay.size == 0:
        return (np.zeros(seek.size, dtype=bool),
                np.zeros(seek.size, dtype=np.int64) if need_pos else None)
    pos = np.searchsorted(hay, seek)
    safe = np.minimum(pos, hay.size - 1)
    hit = hay[safe] == seek
    return hit, (pos if need_pos else None)


@profiled("masked_dot")
def masked_dot(
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    a_values: Optional[np.ndarray],
    bt_indptr: np.ndarray,
    bt_indices: np.ndarray,
    bt_values: Optional[np.ndarray],
    rows: np.ndarray,
    cols: np.ndarray,
    inner: int,
    semiring: Semiring,
    cast_dtype: Optional[np.dtype] = None,
    lengths=None,
):
    """Dot products of ``A(i,:) · B(:,j)`` for each mask entry ``(i, j)``.

    Parameters
    ----------
    a_indptr, a_indices, a_values:
        ``A`` in canonical CSR.
    bt_indptr, bt_indices, bt_values:
        ``Bᵀ`` in canonical CSR — i.e. the CSC view of ``B``.  For
        ``mxm(..., transpose_b=True)`` call sites (TC's ``L plus.pair Uᵀ``)
        this is the *untransposed* operand's own CSR arrays: the golden case
        where the kernel runs with zero layout conversion.
    rows, cols:
        Mask coordinates, aligned, sorted by ``(row, col)`` (the mask's own
        allowed-key order).
    inner:
        The contracted dimension ``A.ncols == B.nrows``.
    semiring:
        Must satisfy :func:`dot_supported`.
    cast_dtype:
        When set, replay SciPy-fast-path semantics: operands are cast to
        this dtype before multiplying and accumulation is plain ``+`` in
        k-ascending order — bit-identical to
        :func:`repro.grb.engine.executors.scipy_mxm`.  When ``None``,
        replay :func:`~repro.grb._kernels.matmul.mxm_expand` semantics (the
        semiring's own ops on the operands' native dtypes).
    lengths:
        Optional precomputed ``(|A(i,:)|, |Bᵀ(j,:)|)`` pair per mask entry
        — the chooser already derived it (from per-row/per-column entry
        counts, without materialising any layout conversion), so the
        kernel need not gather it again.

    Returns
    -------
    ``(hit, vals)`` where ``hit`` indexes into ``rows``/``cols`` selecting
    the mask entries whose dot product has at least one structural
    contribution (ascending), and ``vals`` holds the ⊕-reduced values.
    Structure-only multiplies (``pair``) never touch either operand's value
    array.
    """
    mult_name = semiring.mult.name
    need_av = mult_name in ("times", "first")
    need_bv = mult_name in ("times", "second")
    probe = masked_dot_probe(a_indptr, a_indices, bt_indptr, bt_indices,
                             rows, cols, inner, need_av, need_bv,
                             lengths=lengths)
    return masked_dot_reduce(probe, a_values, bt_values, rows.size,
                             semiring, cast_dtype=cast_dtype)


@profiled("masked_dot_probe")
def masked_dot_probe(
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    bt_indptr: np.ndarray,
    bt_indices: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    inner: int,
    need_av: bool,
    need_bv: bool,
    lengths=None,
):
    """The structure-resolution stage of :func:`masked_dot`.

    Returns ``(t, apos, bpos)``: per structural hit, the mask-entry group
    id and — when the respective side's values feed the multiply — the
    operand entry positions.  A pure function of the operand *structures*
    and the mask coordinates, which is what makes it a reusable plan-cache
    operand feed (:mod:`repro.grb.engine.plancache`): repeated identical
    masked multiplies skip every probe and re-run only the value stage.
    """
    if lengths is not None:
        la, lb = lengths
    else:
        la = a_indptr[rows + 1] - a_indptr[rows]
        lb = bt_indptr[cols + 1] - bt_indptr[cols]
    cand = np.flatnonzero((la > 0) & (lb > 0)).astype(np.int64)
    inner64 = np.int64(inner)

    t_parts: list = []
    apos_parts: list = []
    bpos_parts: list = []
    if cand.size:
        probe_a = la[cand] <= lb[cand]
        group_a = cand[probe_a]
        group_b = cand[~probe_a]
        if group_a.size:
            # expand A-side elements, probe them into B's (j, k) structure
            counts = la[group_a]
            flat = concat_ranges(a_indptr[rows[group_a]], counts)
            if flat.size < BOUNDED_PROBE_NNZ_RATIO * bt_indices.size:
                hit, pos = _probe_bounded(bt_indptr, bt_indices,
                                          np.repeat(cols[group_a], counts),
                                          a_indices[flat], need_bv)
            else:
                # one expression over refcount-1 temporaries: the multiply
                # and add elide in place (no extra lanes-sized allocation)
                seek = np.repeat(cols[group_a], counts) * inner64 \
                    + a_indices[flat]
                hit, pos = _probe_membership(bt_indptr, bt_indices, seek,
                                             inner64, need_bv)
            t_parts.append(np.repeat(group_a, counts)[hit])
            apos_parts.append(flat[hit] if need_av else None)
            bpos_parts.append(pos[hit] if need_bv else None)
        if group_b.size:
            # expand B-side elements, probe them into A's (i, k) structure
            counts = lb[group_b]
            flat = concat_ranges(bt_indptr[cols[group_b]], counts)
            if flat.size < BOUNDED_PROBE_NNZ_RATIO * a_indices.size:
                hit, pos = _probe_bounded(a_indptr, a_indices,
                                          np.repeat(rows[group_b], counts),
                                          bt_indices[flat], need_av)
            else:
                seek = np.repeat(rows[group_b], counts) * inner64 \
                    + bt_indices[flat]
                hit, pos = _probe_membership(a_indptr, a_indices, seek,
                                             inner64, need_av)
            t_parts.append(np.repeat(group_b, counts)[hit])
            apos_parts.append(pos[hit] if need_av else None)
            bpos_parts.append(flat[hit] if need_bv else None)

    if t_parts:
        t = np.concatenate(t_parts)
        apos = np.concatenate(apos_parts) if need_av else None
        bpos = np.concatenate(bpos_parts) if need_bv else None
    else:
        t = np.empty(0, dtype=np.int64)
        apos = bpos = t
    return t, apos, bpos


@profiled("masked_dot_reduce")
def masked_dot_reduce(
    probe,
    a_values: Optional[np.ndarray],
    bt_values: Optional[np.ndarray],
    n_mask: int,
    semiring: Semiring,
    cast_dtype: Optional[np.dtype] = None,
):
    """The value stage of :func:`masked_dot`: multiply + ⊕-reduce the
    structural hits resolved by :func:`masked_dot_probe`."""
    t, apos, bpos = probe
    mult_name = semiring.mult.name

    # Per-hit multiply.  Within one mask entry, hits arrive in ascending-k
    # order (both operand rows are sorted), which is exactly the
    # accumulation order of the SciPy kernel and of mxm_expand's stable
    # group-reduce — the basis of the bit-identity guarantee.
    if cast_dtype is not None:
        dt = np.dtype(cast_dtype)
        mult = multiply_as(
            mult_name,
            a_values[apos] if mult_name in ("times", "first") else None,
            bt_values[bpos] if mult_name in ("times", "second") else None,
            t.size, dt)
        if np.issubdtype(dt, np.inexact):
            # SciPy's compiled CSR matmul accumulates each output with a
            # plain sequential loop, and reduceat switches to pairwise
            # summation on longer segments, which changes the last bits of
            # a float sum: replay the sequential order in the accumulator
            return PLUS_MONOID.reduce_dense(t, mult, n_mask)
        return PLUS_MONOID.reduce_groups(t, mult, n_mask)
    if mult_name == "pair":
        mult = np.ones(t.size, dtype=np.uint64)
    elif mult_name == "first":
        av = a_values[apos]
        mult = semiring.mult(av, av)
    elif mult_name == "second":
        bv = bt_values[bpos]
        mult = semiring.mult(bv, bv)
    else:
        mult = semiring.mult(a_values[apos], bt_values[bpos])
    return semiring.add.reduce_groups(t, mult, n_mask)
