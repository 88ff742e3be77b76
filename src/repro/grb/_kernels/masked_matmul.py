"""Mask-driven SpGEMM: compute only what the mask keeps.

The paper's headline matrix algorithms hand SuiteSparse:GraphBLAS a mask it
exploits *inside* the multiply: triangle counting's ``C⟨s(L)⟩ = L plus.pair
Uᵀ`` (Sec. IV-E / Alg. 6) touches one dot product per stored edge of ``L``,
never the full wedge count, and batched BC's per-level masked ``plus.first``
products (Sec. IV-B / Alg. 3) skip everything the mask will discard anyway.
This module is the *kernel*; which multiplies run it is decided by the
``mxm-masked-dot`` planner rule in :mod:`repro.grb.engine.mxm`, under
the unified cost model in :mod:`repro.grb.engine.cost` (priced probe
count versus the exact flop count of the full product).

The *dot3* kernel (named after cuSPARSE/GraphBLAS "SDDMM-style" masked
SpGEMM) runs in two stages.  For every mask entry ``(i, j)``,
``masked_dot_probe`` intersects CSR row ``A(i,:)`` with row ``j`` of ``Bᵀ``
(= column ``j`` of ``B``) — fully vectorised: the *shorter* of the two rows
is expanded with :func:`~repro.grb._kernels.gather.concat_ranges` and
probed into the other operand — and ``masked_dot_reduce`` multiplies and
⊕-reduces the hits.  Cost is ``O(Σ_(i,j)∈M min(|A(i,:)|, |B(:,j)|))``
probe lanes — proportional to the mask, not to the flop count of the full
product.

Probe resolution is itself a small per-call chooser with two
mechanisms, both bit-identical:

* **rank bitmap** — one bit per cell of the probed operand's
  ``nrows × inner`` grid: a lane's hit is one byte gather and a shift.
  When the probed side's values feed the multiply (BC's ``plus.first``
  backward levels probing the 4 × n frontier ``W``), a running int32
  count of the set bits, one per byte, turns a hit into its entry
  position with one more gather and a popcount.  It is built when it fits
  the :data:`DOT_DENSE_GRID_CAP` byte budget (TC's 2²⁸-cell grid on
  kron-medium does, without positions);
* **bounded (galloping) search** — otherwise, or when the probe lanes are
  few relative to the probed operand's nnz (:data:`BOUNDED_PROBE_NNZ_RATIO`,
  the very asymmetric-rows regime): each lane binary-searches only its
  target *row span* — O(lanes · log max-row) — and nothing O(nnz) or
  O(grid) is materialised.

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
    "dot_supported", "bounded_searchsorted",
]

#: ⊗ operators the dot kernel can replay bit-identically.
_DOT_MULTS = ("pair", "times", "first", "second")
#: ⊕ monoids whose grouped reduction the dot kernel can replay.
_DOT_MONOIDS = ("plus", "min", "any")


def dot_supported(semiring: Semiring) -> bool:
    """Whether the dot kernel (:func:`masked_dot_probe` +
    :func:`masked_dot_reduce`) can execute this semiring."""
    return (not semiring.positional
            and semiring.mult.name in _DOT_MULTS
            and semiring.add.name in _DOT_MONOIDS)


#: Byte budget of the rank bitmap that resolves the dot's probe lanes:
#: ``grid/8`` bytes for one bit per cell of the probed operand's
#: ``nrows × inner`` grid, ``5·grid/8`` when an int32 prefix count per
#: byte also gives the entry positions (the valued side — BC's
#: ``plus.first`` backward levels).  A grid over it takes the bounded
#: search.  A kernel-mechanism cap, not a planner constant — it tunes how
#: a chosen kernel executes.
DOT_DENSE_GRID_CAP = 1 << 26  # cost: mechanism-cap (byte budget of the dot probe's rank bitmap; tests monkeypatch it here)

#: Probe-lane count below this fraction of the probed operand's nnz takes
#: the bounded (galloping) search: building the rank bitmap would
#: dominate, so each lane binary-searches its target row span instead.
#: This is the very-asymmetric-rows regime — a small mask whose entries
#: intersect short rows against a huge operand.
BOUNDED_PROBE_NNZ_RATIO = 0.125  # cost: mechanism-cap (probe-strategy switch inside the dot kernel, not a planner constant)


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
    — O(lanes · log max-row), and nothing O(nnz) is materialised.  Same
    ``(hit, pos)`` contract as :func:`_probe_membership`.
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


def _probe_membership(indptr: np.ndarray, indices: np.ndarray,
                      seek: np.ndarray, inner: np.int64, need_pos: bool):
    """Resolve linearised ``row · inner + col`` probe keys against a CSR
    structure through its rank bitmap (the caller checks that it fits
    :data:`DOT_DENSE_GRID_CAP`).

    ``seek`` must be built by the caller as one expression over
    refcount-1 temporaries so NumPy's in-place temporary elision kicks in
    — computing it here from named factor arrays would force an extra
    lanes-sized allocation per probe group.  It is consumed: shifted in
    place into each lane's byte index.

    Returns ``(hit, pos)``: a bool mask over the probe lanes and — only
    when ``need_pos`` (the probed side's values feed the multiply) — the
    entry position of each probe.  Entries are stored in key order, so an
    entry's position is the number of set bits before its own.
    """
    nrows = indptr.size - 1
    key = expand_rows(indptr, nrows) * inner + indices
    bits = np.zeros(-(-nrows * int(inner) // 8), dtype=np.uint8)
    # keys are unique, so adding each entry's bit to its byte sets it
    # (``add.at`` has a fast path that ``bitwise_or.at`` lacks)
    np.add.at(bits, key >> 3,
              np.left_shift(np.uint8(1), (key & 7).astype(np.uint8)))
    shift = seek.astype(np.uint8)  # the low byte keeps the bit index
    shift &= 7
    seek >>= 3
    above = bits[seek]  # bit ``shift`` of its byte and every bit above it
    above >>= shift
    hit = (above & 1).view(bool)
    if not need_pos:
        return hit, None
    # set bits up to and including each byte, less those from the lane's
    # own bit up; int32 holds it: the count never exceeds the probed
    # nnz ≤ grid, and a grid within the budget is below 2**31 cells
    rank = np.cumsum(np.bitwise_count(bits), dtype=np.int32)
    return hit, rank[seek] - np.bitwise_count(above)


def _probe_group(group, lens, starts, indices, need_own, probe_rows,
                 p_indptr, p_indices, need_probed, inner64):
    """Expand the row of one operand that each mask entry in ``group``
    reads (``lens[group]`` entries from ``starts``) and probe each element
    into that entry's row (``probe_rows``) of the other, probed operand.

    Returns ``(t, own_pos, probed_pos)`` for the hit lanes; a position
    array is ``None`` unless its side's values feed the multiply.
    """
    counts = lens[group]
    flat = concat_ranges(starts, counts)
    # the rank bitmap's bytes: a bit a cell, and a 4-byte running count
    # per bitmap byte when the probe needs positions
    nbytes = -(-(p_indptr.size - 1) * int(inner64) // 8)
    if (flat.size < BOUNDED_PROBE_NNZ_RATIO * p_indices.size
            or nbytes * (5 if need_probed else 1) > DOT_DENSE_GRID_CAP):
        hit, pos = _probe_bounded(p_indptr, p_indices,
                                  np.repeat(probe_rows, counts),
                                  indices[flat], need_probed)
    else:
        # one expression over refcount-1 temporaries: the multiply and add
        # elide in place (no extra lanes-sized allocation)
        seek = np.repeat(probe_rows, counts) * inner64 + indices[flat]
        hit, pos = _probe_membership(p_indptr, p_indices, seek, inner64,
                                     need_probed)
    return (np.repeat(group, counts)[hit], flat[hit] if need_own else None,
            pos[hit] if need_probed else None)


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
    """The structure-resolution stage of the dot kernel.

    ``A`` and ``Bᵀ`` (the CSC view of ``B``; for ``transpose_b=True`` call
    sites such as TC's ``L plus.pair Uᵀ`` the untransposed operand's own
    CSR arrays, with zero layout conversion) come as canonical CSR
    structures.  ``rows``/``cols`` are the mask coordinates, aligned and
    sorted by ``(row, col)``; ``inner`` is ``A.ncols == B.nrows``.
    ``need_av``/``need_bv`` say whether ``A``'s / ``B``'s values feed the
    multiply (``times``/``first`` read ``A``, ``times``/``second`` read
    ``B``).  ``lengths`` optionally passes the ``(|A(i,:)|, |Bᵀ(j,:)|)``
    pair per mask entry the chooser already derived.

    Returns ``(t, apos, bpos)``: per structural hit, the mask-entry group
    id and — when the respective side's values feed the multiply — the
    operand entry positions.  A pure function of the operand *structures*
    and the mask coordinates, which is what lets the ``mxm-masked-dot``
    rule keep it in the analysis it memoizes on the mask: a repeated
    masked multiply over unchanged operands skips every probe and re-runs
    only the value stage.
    """
    if lengths is not None:
        la, lb = lengths
    else:
        la = a_indptr[rows + 1] - a_indptr[rows]
        lb = bt_indptr[cols + 1] - bt_indptr[cols]
    cand = np.flatnonzero((la > 0) & (lb > 0)).astype(np.int64)
    inner64 = np.int64(inner)

    parts: list = []
    if cand.size:
        probe_a = la[cand] <= lb[cand]
        group_a = cand[probe_a]
        group_b = cand[~probe_a]
        if group_a.size:
            # expand A-side elements, probe them into B's (j, k) structure
            parts.append(_probe_group(
                group_a, la, a_indptr[rows[group_a]], a_indices, need_av,
                cols[group_a], bt_indptr, bt_indices, need_bv, inner64))
        if group_b.size:
            # expand B-side elements, probe them into A's (i, k) structure
            t, bpos, apos = _probe_group(
                group_b, lb, bt_indptr[cols[group_b]], bt_indices, need_bv,
                rows[group_b], a_indptr, a_indices, need_av, inner64)
            parts.append((t, apos, bpos))

    if parts:
        t_parts, apos_parts, bpos_parts = zip(*parts)
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
    """The value stage of the dot kernel: multiply + ⊕-reduce the
    structural hits ``probe`` that :func:`masked_dot_probe` resolved.

    ``a_values``/``bt_values`` are ``A``'s and ``Bᵀ``'s values (``None``
    for a side the multiply does not read), ``n_mask`` the number of mask
    entries, and ``semiring`` must satisfy :func:`dot_supported`.  With
    ``cast_dtype`` set, SciPy-fast-path semantics are replayed: operands
    are cast to it before multiplying and accumulation is plain ``+`` in
    k-ascending order — bit-identical to
    :func:`repro.grb.engine.mxm.scipy_mxm`; with ``None``, those of
    :func:`~repro.grb._kernels.matmul.mxm_expand` (the semiring's own ops
    on the operands' native dtypes).

    Returns ``(hit, vals)``: ``hit`` selects, ascending, the mask entries
    whose dot product has a structural contribution, and ``vals`` holds
    their ⊕-reduced values.  ``pair`` never reads a value array.
    """
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
