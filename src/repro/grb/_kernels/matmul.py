"""Semiring matrix-multiply kernels (general path).

Three shapes, all fully vectorised (no per-row Python loops):

``vxm_sparse``
    ``wᵀ = uᵀ ⊕.⊗ A`` driven by the *sparse frontier* ``u`` — the "push"
    step of the paper's BFS (Sec. IV-A).  Cost is proportional to the sum of
    the out-degrees of the frontier.

``mxv_gather``
    ``w = A ⊕.⊗ u`` computed row-by-row over an explicit row set — the
    "pull" step when the row set is the complemented mask (the unvisited
    nodes).  Cost is proportional to the sum of the in-degrees of the rows
    examined.

``mxm_expand``
    ``C = A ⊕.⊗ B`` by flop-order expansion: every multiply the semiring
    performs becomes one row of a COO triple which is then group-reduced by
    the ⊕ monoid.  Memory is O(flops), and so is time — no per-call term
    that scales with a dimension — which makes it the kernel of both ends
    of the planner's ``mxm`` list (:mod:`repro.grb.engine.mxm`): the
    semirings SciPy cannot run (``min.plus``, ``any.secondi`` …) whatever
    their size, and, in its SciPy-replay mode (``cast_dtype``), the
    plus.times-reducible products whose flop count is below what the
    compiled kernel spends setting up (the near-empty levels of a batched
    traversal).  The compiled path itself is that module's
    ``scipy_mxm``.

``vxm_sparse`` and ``mxv_gather`` take the same SciPy-replay mode: a
plus.times-reducible ``vxm``/``mxv`` has one answer, byte for byte
SciPy's, whatever its frontier density.

The positional coordinate convention follows
:mod:`repro.grb.ops.positional`: the multiplier sees ``a(i, k) ⊗ b(k, j)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..ops.semiring import Semiring
from .gather import concat_ranges, csr_gather_rows, expand_rows
from ...obs.profile import profiled

__all__ = ["vxm_sparse", "mxv_gather", "mxm_expand", "mxv_pull_probe",
           "multiply_as"]


def _multiply(semiring: Semiring, a_vals, b_vals, i, k, j):
    """Apply the ⊗ operator to aligned argument arrays."""
    if semiring.positional:
        return semiring.mult.select(i, k, j)
    return semiring.mult(a_vals, b_vals)


def multiply_as(mult_name: str, a_vals, b_vals, count: int,
                dtype: np.dtype) -> np.ndarray:
    """``count`` aligned ⊗ results the way SciPy's compiled product forms
    them: every operand cast to ``dtype`` first, and a side whose values
    the multiply ignores standing in as all ones — so ``first``/``second``
    pass the other side through and ``pair`` is ones.  An ignored side may
    be ``None``."""
    if mult_name == "pair":
        return np.ones(count, dtype=dtype)
    if mult_name == "first":
        return a_vals.astype(dtype, copy=False)
    if mult_name == "second":
        return b_vals.astype(dtype, copy=False)
    # a compiled loop raises no floating-point flags (inf · 0, overflow)
    with np.errstate(invalid="ignore", over="ignore"):
        return (a_vals.astype(dtype, copy=False)
                * b_vals.astype(dtype, copy=False))


@profiled("vxm_sparse")
def vxm_sparse(
    u_idx: np.ndarray,
    u_vals: Optional[np.ndarray],
    indptr: np.ndarray,
    indices: np.ndarray,
    values: Optional[np.ndarray],
    ncols: int,
    semiring: Semiring,
    cast_dtype: Optional[np.dtype] = None,
):
    """``wᵀ = uᵀ ⊕.⊗ A`` with ``A`` in CSR.  Returns ``(w_idx, w_vals)``.

    ``u`` is treated as a 1×n matrix, so in ``a(i,k) ⊗ b(k,j)`` terms:
    ``i = 0``, ``k`` is the frontier index, ``j`` the reached column.
    ``cast_dtype`` is :func:`mxm_expand`'s SciPy-replay mode: the frontier
    is enumerated k-ascending, so each output folds its terms in the order
    SciPy's ``uᵀ A`` does.
    """
    row_rep, cols, a_vals = csr_gather_rows(indptr, indices, values, u_idx)
    uv = u_vals[row_rep] if u_vals is not None else None
    if cast_dtype is not None:
        return semiring.add.reduce_sequential(cols, multiply_as(
            semiring.mult.name, uv, a_vals, cols.size, cast_dtype))
    k = u_idx[row_rep]
    i = np.zeros(k.size, dtype=np.int64)
    mult = _multiply(semiring, uv, a_vals, i, k, cols)
    return semiring.add.reduce_groups(cols, mult, ncols)


@profiled("mxv_gather")
def mxv_gather(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: Optional[np.ndarray],
    u_present: np.ndarray,
    u_dense: Optional[np.ndarray],
    rows: np.ndarray,
    semiring: Semiring,
    cast_dtype: Optional[np.dtype] = None,
):
    """``w = A ⊕.⊗ u`` restricted to ``rows``; ``u`` given as a bitmap.

    Returns ``(w_idx, w_vals)``.  In ``a(i,k) ⊗ b(k,j)`` terms: ``i`` is the
    matrix row, ``k`` the matched column / vector index, ``j = 0``.
    ``cast_dtype`` is :func:`mxm_expand`'s SciPy-replay mode: a row's terms
    are gathered in storage order, so each output folds them in the order
    SciPy's ``A @ u`` does.
    """
    row_rep, cols, a_vals = csr_gather_rows(indptr, indices, values, rows)
    hit = u_present[cols]
    row_rep = row_rep[hit]
    cols = cols[hit]
    if a_vals is not None:
        a_vals = a_vals[hit]
    i = rows[row_rep]
    uv = u_dense[cols] if u_dense is not None else None
    if cast_dtype is not None:
        return semiring.add.reduce_sequential(i, multiply_as(
            semiring.mult.name, a_vals, uv, i.size, cast_dtype))
    j = np.zeros(i.size, dtype=np.int64)
    mult = _multiply(semiring, a_vals, uv, i, cols, j)
    return semiring.add.reduce_groups(i, mult, indptr.size - 1)


@profiled("mxm_expand")
def mxm_expand(
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    a_values: Optional[np.ndarray],
    a_nrows: int,
    b_indptr: np.ndarray,
    b_indices: np.ndarray,
    b_values: Optional[np.ndarray],
    b_ncols: int,
    semiring: Semiring,
    key_keep=None,
    cast_dtype: Optional[np.dtype] = None,
):
    """``C = A ⊕.⊗ B`` by full flop expansion.

    Returns ``(keys, vals)`` with keys linearised as ``i * b_ncols + j``,
    sorted ascending and unique.

    ``key_keep`` is a ``keys -> bool`` predicate (the mask's, from
    :func:`repro.grb.engine.writeback.mask_key_filter`) applied to the
    linearised output coordinates *before* the group-reduce, so
    contributions the mask would discard in the write-back never pay the
    reduction sort.  It defaults to off, in which case the result is the
    seed kernel bit for bit.

    The ⊕-reduce runs over the output grid ``a_nrows × b_ncols``; when
    ``Monoid.reduce_groups`` takes its sort-free path there (the heavy
    levels of a batched BFS: huge products, small ``ns × n`` grid) there
    is no sort to spare, so ``key_keep`` is skipped and the write-back
    discards the mask-dead entries.

    SciPy-replay mode: ``cast_dtype`` (plus.times-reducible semirings
    only) makes the result equal, byte for byte, what ``scipy_mxm``
    returns for the same operands — the ``cast_dtype`` idea of
    :func:`~repro.grb._kernels.masked_matmul.masked_dot_reduce`.  ⊗ is
    :func:`multiply_as` in that dtype (a value array the multiply ignores
    may be ``None`` and is never gathered), and ⊕ folds every output's
    contributions left to right in k-ascending order — the expansion
    enumerates ``A``'s entries in storage order and the sort is stable —
    from zero (:meth:`Monoid.reduce_sequential`): SciPy's ``sums[j] +=``
    loop, where ``reduceat`` would sum a group of 8 or more pairwise.  The
    structure is the expansion's own, so an output that cancels to zero
    stays an explicit zero without the second (pattern) product SciPy
    needs for that.
    """
    # For every A entry (i, k), gather B row k.
    ent_rep, j, b_vals_g = csr_gather_rows(b_indptr, b_indices, b_values,
                                           a_indices)
    i = expand_rows(a_indptr, a_nrows)[ent_rep]
    keys = i * np.int64(b_ncols) + j
    grid = int(a_nrows) * int(b_ncols)
    av = a_values[ent_rep] if a_values is not None else None
    replay = cast_dtype is not None
    mult = multiply_as(semiring.mult.name, av, b_vals_g, keys.size,
                       cast_dtype) if replay \
        else _multiply(semiring, av, b_vals_g, i, a_indices[ent_rep], j)
    if key_keep is not None and (replay or not semiring.add.sort_free(
            mult.dtype, keys.size, grid)):
        keep = key_keep(keys)
        keys = keys[keep]
        mult = mult[keep]
    if replay:
        return semiring.add.reduce_sequential(keys, mult)
    return semiring.add.reduce_groups(keys, mult, grid)


#: Probe rounds before :func:`mxv_pull_probe` falls back to a ragged gather.
PULL_PROBE_ROUNDS = 16  # cost: mechanism-cap (probe fallback inside mxv_pull_probe; tests monkeypatch it here)


@profiled("mxv_pull_probe")
def mxv_pull_probe(
    at_indptr: np.ndarray,
    at_indices: np.ndarray,
    frontier_bits: np.ndarray,
    keys: np.ndarray,
    n: int,
):
    """The pull step of direction-optimised BFS, natively on CSC arrays.

    ``keys`` are candidate cells ``i * n + v`` of a batch of ``n``-node
    frontiers stacked in the flat bitmap ``frontier_bits`` (one frontier
    is the batch with ``i = 0``).  For each, find the *first* entry ``k``
    of ``Aᵀ`` row ``v`` (= ``v``'s in-neighbours in ascending order) with
    ``frontier_bits[i * n + k]`` set.  Returns ``(keys[found],
    parents[found])`` — the discovered candidates and the in-neighbour
    that discovered each.

    Because in-neighbours are scanned ascending, the pick is the *smallest*
    frontier in-neighbour — exactly the ``any.secondi`` choice of the push
    kernel, so push and pull levels are interchangeable bit for bit.
    Candidates without a frontier in-neighbour simply miss (their cursor
    drains); after :data:`PULL_PROBE_ROUNDS` vectorised rounds (read at
    call time) the stragglers take one ragged gather over their remaining
    spans.
    """
    if keys.size == 0 or keys[-1] < n:
        v, base = keys, None    # one frontier: the cells are the node ids
    else:
        base = keys // n * n    # i * n (floor division beats int64 ``%``)
        v = keys - base
    cur = at_indptr[v].astype(np.int64, copy=True)
    end = at_indptr[v + 1]
    parent = np.full(keys.size, -1, dtype=np.int64)
    unresolved = np.flatnonzero(cur < end).astype(np.int64)
    for _ in range(PULL_PROBE_ROUNDS):
        if unresolved.size == 0:
            break
        k = at_indices[cur[unresolved]]
        hit = frontier_bits[k if base is None else base[unresolved] + k]
        res = unresolved[hit]
        parent[res] = k[hit]
        miss = unresolved[~hit]
        cur[miss] += 1
        unresolved = miss[cur[miss] < end[miss]]
    if unresolved.size:
        # ragged fallback over the unscanned remainder of each span
        counts = end[unresolved] - cur[unresolved]
        flat = concat_ranges(cur[unresolved], counts)
        rep = np.repeat(np.arange(unresolved.size, dtype=np.int64), counts)
        kcand = at_indices[flat]
        valid = np.flatnonzero(frontier_bits[
            kcand if base is None else base[unresolved][rep] + kcand])
        ents = rep[valid]
        first = np.ones(ents.size, dtype=bool)
        first[1:] = ents[1:] != ents[:-1]
        parent[unresolved[ents[first]]] = kcand[valid[first]]
    found = parent >= 0
    return keys[found], parent[found]
