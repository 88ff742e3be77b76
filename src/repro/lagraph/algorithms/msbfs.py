"""Multi-source BFS with a batched matrix frontier (the Alg. 3 trick, alone).

The paper's batched betweenness centrality (Sec. IV-B) runs ``ns`` BFS
sweeps simultaneously by stacking the per-source frontiers as the rows of an
``ns × n`` matrix, turning each level's expansion into one masked
matrix-matrix multiply.  This module extracts that trick as a standalone
service kernel: answer many independent BFS queries with one ``mxm`` per
level instead of one ``vxm`` per level *per source*.

Semantics match the single-source algorithms row by row — bit for bit:

* :func:`msbfs_parents` — row ``k`` equals ``bfs_parent_push(g, sources[k])``.
  The ``any`` monoid of Alg. 1 picks the first candidate in storage order,
  which (the frontier being sorted) is the *smallest* frontier node adjacent
  to the discovered node.  Every leg below preserves exactly that choice.
* :func:`msbfs_levels` — row ``k`` equals ``bfs_level(g, sources[k])``.

One execution strategy, at every batch size (a single source included).
A frontier expands as the structural ``plus.pair`` product — algebraically
the literal batched Alg. 1's pattern, and SciPy-reducible, so a level rides
the planner's compiled (or, on a near-empty level, small-expansion) rule.
For parents, a light frontier pushes through the ``any.secondi`` product
instead, whose values are the parents; on a heavy one the witness (which
frontier node discovered each new node) is recovered *after* the masked
``plus.pair`` product, only for the newly discovered entries: the parent of
``(i, j)`` is the first in-neighbour of ``j`` (ascending, i.e. ``Aᵀ`` row
order) present in row ``i``'s frontier — identical to the ``any.secondi``
pick.  A few vectorised probe rounds against a dense frontier bitmap
resolve almost all entries (the early-exit that makes pull steps cheap,
Sec. VI-A); stragglers fall back to one ragged gather.

Duplicate sources are allowed (rows are computed independently).  Advanced
mode: nothing is cached on the graph (``Aᵀ`` for the probe comes from the
matrix's own transpose cache, or ``G.AT`` when already present).

Level fusion: frontiers under
:data:`repro.grb.engine.cost.MSBFS_FUSE_FRONTIER_K`
live entries skip the matrix machinery — consecutive near-empty levels run
as raw-array neighbour expansions against a dense discovered-set bitmap,
and their discoveries merge into the output once per fused run.  This is
what makes the high-diameter road regime cheap (hundreds of slim levels,
each previously paying mxm + mask materialisation + an O(nvals) output
rebuild); results are bit-identical at every threshold.  The engine now
claims such a level's product itself (``mxm-small-expand``: at most
``n`` flops run on the expansion kernel, not SciPy), and this private path
stays all the same: on road-small with 4 sources it takes 8.3–9.3 ms where
the per-level loop with that rule takes 35–41 ms (64 sources: 86–89 vs
140–154 ms) — a fused level has no ``mxm`` dispatch, depth stamp, masked
update or output write at all, and the rule only makes the first of those
cheaper.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ... import grb
from ...grb import Matrix, complement, structure
from ...grb import cancel as _cancel
from ...grb.engine import cost as _cost
from ...grb._kernels.gather import csr_gather_rows
from ..graph import Graph

__all__ = ["msbfs_levels", "msbfs_parents", "msbfs"]

_ANY_SECONDI = grb.semiring("any", "secondi")
_PLUS_PAIR = grb.semiring("plus", "pair")
_DEPTH = grb.unary.unary_op(
    "__msbfs_depth", lambda x, depth: np.full(x.shape, depth, dtype=np.int64))

#: Probe rounds against the frontier bitmap before the ragged fallback
#: (a kernel-mechanism cap; the *chooser* constants live in the engine's
#: unified cost model — ``MSBFS_PROBE_DENSITY`` (probe vs push) and
#: ``MSBFS_FUSE_FRONTIER_K`` (level fusion) in
#: :mod:`repro.grb.engine.cost` — read at call time, monkeypatchable like
#: every other planner tunable).  The fusion threshold exists because a
#: high-diameter batch spends hundreds of levels on slim frontiers, and
#: per-level mxm + mask-write + output-rebuild overhead outweighs the
#: actual expansion work (1.6–1.9× on the small road grid, 64 sources,
#: guarded in ``test_direction_optimized.py``); low-diameter graphs blow
#: past the threshold after a level or two and keep the compiled product.
PROBE_ROUNDS = 16


def _check_sources(g: Graph, sources) -> np.ndarray:
    sources = np.asarray(sources, dtype=np.int64)
    if sources.ndim != 1:
        raise grb.InvalidValue("sources must be a 1-D sequence of node ids")
    if sources.size and (sources.min() < 0 or sources.max() >= g.n):
        raise grb.IndexOutOfBounds(
            f"source out of range [0, {g.n}): {sources}")
    return sources


def _transpose_of(g: Graph) -> Matrix:
    """``Aᵀ`` without mutating the graph: the cached property when present
    (aliases ``A`` for undirected graphs), else the matrix's own cache."""
    return g.AT if g.AT is not None else g.A.T


def _fused_expand(a: Matrix, f_keys: np.ndarray, n: int,
                  visited_bits: np.ndarray):
    """Direct neighbour expansion of a tiny raw-array frontier.

    ``f_keys`` are the frontier's sorted ``i * n + j`` keys;
    ``visited_bits`` the dense discovered-set bitmap.  Returns
    ``(new_keys, new_parents)``: the undiscovered keys reached, each with
    the smallest frontier entry of its row that reaches it — the same pick
    the ``any.secondi`` masked mxm makes, so fused and unfused levels
    interleave bit for bit.
    """
    rows = f_keys // np.int64(n)
    cols = f_keys - rows * np.int64(n)
    rep, j, _ = csr_gather_rows(a.indptr, a.indices, None, cols)
    keys = rows[rep] * np.int64(n) + j
    par = cols[rep]
    # frontier entries are enumerated in storage order (k ascending within a
    # row), so the "any" pick — first in storage order — is the smallest k
    keys, par = grb.monoid.ANY_MONOID.reduce_groups(keys, par,
                                                   visited_bits.size)
    fresh = ~visited_bits[keys]
    return keys[fresh], par[fresh]


def _merge_disjoint(out: Matrix, new_keys, new_vals):
    """Merge (sorted, disjoint) new entries into ``out`` in one pass."""
    keys = out.keys()
    pos = np.searchsorted(keys, new_keys)
    out._set_from_keys(np.insert(keys, pos, new_keys),
                       np.insert(out.values, pos, new_vals))


def _flush_fused(out: Matrix, acc_keys, acc_vals):
    """Merge the entries accumulated over a fused run into ``out``.

    One sorted merge for the whole run — that, not the skipped mxm alone,
    is what makes hundreds of near-empty levels cheap: the O(nvals) output
    rebuild is paid once per *run* instead of once per *level*.
    """
    if not acc_keys:
        return
    keys = np.concatenate(acc_keys)
    vals = np.concatenate(acc_vals)
    order = np.argsort(keys, kind="stable")   # levels are pairwise disjoint
    _merge_disjoint(out, keys[order], vals[order])
    acc_keys.clear()
    acc_vals.clear()


# ---------------------------------------------------------------------------
# parents
# ---------------------------------------------------------------------------

def _first_frontier_in_neighbor(at_indptr, at_indices, frontier_bits,
                                row_base, j, probe_rounds=PROBE_ROUNDS):
    """Parent of each new entry: first in-neighbour of ``j`` in the frontier.

    ``frontier_bits`` is the dense ``ns × n`` frontier bitmap (flattened);
    ``row_base[e] = i_e * n``.  Every entry is guaranteed a hit (it was just
    discovered *from* the frontier), so the probe cursors never run past the
    end of their ``Aᵀ`` rows while unresolved.
    """
    m = j.size
    parent = np.empty(m, dtype=np.int64)
    unresolved = np.arange(m, dtype=np.int64)
    cur = at_indptr[j].copy()
    for _ in range(probe_rounds):  # cancel: checkpoint-exempt (bounded by PROBE_ROUNDS; caller checkpoints at level boundaries)
        if unresolved.size == 0:
            return parent
        k = at_indices[cur[unresolved]]
        hit = frontier_bits[row_base[unresolved] + k]
        res = unresolved[hit]
        parent[res] = k[hit]
        cur[unresolved] += 1
        unresolved = unresolved[~hit]
    if unresolved.size:
        # ragged fallback: scan the full in-neighbour lists of the stragglers
        ent_rep, kcand, _ = csr_gather_rows(at_indptr, at_indices, None,
                                            j[unresolved])
        valid = np.flatnonzero(frontier_bits[row_base[unresolved][ent_rep]
                                             + kcand])
        ents = ent_rep[valid]
        first = np.ones(ents.size, dtype=bool)
        first[1:] = ents[1:] != ents[:-1]
        parent[unresolved[ents[first]]] = kcand[valid[first]]
    return parent


def msbfs_parents(g: Graph, sources: Sequence[int]) -> Matrix:
    """Batched parents BFS: ``P[k, v]`` is the BFS-tree parent of ``v`` in
    the sweep rooted at ``sources[k]`` (``P[k, sources[k]] == sources[k]``);
    unreached ``(k, v)`` pairs have no entry.

    Returns an ``ns × n`` INT64 matrix whose row ``k`` is identical to
    ``bfs_parent_push(g, sources[k])``.

    Adaptive per level: push sparse levels, probe dense ones.  Sparse
    frontiers expand through the ``any.secondi`` product (cost ∝ frontier
    out-degrees — cheap exactly when the frontier is light).  Dense
    frontiers run the compiled ``plus.pair`` structural product and recover
    each new node's witness by probing its in-neighbours against a frontier
    bitmap (a hit lands within a couple of rounds exactly when the frontier
    is heavy).  Frontiers below ``MSBFS_FUSE_FRONTIER_K`` live entries leave
    the matrix machinery entirely: consecutive near-empty levels run as
    raw-array neighbour expansions (fused run) and merge into ``P`` once at
    the end of the run.  All three legs pick the smallest frontier
    in-neighbour, so the output is independent of every switch point.
    """
    sources = _check_sources(g, sources)
    if sources.size == 0:
        return Matrix(grb.INT64, 0, g.n)
    a = g.A
    at = _transpose_of(g)
    n = g.n
    ns = sources.size
    grid = ns * n
    batch = np.arange(ns, dtype=np.int64)
    p = Matrix.from_coo(batch, sources, sources, ns, n, typ=grb.INT64,
                        dup_op=grb.binary.FIRST)
    f = p.dup()
    bits = np.zeros(grid, dtype=bool)          # current frontier bitmap
    prev_keys = batch * np.int64(n) + sources
    bits[prev_keys] = True
    vbits = np.zeros(grid, dtype=bool)         # discovered-set bitmap
    vbits[prev_keys] = True
    f_keys = None        # raw-mode frontier keys (fused run in progress)
    f_vals = None
    acc_keys: list = []  # discoveries accumulated over the fused run
    acc_vals: list = []
    for _level in range(1, n):
        _cancel.checkpoint()        # deadline/cancel at the level boundary
        cur_nvals = f.nvals if f_keys is None else f_keys.size
        if 0 < cur_nvals < _cost.MSBFS_FUSE_FRONTIER_K:
            # fused level: no mxm, no mask-write, no per-level P rebuild
            fk = f.keys() if f_keys is None else f_keys
            new_keys, new_par = _fused_expand(a, fk, n, vbits)
            if new_keys.size == 0:
                break
            vbits[new_keys] = True
            acc_keys.append(new_keys)
            acc_vals.append(new_par)
            f_keys, f_vals = new_keys, new_par
            continue
        if f_keys is not None:
            # frontier grew back: leave the fused run, restore matrix state
            _flush_fused(p, acc_keys, acc_vals)
            f = Matrix(grb.INT64, ns, n)
            f._set_from_keys(f_keys, f_vals)
            bits[prev_keys] = False
            prev_keys = f_keys
            bits[prev_keys] = True
            f_keys = f_vals = None
        probe = f.nvals >= _cost.MSBFS_PROBE_DENSITY * grid
        if probe:
            # F⟨¬s(P), r⟩ = F plus.pair A — new-frontier *structure* only;
            # witnesses recovered below at output scale
            grb.mxm(f, f, a, _PLUS_PAIR,
                    mask=complement(structure(p)), replace=True)
        else:
            # F⟨¬s(P), r⟩ = F any.secondi A — push, values are the parents
            grb.mxm(f, f, a, _ANY_SECONDI,
                    mask=complement(structure(p)), replace=True)
        if f.nvals == 0:
            break
        i = f._S().entry_rows()
        j = f.indices
        row_base = i * np.int64(n)
        if probe:
            parents = _first_frontier_in_neighbor(at.indptr, at.indices,
                                                  bits, row_base, j)
            t = Matrix(grb.INT64, ns, n)
            t._set_from_keys(row_base + j, parents)
            grb.update(p, t, mask=structure(t))
        else:
            grb.update(p, f, mask=structure(f))
        # clear only last level's bits: O(frontier), not O(grid), per level
        bits[prev_keys] = False
        prev_keys = row_base + j
        bits[prev_keys] = True
        vbits[prev_keys] = True
    _flush_fused(p, acc_keys, acc_vals)
    return p


# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------

def msbfs_levels(g: Graph, sources: Sequence[int]) -> Matrix:
    """Batched level BFS: ``L[k, v]`` is the BFS depth of ``v`` from
    ``sources[k]`` (source depth 0); unreached pairs have no entry.

    Returns an ``ns × n`` INT64 matrix whose row ``k`` is identical to
    ``bfs_level(g, sources[k])``.
    """
    sources = _check_sources(g, sources)
    a = g.A
    n = g.n
    ns = sources.size
    batch = np.arange(ns, dtype=np.int64)
    lvl = Matrix.from_coo(batch, sources, np.zeros(ns, dtype=np.int64),
                          ns, n, typ=grb.INT64, dup_op=grb.binary.FIRST)
    if ns == 0:
        return lvl
    f = Matrix.from_coo(batch, sources, np.ones(ns, dtype=np.bool_),
                        ns, n, dup_op=grb.binary.LOR)
    vbits = np.zeros(ns * n, dtype=bool)       # discovered-set bitmap
    vbits[batch * np.int64(n) + sources] = True
    f_keys = None        # raw-mode frontier keys (fused run in progress)
    acc_keys: list = []  # discoveries accumulated over the fused run
    acc_vals: list = []
    for depth in range(1, n):
        _cancel.checkpoint()        # deadline/cancel at the level boundary
        cur_nvals = f.nvals if f_keys is None else f_keys.size
        if 0 < cur_nvals < _cost.MSBFS_FUSE_FRONTIER_K:
            # fused level (see MSBFS_FUSE_FRONTIER_K): one gather per level, one
            # sorted merge per *run* — no mxm, no pattern stamp, no masked
            # update, no per-level L rebuild
            fk = f.keys() if f_keys is None else f_keys
            new_keys, _ = _fused_expand(a, fk, n, vbits)
            if new_keys.size == 0:
                break
            vbits[new_keys] = True
            acc_keys.append(new_keys)
            acc_vals.append(np.full(new_keys.size, depth, dtype=np.int64))
            f_keys = new_keys
            continue
        if f_keys is not None:
            # frontier grew back: leave the fused run, restore matrix state
            _flush_fused(lvl, acc_keys, acc_vals)
            f = Matrix(grb.BOOL, ns, n)
            f._set_from_keys(f_keys, np.ones(f_keys.size, dtype=np.bool_))
            f_keys = None
        # F⟨¬s(L), r⟩ = F plus.pair A — only the pattern is consumed
        grb.mxm(f, f, a, _PLUS_PAIR,
                mask=complement(structure(lvl)), replace=True)
        if f.nvals == 0:
            break
        vbits[f.keys()] = True
        # L⟨s(F)⟩ = depth: stamp the depth on the new frontier's pattern
        # (sparse analogue of bfs_level's assign_scalar, which would expand
        # the full ns × n key grid per level).
        t = f.apply(_DEPTH, depth)
        grb.update(lvl, t, mask=structure(t))
    _flush_fused(lvl, acc_keys, acc_vals)
    return lvl


def msbfs(g: Graph, sources: Sequence[int], *,
          parent: bool = True, level: bool = False,
          ) -> Tuple[Matrix | None, Matrix | None]:
    """Basic-mode batched BFS: returns ``(parents, levels)`` matrices
    (``None`` for whichever was not requested), one row per source.
    """
    p = msbfs_parents(g, sources) if parent else None
    lv = msbfs_levels(g, sources) if level else None
    return p, lv
