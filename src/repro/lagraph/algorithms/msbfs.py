"""Multi-source BFS with a batched matrix frontier (the Alg. 3 trick, alone).

The paper's batched betweenness centrality (Sec. IV-B) runs ``ns`` BFS
sweeps simultaneously by stacking the per-source frontiers as the rows of an
``ns × n`` matrix, turning each level's expansion into one masked
matrix-matrix multiply.  This module extracts that trick as a standalone
service kernel: answer many independent BFS queries with one ``mxm`` per
level instead of one ``vxm`` per level *per source*.

Semantics, row by row:

* :func:`msbfs_parents` — row ``k`` equals ``bfs_parent_push(g, sources[k])``
  bit for bit.  The ``any`` monoid of Alg. 1 picks the first candidate in
  storage order, which (the frontier being sorted) is the *smallest*
  frontier node adjacent to the discovered node.  Every leg below
  preserves exactly that choice.
* :func:`msbfs_levels` — row ``k`` holds the BFS depths from
  ``sources[k]``; :func:`~.bfs.bfs_level` is row 0 of the one-source
  sweep.

One level loop serves both, at every batch size (a single source
included); the two differ only in what a level records — the depth, or
the parent.  A frontier expands as the structural ``plus.pair`` product —
algebraically the literal batched Alg. 1's pattern, and SciPy-reducible,
so a level rides the planner's compiled (or, on a near-empty level,
small-expansion) rule.  For parents, a light frontier pushes through the
``any.secondi`` product instead, whose values are the parents; on a heavy
one the witness (which frontier node discovered each new node) is
recovered *after* the masked ``plus.pair`` product, only for the newly
discovered entries: the parent of ``(i, j)`` is the first in-neighbour of
``j`` (ascending, i.e. ``Aᵀ`` row order) present in row ``i``'s frontier —
identical to the ``any.secondi`` pick.  That probe is ``bfs_parent_auto``'s
pull kernel, :func:`~repro.grb._kernels.matmul.mxv_pull_probe`, given each
entry's row offset into the stacked ``ns × n`` frontier bitmap: a few
vectorised probe rounds resolve almost all entries (the early-exit that
makes pull steps cheap, Sec. VI-A); stragglers fall back to one ragged
gather.

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
cheaper.  It is also why a lone ``bfs_level`` runs this loop: its own
per-level ``vxm`` loop took 25.6–26.7 ms on road-small against 7.6–8.7 ms
for the one-row sweep (medians of 7, 2-vCPU box).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ... import grb
from ...grb import Matrix, complement, structure
from ...grb import cancel as _cancel
from ...grb.engine import cost as _cost
from ...grb._kernels.gather import csr_gather_rows
from ...grb._kernels.matmul import mxv_pull_probe
from ..graph import Graph

__all__ = ["msbfs_levels", "msbfs_parents", "msbfs"]

_ANY_SECONDI = grb.semiring("any", "secondi")
_PLUS_PAIR = grb.semiring("plus", "pair")


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


def _witness(g: Graph, bits: np.ndarray, frontier: np.ndarray,
             keys: np.ndarray, n: int) -> np.ndarray:
    """Parent of each new entry ``keys``: the first in-neighbour of its
    column present in its row's previous ``frontier`` (both as sorted
    ``i * n + j`` keys) — the ``any.secondi`` pick, recovered after a
    ``plus.pair`` level by :func:`mxv_pull_probe` against the flat
    ``ns × n`` frontier bitmap ``bits``, set for the probe and cleared
    after it.  Every entry was discovered *from* that frontier, so every
    one hits."""
    at = _transpose_of(g)
    j = keys % np.int64(n)
    bits[frontier] = True
    _, parents = mxv_pull_probe(at.indptr, at.indices, bits, j, keys - j)
    bits[frontier] = False
    return parents


def _sweep(g: Graph, sources, parents: bool) -> Matrix:
    """The level loop of both batched sweeps.

    ``out`` starts with one entry per row, at its source, and every level
    writes the entries it discovers into it under ``¬s(out)``: their
    depth, or with ``parents`` their BFS-tree parent.  A frontier under
    ``MSBFS_FUSE_FRONTIER_K`` entries runs as a fused level; otherwise it
    expands through a masked ``mxm`` — ``plus.pair`` for the pattern, or,
    for parents under ``MSBFS_PROBE_DENSITY``, ``any.secondi``, whose
    values are the parents.
    """
    sources = _check_sources(g, sources)
    a = g.A
    n = g.n
    ns = sources.size
    batch = np.arange(ns, dtype=np.int64)
    vals = sources if parents else np.zeros(ns, dtype=np.int64)
    out = Matrix.from_coo(batch, sources, vals, ns, n, typ=grb.INT64,
                          dup_op=grb.binary.FIRST)
    if ns == 0:
        return out
    unvisited = complement(structure(out))
    grid = ns * n
    keys = batch * np.int64(n) + sources    # the frontier, sorted i·n + j
    vbits = np.zeros(grid, dtype=bool)      # discovered-set bitmap
    vbits[keys] = True
    # the witness probe's frontier bitmap (zero pages until first touched)
    bits = np.zeros(grid, dtype=bool) if parents else None
    f = None             # the frontier matrix; None during a fused run
    acc_keys: list = []  # discoveries accumulated over the fused run
    acc_vals: list = []
    for depth in range(1, n):
        _cancel.checkpoint()        # deadline/cancel at the level boundary
        if keys.size < _cost.MSBFS_FUSE_FRONTIER_K:
            # fused level: no mxm, no mask-write, no per-level out rebuild
            keys, par = _fused_expand(a, keys, n, vbits)
            if keys.size == 0:
                break
            vbits[keys] = True
            vals = par if parents else np.full(keys.size, depth,
                                               dtype=np.int64)
            acc_keys.append(keys)
            acc_vals.append(vals)
            f = None
            continue
        if f is None:
            # the frontier (re)enters matrix form: merge the fused run.  A
            # levels frontier is read as a pattern only: BOOL, a byte a value
            _flush_fused(out, acc_keys, acc_vals)
            f = Matrix(grb.INT64 if parents else grb.BOOL, ns, n)
            f._set_from_keys(keys, vals if parents
                             else np.ones(keys.size, dtype=bool))
        push = parents and keys.size < _cost.MSBFS_PROBE_DENSITY * grid
        # F⟨¬s(out), r⟩ = F ⊕.⊗ A
        grb.mxm(f, f, a, _ANY_SECONDI if push else _PLUS_PAIR,
                mask=unvisited, replace=True)
        if f.nvals == 0:
            break
        frontier, keys = keys, f.keys()
        vbits[keys] = True
        if push:
            t = f   # any.secondi: the values are the parents
        else:
            vals = _witness(g, bits, frontier, keys, n) if parents \
                else np.full(keys.size, depth, dtype=np.int64)
            t = Matrix(grb.INT64, ns, n)
            t._set_from_keys(keys, vals)
        grb.update(out, t, mask=structure(t))
    _flush_fused(out, acc_keys, acc_vals)
    return out


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
    return _sweep(g, sources, parents=True)


def msbfs_levels(g: Graph, sources: Sequence[int]) -> Matrix:
    """Batched level BFS: ``L[k, v]`` is the BFS depth of ``v`` from
    ``sources[k]`` (source depth 0); unreached pairs have no entry.

    Returns an ``ns × n`` INT64 matrix; :func:`~.bfs.bfs_level` is its
    one-row case.
    """
    return _sweep(g, sources, parents=False)


def msbfs(g: Graph, sources: Sequence[int], *,
          parent: bool = True, level: bool = False,
          ) -> Tuple[Matrix | None, Matrix | None]:
    """Basic-mode batched BFS: returns ``(parents, levels)`` matrices
    (``None`` for whichever was not requested), one row per source.
    """
    p = msbfs_parents(g, sources) if parent else None
    lv = msbfs_levels(g, sources) if level else None
    return p, lv
