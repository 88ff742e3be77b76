"""Multi-source BFS: one raw-array loop, Alg. 2 per row of Alg. 3's batch.

The paper's batched betweenness centrality (Sec. IV-B) runs ``ns`` BFS
sweeps simultaneously by stacking the per-source frontiers as the rows of
an ``ns × n`` matrix.  This module extracts that trick as a standalone
service kernel and runs it directly on the storage layer's arrays, as
Alg. 2 (the direction-optimised parents BFS) runs one row of it.

Semantics, row by row:

* :func:`msbfs_parents` — row ``k`` is Alg. 1's parent tree from
  ``sources[k]``.  Its ``any`` monoid picks the first candidate in
  storage order, which (the frontier being sorted) is the *smallest*
  frontier node adjacent to the discovered node; both step kinds below
  make exactly that choice, so the tree is the same whatever mix of push
  and pull levels a row runs.
* :func:`msbfs_levels` — row ``k`` holds the BFS depths from
  ``sources[k]``.

One level loop serves both, at every batch size: :func:`~.bfs.bfs_level`
and :func:`~.bfs.bfs_parent_do` (and so Basic :func:`~.bfs.bfs`) are its
one-row case, and a served BFS query runs it with however many sources
were coalesced.  The sweep holds an ``ns·n`` discovered bitmap, a dense
INT64 value grid (the depth, or the parent) and the frontier as sorted
``i·n + j`` keys.  Each level makes one
:func:`repro.grb.engine.choose_direction` call over per-row arrays — the
Beamer/GAP rule and constants of Alg. 2 — so every row makes exactly the
push/pull decisions of its one-row sweep:

* **push** rows gather ``A``'s rows at their frontier columns, taken in
  descending order, drop the discovered cells and write the values, so
  the write that stays in a cell comes from its smallest frontier node;
  the new keys are read back in order from a grid bitmap, so a level
  sorts nothing;
* **pull** rows probe each undiscovered cell's in-neighbours (``Aᵀ``
  rows, ascending) against a frontier bitmap with
  :func:`~repro.grb._kernels.matmul.mxv_pull_probe`: a hit lands within a
  few probes exactly when the frontier is heavy (Sec. VI-A).

A row whose frontier has emptied takes no step.  The output matrix is
built once, at the end, from the two grids.  Duplicate sources are
allowed (rows are computed independently).  Advanced mode: nothing is
cached on the graph — ``Aᵀ`` is ``G.AT`` when cached, else the adjacency
store's own CSC view, and is read only once a pull level runs.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ... import grb
from ...grb import Matrix, engine
from ...grb import cancel as _cancel
from ...grb._kernels.gather import concat_ranges
from ...grb._kernels.matmul import mxv_pull_probe
from ..graph import Graph

__all__ = ["msbfs_levels", "msbfs_parents", "msbfs"]


def _check_sources(g: Graph, sources) -> np.ndarray:
    sources = np.asarray(sources, dtype=np.int64)
    if sources.ndim != 1:
        raise grb.InvalidValue("sources must be a 1-D sequence of node ids")
    if sources.size and (sources.min() < 0 or sources.max() >= g.n):
        raise grb.IndexOutOfBounds(
            f"source out of range [0, {g.n}): {sources}")
    return sources


def _transpose_csr(g: Graph):
    """``Aᵀ``'s CSR arrays without mutating the graph: the cached property
    when present (aliases ``A`` for undirected graphs), else the
    adjacency store's own cached CSC view."""
    if g.AT is not None:
        return g.AT.indptr, g.AT.indices
    return g.A._S().transpose_csr()[:2]


def _sweep(g: Graph, sources, parents: bool) -> Matrix:
    """The level loop of both batched sweeps.

    Every level expands each row's frontier into that row's undiscovered
    cells, by push or pull as the row's direction choice says, and writes
    what it discovers into the value grid: the depth, or with ``parents``
    the BFS-tree parent.
    """
    sources = _check_sources(g, sources)
    a = g.A
    n = g.n
    ns = sources.size
    out = Matrix(grb.INT64, ns, n)
    if ns == 0:
        return out
    nn = np.int64(n)
    grid = ns * n
    indptr, indices = a.indptr, a.indices
    out_deg = indptr[1:] - indptr[:-1]
    keys = np.arange(ns, dtype=np.int64) * nn + sources  # sorted i·n + j
    seen = np.zeros(grid, dtype=bool)       # the discovered set
    mark = np.zeros(grid, dtype=bool)       # a pull frontier, then new keys
    value = np.empty(grid, dtype=np.int64)  # depth or parent where seen
    seen[keys] = True
    value[keys] = sources if parents else 0
    unexplored = np.full(ns, float(a.nvals))  # edges not yet scanned
    at = None
    for depth in range(1, n):
        _cancel.checkpoint()        # deadline/cancel at the level boundary
        rows = keys // nn
        base = rows * nn
        cols = keys - base
        deg = out_deg[cols]
        frontier_nvals = np.bincount(rows, minlength=ns)
        frontier_edges = np.bincount(rows, deg, minlength=ns)
        unexplored -= frontier_edges
        push = engine.choose_direction(frontier_edges, unexplored,
                                       frontier_nvals, n)
        if not push.all():
            if at is None:
                at = _transpose_csr(g)
            # a row whose frontier has emptied takes no step
            pull_row = ~push & (frontier_nvals > 0)
            mark[keys] = True       # a candidate probes its own row only
            found, par = mxv_pull_probe(
                *at, mark, np.flatnonzero(
                    ~seen.reshape(ns, n) & pull_row[:, None]), n)
            mark[keys] = False
            mark[found] = True
            if parents:
                value[found] = par
            if push.any():
                keep = np.repeat(push, frontier_nvals)
                base, cols, deg = base[keep], cols[keep], deg[keep]
        if push.any():
            # the frontier in descending order, so that the last value
            # written to a cell — the one that stays — comes from its
            # smallest frontier node (the any.secondi pick)
            base, cols, deg = base[::-1], cols[::-1], deg[::-1]
            reached = np.repeat(base, deg) + indices[
                concat_ranges(indptr[cols], deg)]
            fresh = ~seen[reached]
            reached = reached[fresh]
            if parents:
                value[reached] = np.repeat(cols, deg)[fresh]
            mark[reached] = True
        keys = np.flatnonzero(mark)
        if keys.size == 0:
            break
        mark[keys] = False
        seen[keys] = True
        if not parents:
            value[keys] = depth
    # the output, once: its CSR arrays read straight off the two grids
    counts = np.count_nonzero(seen.reshape(ns, n), axis=1)
    reached = np.flatnonzero(seen)
    cols = reached - np.repeat(np.arange(ns, dtype=np.int64) * nn, counts)
    out._install(reached, np.concatenate(([0], np.cumsum(counts))), cols,
                 value[reached])
    return out


def msbfs_parents(g: Graph, sources: Sequence[int]) -> Matrix:
    """Batched parents BFS: ``P[k, v]`` is the BFS-tree parent of ``v`` in
    the sweep rooted at ``sources[k]`` (``P[k, sources[k]] == sources[k]``);
    unreached ``(k, v)`` pairs have no entry.

    Returns an ``ns × n`` INT64 matrix; :func:`~.bfs.bfs_parent_do` is
    its one-row case.  Each row is the tree of Alg. 1's ``any.secondi``
    push, whatever mix of push and pull levels the row ran.
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
