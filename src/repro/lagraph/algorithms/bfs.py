"""Breadth-first search (Sec. IV-A; Algorithms 1 and 2 of the paper).

The parent BFS rests on the ``any.secondi`` semiring: one ``vxm`` computes
``qᵀ⟨¬s(pᵀ), r⟩ = qᵀ any.secondi A`` — the frontier expansion, parent
selection (``secondi`` yields the id of the frontier node that discovered
each neighbour) and de-duplication (``any`` resolves the benign race by
picking one parent) in a single step.  The follow-up
``p⟨s(q)⟩ = q`` writes the new parents.  Algorithms 1 and 2 share one
sweep whose level body is exactly that pair of calls, each run when it
is made: the parent update lands in place on a bitmap ``p`` at O(|q|)
cost, so deferring the pair to fuse it measured no faster on road or
Kronecker graphs.

Direction optimisation (Alg. 2): a *push* step costs the total out-degree
of the frontier; a *pull* step (``AT any.secondi q`` restricted to the
unvisited rows by the complemented structural mask) costs the total
in-degree of the unvisited set.  The per-level push/pull decision is the
Beamer-style heuristic the GAP benchmark uses, resident in the execution
engine's cost model (:func:`repro.grb.engine.choose_direction`; constants
``PUSHPULL_ALPHA`` / ``PUSHPULL_BETA`` in :mod:`repro.grb.engine.cost`),
so it is forceable and observable like every other planner decision.

Advanced entry points follow Sec. II-B strictly: they never compute cached
properties (``bfs_parent`` with ``direction_optimizing=True`` demands a
cached ``G.AT``) and raise :class:`PropertyMissing` otherwise.  The Basic
entry point computes whatever it needs and caches it on the graph.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ... import grb
from ...grb import Vector, complement, engine, structure
from ...grb import cancel as _cancel
from ..errors import PropertyMissing
from ..graph import Graph

__all__ = ["bfs", "bfs_parent_push", "bfs_parent_do", "bfs_parent_auto",
           "bfs_level"]

_ANY_SECONDI = grb.semiring("any", "secondi")
_ANY_PAIR = grb.semiring("any", "pair")


def _check_source(g: Graph, source: int):
    if not 0 <= source < g.n:
        raise grb.IndexOutOfBounds(
            f"source {source} out of range [0, {g.n})")


def _parent_sweep(g: Graph, source: int,
                  pull: Optional[Callable[[Vector], bool]] = None) -> Vector:
    """The level loop of Alg. 1 and Alg. 2.

    Each level expands the frontier ``q`` into the unvisited set — by
    ``AT any.secondi q`` when ``pull(q)`` says so, else by
    ``q any.secondi A`` — and writes the new parents.
    """
    a = g.A
    n = g.n
    p = Vector(grb.INT64, n)
    q = Vector(grb.INT64, n)
    p[source] = source
    q[source] = source
    # masks hold object references, not snapshots: resolution happens at
    # execution time against the level's current state, so both can be
    # hoisted out of the loop
    unvisited = complement(structure(p))
    s_q = structure(q)
    for _level in range(1, n):
        _cancel.checkpoint()        # deadline/cancel at the level boundary
        if pull is not None and pull(q):
            grb.mxv(q, g.AT, q, _ANY_SECONDI, mask=unvisited, replace=True)
        else:
            grb.vxm(q, q, a, _ANY_SECONDI, mask=unvisited, replace=True)
        grb.update(p, q, mask=s_q)
        if q.nvals == 0:
            break
    return p


def bfs_parent_push(g: Graph, source: int) -> Vector:
    """Alg. 1 — push-only parents BFS (Advanced mode; needs nothing cached).

    Returns the INT64 parent vector: ``p[v]`` is the BFS-tree parent of
    ``v``, with ``p[source] == source``; unreached nodes have no entry.
    """
    _check_source(g, source)
    return _parent_sweep(g, source)


def bfs_parent_do(g: Graph, source: int) -> Vector:
    """Alg. 2 — direction-optimising parents BFS (Advanced mode).

    Requires ``G.AT`` and ``G.row_degree`` to be cached; raises
    :class:`PropertyMissing` otherwise (Advanced algorithms never compute
    properties, Sec. II-B).
    """
    _check_source(g, source)
    if g.AT is None:
        raise PropertyMissing("bfs_parent_do requires cached G.AT")
    if g.row_degree is None:
        raise PropertyMissing("bfs_parent_do requires cached G.row_degree")
    out_deg = g.row_degree.to_dense()
    total_edges = float(out_deg.sum())
    scanned = 0.0

    def pull(q: Vector) -> bool:
        nonlocal scanned
        frontier_edges = float(out_deg[q.indices].sum())
        scanned += frontier_edges       # edges out of every frontier so far
        return engine.choose_direction(
            frontier_edges, max(total_edges - scanned, 0.0),
            q.nvals, g.n) == "pull"

    return _parent_sweep(g, source, pull)


def bfs_parent_auto(g: Graph, source: int) -> Vector:
    """Storage-engine direction-optimised parents BFS (Basic-mode worker).

    The step chooser of Alg. 2 running directly on the storage layer:

    * **push** levels (sparse frontier) expand through the ``any.secondi``
      gather kernel — cost ∝ frontier out-degrees;
    * **pull** levels (heavy frontier) probe each unvisited node's
      in-neighbours against a *bitmap frontier*, reading ``Aᵀ`` from the
      store's cached CSC arrays (free when ``A`` is pinned to CSC, computed
      once otherwise) — cost ∝ a few probes per unvisited node;
    * the visited set and parents live in dense arrays for the whole sweep,
      so no per-level masked write-back is paid at all.

    Both step kinds pick the smallest frontier in-neighbour as the parent,
    so the result is identical — entry for entry — to
    :func:`bfs_parent_push`, whatever sequence of directions runs.  Unlike
    :func:`bfs_parent_do` it never demands cached graph properties: the
    transpose view comes from ``G.AT`` when present, else from the
    adjacency's own storage.
    """
    _check_source(g, source)
    from ...grb._kernels.matmul import mxv_pull_probe, vxm_sparse

    a = g.A
    n = g.n
    at = g.AT if g.AT is not None else None
    if at is not None:
        at_indptr, at_indices = at.indptr, at.indices
    else:
        at_indptr, at_indices, _ = a._S().transpose_csr()
    if g.row_degree is not None:
        out_deg = g.row_degree.to_dense()
    else:
        out_deg = np.diff(a.indptr).astype(np.int64)
    total_edges = float(out_deg.sum())

    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    parent_dense = np.full(n, -1, dtype=np.int64)
    parent_dense[source] = source
    frontier = np.array([source], dtype=np.int64)
    frontier_bits = np.zeros(n, dtype=bool)
    scanned = float(out_deg[source])
    for _level in range(1, n):
        _cancel.checkpoint()        # deadline/cancel at the level boundary
        frontier_edges = float(out_deg[frontier].sum())
        unexplored = max(total_edges - scanned, 0.0)
        push = engine.choose_direction(frontier_edges, unexplored,
                                       frontier.size, n) == "push"
        if push:
            idx, par = vxm_sparse(frontier,
                                  np.zeros(frontier.size, dtype=np.int64),
                                  a.indptr, a.indices, None, n, _ANY_SECONDI)
            fresh = ~visited[idx]
            idx, par = idx[fresh], par[fresh]
        else:
            frontier_bits[frontier] = True
            idx, par = mxv_pull_probe(at_indptr, at_indices, frontier_bits,
                                      np.flatnonzero(~visited))
            frontier_bits[frontier] = False
        if idx.size == 0:
            break
        visited[idx] = True
        parent_dense[idx] = par
        frontier = idx
        scanned += float(out_deg[idx].sum())
    reached = np.flatnonzero(visited).astype(np.int64)
    return Vector.from_coo(reached, parent_dense[reached], n)


def bfs_level(g: Graph, source: int) -> Vector:
    """Level BFS: ``level[v]`` = BFS depth from the source (source = 0).

    Uses the ``any.pair`` semiring — the structural analogue of
    ``any.secondi`` when only reachability per level is needed.
    """
    _check_source(g, source)
    a = g.A
    n = g.n
    level = Vector(grb.INT64, n)
    q = Vector(grb.BOOL, n)
    level[source] = 0
    q[source] = True
    for depth in range(1, n):
        _cancel.checkpoint()        # deadline/cancel at the level boundary
        grb.vxm(q, q, a, _ANY_PAIR,
                mask=complement(structure(level)), replace=True)
        if q.nvals == 0:
            break
        grb.assign_scalar(level, depth, mask=structure(q))
    return level


def bfs(g: Graph, source: int, *,
        parent: bool = True, level: bool = False,
        direction_optimizing: Optional[bool] = None,
        ) -> Tuple[Optional[Vector], Optional[Vector]]:
    """Basic-mode BFS: "just works" (Sec. II-B).

    Inspects the graph, computes & caches any properties the best advanced
    variant needs, picks the variant, and returns ``(parent, level)``
    vectors (``None`` for whichever was not requested).

    Parents come from :func:`bfs_parent_auto` — which, transpose and
    degree caching included, beats the push-only sweep on every input
    measured, low-degree ones too — unless ``direction_optimizing=False``
    forces push-only.
    """
    _check_source(g, source)
    p = lv = None
    if parent:
        if direction_optimizing is None or direction_optimizing:
            g.cache_at()          # Basic mode may compute properties
            g.cache_row_degree()
            p = bfs_parent_auto(g, source)
        else:
            p = bfs_parent_push(g, source)
    if level:
        lv = bfs_level(g, source)
    return p, lv
