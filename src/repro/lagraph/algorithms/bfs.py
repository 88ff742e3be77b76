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

Two level loops serve every BFS.  The sweep below runs Alg. 1 and 2 in
the paper's notation, one GraphBLAS call at a time (``bfs_parent_push``,
``bfs_parent_do``).  Basic mode runs the other: :func:`bfs_level` and
:func:`bfs`'s parents are row 0 of the one-source batched sweep
(:func:`~.msbfs.msbfs_levels` / :func:`~.msbfs.msbfs_parents`: Alg. 2
per row on raw arrays, with the same chooser), so a Basic ``bfs()``, a
lone served BFS query and a batch of them all run one loop.

Advanced entry points follow Sec. II-B strictly: they never compute cached
properties (``bfs_parent`` with ``direction_optimizing=True`` demands a
cached ``G.AT``) and raise :class:`PropertyMissing` otherwise.  The Basic
entry point computes whatever it needs and caches it on the graph.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ... import grb
from ...grb import Vector, complement, engine, structure
from ...grb import cancel as _cancel
from ..errors import PropertyMissing
from ..graph import Graph
from .msbfs import msbfs_levels, msbfs_parents

__all__ = ["bfs", "bfs_parent_push", "bfs_parent_do", "bfs_level"]

_ANY_SECONDI = grb.semiring("any", "secondi")


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


def bfs_level(g: Graph, source: int) -> Vector:
    """Level BFS: ``level[v]`` = BFS depth from the source (source = 0).

    Row 0 of the one-source batched sweep,
    :func:`~.msbfs.msbfs_levels`.
    """
    _check_source(g, source)
    return msbfs_levels(g, [source]).extract_row(0)


def bfs(g: Graph, source: int, *,
        parent: bool = True, level: bool = False,
        direction_optimizing: Optional[bool] = None,
        ) -> Tuple[Optional[Vector], Optional[Vector]]:
    """Basic-mode BFS: "just works" (Sec. II-B).

    Inspects the graph, computes & caches any properties the best advanced
    variant needs, picks the variant, and returns ``(parent, level)``
    vectors (``None`` for whichever was not requested).

    Parents come from the one-row direction-optimised sweep,
    :func:`~.msbfs.msbfs_parents` — which, transpose caching included,
    beats the push-only sweep on every input measured, low-degree ones
    too — unless ``direction_optimizing=False`` forces push-only.
    """
    _check_source(g, source)
    p = lv = None
    if parent:
        if direction_optimizing is None or direction_optimizing:
            g.cache_at()          # Basic mode may compute properties
            g.cache_row_degree()
            p = msbfs_parents(g, [source]).extract_row(0)
        else:
            p = bfs_parent_push(g, source)
    if level:
        lv = bfs_level(g, source)
    return p, lv
