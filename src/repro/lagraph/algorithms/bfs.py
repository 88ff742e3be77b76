"""Breadth-first search (Sec. IV-A; Algorithms 1 and 2 of the paper).

The parent BFS rests on the ``any.secondi`` semiring: one level of
Alg. 1 computes ``qᵀ⟨¬s(pᵀ), r⟩ = qᵀ any.secondi A`` — the frontier
expansion, parent selection (``secondi`` yields the id of the frontier
node that discovered each neighbour) and de-duplication (``any``
resolves the benign race by picking one parent) in a single step — and
``p⟨s(q)⟩ = q`` writes the new parents.

Direction optimisation (Alg. 2): a *push* step costs the total out-degree
of the frontier; a *pull* step (``q⟨¬s(p), r⟩ = AT any.secondi q``,
restricted to the unvisited rows by the complemented structural mask)
costs the total in-degree of the unvisited set.  The per-level push/pull
decision is the Beamer-style heuristic the GAP benchmark uses, resident
in the execution engine's cost model
(:func:`repro.grb.engine.choose_direction`; constants ``PUSHPULL_ALPHA``
/ ``PUSHPULL_BETA`` in :mod:`repro.grb.engine.cost`), so it is forceable
and observable like every other planner decision.

Those are the semantics; one level loop computes them.  Every BFS here is
row 0 of the one-source batched sweep (:func:`~.msbfs.msbfs_parents` /
:func:`~.msbfs.msbfs_levels`: Alg. 2 per row on raw arrays, with the same
chooser), so ``bfs_parent_do``, a Basic ``bfs()``, a lone served BFS
query and a batch of them all run one loop.  The tree does not depend on
the direction: ``any`` keeps the first candidate in storage order, which
is the smallest frontier node adjacent to a discovered node both when
pushing (the frontier is sorted) and when pulling (``Aᵀ``'s rows are).

Advanced entry points follow Sec. II-B strictly: they never compute cached
properties (``bfs_parent_do`` demands a cached ``G.AT`` and
``G.row_degree``) and raise :class:`PropertyMissing` otherwise.  The Basic
entry point computes whatever it needs and caches it on the graph.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ... import grb
from ...grb import Vector
from ..errors import PropertyMissing
from ..graph import Graph
from .msbfs import msbfs_levels, msbfs_parents

__all__ = ["bfs", "bfs_parent_do", "bfs_level"]


def _check_source(g: Graph, source: int):
    if not 0 <= source < g.n:
        raise grb.IndexOutOfBounds(
            f"source {source} out of range [0, {g.n})")


def bfs_parent_do(g: Graph, source: int) -> Vector:
    """Alg. 2 — direction-optimising parents BFS (Advanced mode).

    Requires ``G.AT`` and ``G.row_degree`` to be cached; raises
    :class:`PropertyMissing` otherwise (Advanced algorithms never compute
    properties, Sec. II-B).  Returns the INT64 parent vector: ``p[v]`` is
    the BFS-tree parent of ``v``, with ``p[source] == source``; unreached
    nodes have no entry.  Row 0 of the one-source
    :func:`~.msbfs.msbfs_parents`.
    """
    _check_source(g, source)
    if g.AT is None:
        raise PropertyMissing("bfs_parent_do requires cached G.AT")
    if g.row_degree is None:
        raise PropertyMissing("bfs_parent_do requires cached G.row_degree")
    # the copy holds the bitmap alone (9 bytes an entry): extract_row's
    # store also keeps the sparse arrays it was built from (16 more),
    # which every parent vector a caller retains would carry
    return msbfs_parents(g, [source]).extract_row(0).dup()


def bfs_level(g: Graph, source: int) -> Vector:
    """Level BFS: ``level[v]`` = BFS depth from the source (source = 0).

    Row 0 of the one-source batched sweep,
    :func:`~.msbfs.msbfs_levels`.
    """
    _check_source(g, source)
    return msbfs_levels(g, [source]).extract_row(0)


def bfs(g: Graph, source: int, *,
        parent: bool = True, level: bool = False,
        ) -> Tuple[Optional[Vector], Optional[Vector]]:
    """Basic-mode BFS: "just works" (Sec. II-B).

    Computes and caches the properties :func:`bfs_parent_do` needs
    (``G.AT`` and ``G.row_degree``) and returns ``(parent, level)``
    vectors (``None`` for whichever was not requested).
    """
    _check_source(g, source)
    p = lv = None
    if parent:
        g.cache_at()              # Basic mode may compute properties
        g.cache_row_degree()
        p = bfs_parent_do(g, source)
    if level:
        lv = bfs_level(g, source)
    return p, lv
