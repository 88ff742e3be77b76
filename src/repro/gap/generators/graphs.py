"""Scaled-down synthetic stand-ins for the five GAP benchmark graphs.

Table IV of the paper lists Kron, Urand, Twitter, Web and Road.  The real
graphs hold up to 4.2 billion edges; these generators reproduce the
*structural character* that drives every performance effect in Table III —
degree skew, direction, diameter, clustering — at laptop scale:

==========  =========  ==============================================
graph       kind       character preserved
==========  =========  ==============================================
``kron``    undirected heavy-tail RMAT degrees (Graph500 params)
``urand``   undirected Erdős–Rényi: flat degrees, no locality
``twitter`` directed   skewed RMAT, asymmetric in/out degrees
``web``     directed   RMAT + host-locality loop, higher clustering
``road``    directed   2-D grid + diagonals: tiny degrees, huge diameter
==========  =========  ==============================================

Every generator returns an :class:`repro.lagraph.Graph`.  Pass
``weighted=True`` for the SSSP variants (uniform integer weights in
``[1, 255]``, as the GAP weighted graphs use).
"""

from __future__ import annotations

import numpy as np

from ... import grb
from ...grb.matrix import Matrix
from ...lagraph.graph import Graph
from ...lagraph.kinds import Kind
from .rmat import GRAPH500_ABCD, rmat_edges

__all__ = ["kron", "urand", "twitter", "web", "road", "make_graph"]

_W_LOW, _W_HIGH = 1, 255


def _finalize(src, dst, n, kind: Kind, weighted: bool, seed: int,
              symmetrize: bool) -> Graph:
    """De-dup, drop self-loops, optionally mirror, attach weights."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if symmetrize:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    if weighted:
        rng = np.random.default_rng(seed + 0x5EED)
        vals = rng.integers(_W_LOW, _W_HIGH + 1, size=src.size).astype(np.float64)
        if symmetrize:
            # symmetric weights, W = min(W, Wᵀ) on the union: fold MIN once
            # per unordered pair {u, v}, then mirror the upper triangle U.
            # U and Uᵀ share no entry, so their union merges two sorted
            # patterns (a build of both would sort them again)
            u = Matrix.from_coo(np.minimum(src, dst), np.maximum(src, dst),
                                vals, n, n, dup_op=grb.binary.MIN)
            a = u.ewise_add(u.T, grb.binary.MIN)
        else:
            a = Matrix.from_coo(src, dst, vals, n, n, dup_op=grb.binary.MIN)
    else:
        vals = np.ones(src.size, dtype=np.bool_)
        a = Matrix.from_coo(src, dst, vals, n, n, dup_op=grb.binary.LOR)
    return Graph(a, kind)


def kron(scale: int = 12, edge_factor: int = 16, weighted: bool = False,
         seed: int = 1) -> Graph:
    """Graph500 Kronecker graph (undirected, heavy-tail degrees)."""
    src, dst = rmat_edges(scale, edge_factor, GRAPH500_ABCD, seed=seed)
    return _finalize(src, dst, 1 << scale, Kind.ADJACENCY_UNDIRECTED,
                     weighted, seed, symmetrize=True)


def urand(scale: int = 12, edge_factor: int = 16, weighted: bool = False,
          seed: int = 2) -> Graph:
    """Uniform-random graph with the same node/edge budget as ``kron``."""
    n = 1 << scale
    n_edges = edge_factor * n
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=n_edges).astype(np.int64)
    dst = rng.integers(0, n, size=n_edges).astype(np.int64)
    return _finalize(src, dst, n, Kind.ADJACENCY_UNDIRECTED,
                     weighted, seed, symmetrize=True)


def twitter(scale: int = 12, edge_factor: int = 24, weighted: bool = False,
            seed: int = 3) -> Graph:
    """Twitter-like directed graph: strongly skewed RMAT, kept directed."""
    src, dst = rmat_edges(scale, edge_factor, (0.50, 0.20, 0.15, 0.15),
                          seed=seed)
    return _finalize(src, dst, 1 << scale, Kind.ADJACENCY_DIRECTED,
                     weighted, seed, symmetrize=False)


def web(scale: int = 12, edge_factor: int = 38, weighted: bool = False,
        seed: int = 4) -> Graph:
    """Web-crawl-like directed graph.

    RMAT base plus a "host locality" pass linking id-adjacent nodes, which
    raises clustering and reciprocity the way site-internal links do — the
    property that makes the Web graph TC-heavy in Table III.
    """
    n = 1 << scale
    src, dst = rmat_edges(scale, edge_factor - 4, (0.45, 0.22, 0.22, 0.11),
                          seed=seed)
    rng = np.random.default_rng(seed + 99)
    # local links: each node points to a few nearby ids (same-host pages)
    loc_src = np.repeat(np.arange(n, dtype=np.int64), 4)
    loc_dst = loc_src + rng.integers(-8, 9, size=loc_src.size)
    ok = (loc_dst >= 0) & (loc_dst < n)
    src = np.concatenate((src, loc_src[ok]))
    dst = np.concatenate((dst, loc_dst[ok]))
    return _finalize(src, dst, n, Kind.ADJACENCY_DIRECTED,
                     weighted, seed, symmetrize=False)


def road(side: int = 64, weighted: bool = True, seed: int = 5,
         diag_fraction: float = 0.05) -> Graph:
    """Road-network-like graph: ``side × side`` grid plus sparse diagonals.

    Average degree ≈ 4 and diameter Θ(side) — the high-diameter regime that
    makes every per-iteration overhead visible (the paper's Road-graph
    discussion in Sec. VI-B).  Edges are bidirectional but the graph is
    *directed*, matching Table IV.  Weighted by default (road lengths).
    """
    n = side * side
    ids = np.arange(n, dtype=np.int64)
    right = ids[(ids % side) < side - 1]
    down = ids[ids < n - side]
    src = np.concatenate((right, down))
    dst = np.concatenate((right + 1, down + side))
    rng = np.random.default_rng(seed)
    n_diag = int(diag_fraction * n)
    if n_diag:
        cand = ids[(ids % side < side - 1) & (ids < n - side)]
        pick = rng.choice(cand, size=min(n_diag, cand.size), replace=False)
        src = np.concatenate((src, pick))
        dst = np.concatenate((dst, pick + side + 1))
    return _finalize(src, dst, n, Kind.ADJACENCY_DIRECTED,
                     weighted, seed, symmetrize=True)


_BUILDERS = {
    "kron": kron,
    "urand": urand,
    "twitter": twitter,
    "web": web,
    "road": road,
}


def make_graph(name: str, **kw) -> Graph:
    """Build a GAP stand-in graph by its Table IV name (case-insensitive)."""
    try:
        builder = _BUILDERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown GAP graph {name!r}; one of {sorted(_BUILDERS)}") from None
    return builder(**kw)
