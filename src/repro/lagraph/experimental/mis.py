"""Maximal independent set — Luby's algorithm (experimental tier).

Classic GraphBLAS showcase (it ships in LAGraph's experimental folder):
each round every candidate draws a random score; nodes whose score beats
every neighbour's join the set, and they and their neighbours leave the
candidate pool.  The neighbour maximum is one ``mxv`` on the
``max.second`` semiring; the pool bookkeeping is mask algebra.
"""

from __future__ import annotations

import numpy as np

from ... import grb
from ...grb import Vector
from ...grb import cancel as _cancel
from ..errors import InvalidKind
from ..graph import Graph
from ..kinds import Kind

__all__ = ["maximal_independent_set"]

_MAX_SECOND = grb.semiring("max", "second")


def maximal_independent_set(g: Graph, seed: int = 0) -> Vector:
    """A maximal independent set of an undirected graph.

    Returns a BOOL vector with an entry (True) for every member.
    Deterministic for a fixed ``seed``.  Isolated nodes always join.
    Self-edges are ignored (a node is not its own neighbour).
    """
    if g.kind is not Kind.ADJACENCY_UNDIRECTED:
        if not g.A_pattern_is_symmetric:
            raise InvalidKind("maximal_independent_set requires an "
                              "undirected graph (or cached symmetric pattern)")
    a = g.A.offdiag() if g.A.ndiag() else g.A
    n = g.n
    rng = np.random.default_rng(seed)
    deg = np.diff(a.indptr)

    in_set = np.zeros(n, dtype=bool)
    in_set[deg == 0] = True           # isolated nodes join immediately
    candidate = deg > 0

    while candidate.any():
        _cancel.checkpoint()        # deadline/cancel at the round boundary
        cand_idx = np.flatnonzero(candidate).astype(np.int64)
        # random score per candidate, weighted against high degree as in
        # Luby's analysis (score ~ U(0,1) / deg keeps hubs humble)
        score = rng.random(cand_idx.size) / deg[cand_idx]
        s = Vector.from_coo(cand_idx, score, n)
        # neighbour maximum among candidates: nbmax = A max.second s
        nbmax = Vector(grb.FP64, n)
        grb.mxv(nbmax, a, s, _MAX_SECOND, replace=True)
        # store: snapshot (nbmax is this round's own vector)
        nb_present, nb_dense = nbmax.bitmap()
        winners = cand_idx[(score > nb_dense[cand_idx]) |
                           ~nb_present[cand_idx]]
        if winners.size == 0:
            # ties can stall in pathological draws; break them by node id
            winners = np.array([cand_idx[int(np.argmax(score))]],
                               dtype=np.int64)
        in_set[winners] = True
        # winners and their neighbourhoods leave the pool
        candidate[winners] = False
        w = Vector.from_coo(winners, np.ones(winners.size, bool), n)
        touched = Vector(grb.BOOL, n)
        grb.mxv(touched, a, w, grb.semiring("any", "pair"), replace=True)
        candidate[touched.indices] = False
    return Vector.from_coo(np.flatnonzero(in_set).astype(np.int64),
                           np.ones(int(in_set.sum()), dtype=np.bool_), n)
