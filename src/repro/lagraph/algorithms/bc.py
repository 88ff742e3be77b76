"""Batched betweenness centrality (Sec. IV-B; Algorithm 3 of the paper).

Brandes' algorithm over a batch of ``ns`` sources at once: the per-source
BFS frontiers become the rows of an ``ns × n`` matrix, so every step is one
masked matrix-matrix multiply over the ``plus.first`` semiring.

Forward (BFS) phase — per level ``d``::

    S[d] = pattern of F                (which nodes sit at depth d, per source)
    P += F                             (accumulate shortest-path counts)
    F⟨¬s(P), r⟩ = F plus.first A       (expand to unvisited nodes)

Backward (dependency) phase — descending ``i``::

    W⟨s(S[i]),   r⟩ = B div∩ P         (δ+1 scaled by path counts)
    W⟨s(S[i-1]), r⟩ = W plus.first Aᵀ  (pull dependencies one level up)
    B += W ×∩ P

    centrality = [+ᵢ B(i, :)] − ns

(The paper's Alg. 3 writes the backward loop down to 0 referencing
``S[i-1]``; as in the C implementation the loop body is only defined down
to ``i = 1``.)

The GAP benchmark uses ``ns = 4`` sources per batch.

The code below is the listing above, call for call.  ``P`` and ``B`` are
dense by the end and updated in accumulate form, so both are pinned to the
bitmap format (``LAGr_Betweenness`` does the same with
``GxB_SPARSITY_CONTROL``): ``P += F`` and ``B += W ×∩ P`` then write only
the level's entries into the bitmap in place, and the two intersections
are driven from the level's sparse side (``S[i]``, ``W``) and probe ``B``
and ``P`` — a level costs what its frontier holds, not ``ns · n``.  The
multiplies lean on the mask-driven SpGEMM engine
(:mod:`repro.grb._kernels.masked_matmul`): the backward ``W⟨s(S[i-1])⟩``
levels are dot-eligible (structural, non-complemented masks), and the
forward ``⟨¬s(P)⟩`` expansions drop the product entries that land on
visited nodes before ordering the rest (the mask filter of ``mxm-scipy``
and of the expand rules) — most of a late level's product.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ... import grb
from ...grb import Matrix, Vector, complement, structure
from ...grb import cancel as _cancel
from ..errors import PropertyMissing
from ..graph import Graph

__all__ = ["betweenness_centrality", "betweenness_centrality_batch"]

_PLUS_FIRST = grb.semiring("plus", "first")


def betweenness_centrality_batch(g: Graph, sources: Sequence[int]) -> Vector:
    """Advanced mode: batched BC contribution of ``sources``.

    Requires ``G.AT`` cached (the backward phase pulls through ``Aᵀ``);
    raises :class:`PropertyMissing` otherwise.  Returns the dense FP64
    centrality vector ``Σ_s δ_s(v)`` summed over the batch.
    """
    if g.AT is None:
        raise PropertyMissing("betweenness_centrality_batch requires cached G.AT")
    a = g.A
    at = g.AT
    n = g.n
    sources = np.asarray(sources, dtype=np.int64)
    ns = sources.size
    if ns == 0:
        return Vector.from_dense(np.zeros(n))
    if sources.min() < 0 or sources.max() >= n:
        raise grb.IndexOutOfBounds("BC source out of range")

    batch = np.arange(ns, dtype=np.int64)
    # P(k, j): number of shortest paths from source k to node j.
    p = Matrix.from_coo(batch, sources, np.ones(ns), ns, n)
    p.set_format("bitmap")
    # First frontier: F⟨¬s(P)⟩ = P plus.first A
    f = Matrix(grb.FP64, ns, n)
    grb.mxm(f, p, a, _PLUS_FIRST, mask=complement(structure(p)))

    # Forward phase: one boolean pattern matrix per BFS level.
    levels = []
    while f.nvals:
        _cancel.checkpoint()        # deadline/cancel at the level boundary
        levels.append(f.pattern())
        grb.update(p, f, accum=grb.binary.PLUS)
        grb.mxm(f, f, a, _PLUS_FIRST,
                mask=complement(structure(p)), replace=True)

    # Backward phase.
    b = Matrix.from_dense(np.ones((ns, n))).set_format("bitmap")
    w = Matrix(grb.FP64, ns, n)
    for i in range(len(levels) - 1, 0, -1):
        _cancel.checkpoint()        # deadline/cancel at the level boundary
        grb.ewise_mult(w, b, p, grb.binary.DIV,
                       mask=structure(levels[i]), replace=True)
        grb.mxm(w, w, at, _PLUS_FIRST,
                mask=structure(levels[i - 1]), replace=True)
        grb.ewise_mult(b, w, p, grb.binary.TIMES, accum=grb.binary.PLUS)

    # centrality(j) = Σᵢ (B(i, j) − 1)
    centrality = Vector.from_dense(np.full(n, -float(ns)))
    grb.reduce_colwise(centrality, b, grb.monoid.PLUS_MONOID,
                       accum=grb.binary.PLUS)
    return centrality


def betweenness_centrality(g: Graph, sources: Sequence[int] | None = None,
                           batch_size: int = 4, seed: int = 0) -> Vector:
    """Basic mode: "just works" BC.

    * caches ``G.AT`` if absent (Basic algorithms may compute properties);
    * ``sources=None`` draws GAP-style random sources (``batch_size`` of
      them); passing an explicit list computes the exact contribution of
      those sources (use ``range(n)`` for exact BC);
    * batches the sources ``batch_size`` at a time and sums the results.
    """
    g.cache_at()
    n = g.n
    if sources is None:
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, n, size=batch_size)
    sources = np.asarray(sources, dtype=np.int64)
    total = Vector.from_dense(np.zeros(n))
    for start in range(0, sources.size, batch_size):
        _cancel.checkpoint()        # deadline/cancel at the batch boundary
        chunk = sources[start:start + batch_size]
        part = betweenness_centrality_batch(g, chunk)
        grb.ewise_add(total, total, part, op=grb.binary.PLUS)
    return total
