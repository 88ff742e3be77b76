"""Local clustering coefficient (experimental tier, Sec. II-E).

For each node ``v`` with degree ``d(v) ≥ 2``::

    lcc(v) = 2 · tri(v) / (d(v) · (d(v) − 1))

where ``tri(v)`` is the number of triangles through ``v``.  The triangle
counts per node come from the row-wise reduction of the masked
``plus.pair`` product — the same product triangle counting uses, served by
the same mask-driven SpGEMM engine
(:mod:`repro.grb._kernels.masked_matmul`) — this is the Graphalytics LCC
kernel, one of the end-to-end workloads the paper names as future work
(Sec. VII).
"""

from __future__ import annotations

import numpy as np

from ... import grb
from ...grb import Vector, engine, structure
from ..graph import Graph
from ..utils.matrixops import triangle_pattern

__all__ = ["local_clustering_coefficient"]

_PLUS_PAIR = grb.semiring("plus", "pair")


def local_clustering_coefficient(g: Graph) -> Vector:
    """Dense FP64 vector of per-node clustering coefficients.

    Directed inputs are symmetrised first (Graphalytics treats the graph as
    undirected for LCC); self-edges are ignored.  Nodes with degree < 2
    get coefficient 0.  The cleaned pattern is cached on ``g``
    (:func:`~repro.lagraph.utils.matrixops.triangle_pattern`).

    The per-node triangle counts ride the masked multiply as a fused
    ``reduce_rowwise`` epilogue: the row sums are taken from the masked
    SpGEMM kernel's output pass, and the ``n × n`` triangle matrix the seed
    materialised is never built.
    """
    a = triangle_pattern(g)
    n = a.nrows
    # triangles through each edge, reduced per node inside the multiply's
    # output pass
    rows, sums = engine.execute(
        engine.plan_mxm(None, a, a, _PLUS_PAIR, mask=structure(a))
              .then_reduce_rowwise(grb.monoid.PLUS_MONOID))
    tri = np.zeros(n, dtype=np.float64)
    tri[rows] = sums
    tri_per_node = tri / 2.0
    deg = a.row_degrees().to_dense().astype(np.float64)
    denom = deg * (deg - 1.0) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lcc = np.where(denom > 0, tri_per_node / denom, 0.0)
    return Vector.from_dense(lcc)
