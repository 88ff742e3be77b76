"""k-truss decomposition (experimental tier, Sec. II-E).

The k-truss of a graph is the maximal subgraph in which every edge
participates in at least ``k − 2`` triangles.  In linear algebra (following
LAGraph's experimental ``LAGraph_KTruss``)::

    repeat:
        C⟨s(A)⟩ = A plus.pair A      # support: triangles through each edge
        A = C⟨C ≥ k − 2⟩             # keep edges with enough support
    until the edge set stops shrinking

Experimental algorithms ship faster and with fewer guarantees than the
stable tier — mirrored here by a lighter precondition story (the function
symmetrises and cleans its input itself).

The per-iteration support product ``C⟨s(A)⟩ = A plus.pair A`` rides the
mask-driven SpGEMM engine (:mod:`repro.grb._kernels.masked_matmul`): one
edge-wise neighbourhood intersection per surviving edge, which keeps
shrinking as the truss does.
"""

from __future__ import annotations

from ... import grb
from ...grb import Matrix, structure
from ...grb import cancel as _cancel
from ..graph import Graph
from ..utils.matrixops import triangle_pattern

__all__ = ["ktruss"]

_PLUS_PAIR = grb.semiring("plus", "pair")


def ktruss(g: Graph, k: int) -> Matrix:
    """Return the k-truss subgraph's adjacency (INT64 support values).

    Entry ``(i, j)`` of the result holds the number of triangles the edge
    supports within the truss.  ``k >= 3``.
    """
    if k < 3:
        raise grb.InvalidValue(f"k-truss needs k >= 3, got {k}")
    a = triangle_pattern(g)      # cached on g; the peels never write it
    support = k - 2
    last_nvals = -1
    while a.nvals != last_nvals:
        _cancel.checkpoint()        # deadline/cancel at the peel boundary
        last_nvals = a.nvals
        c = Matrix(grb.INT64, a.nrows, a.ncols)
        grb.mxm(c, a, a, _PLUS_PAIR, mask=structure(a))
        a = c.select("valuege", support)
    return a
