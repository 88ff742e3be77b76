"""Reference PageRank (the role of GAP's ``pr.cc``).

Dense power iteration with a compiled SciPy CSR matvec — the tightest
"native" formulation available to a Python harness.  Semantics match the
GAP spec (and therefore :func:`repro.lagraph.pagerank_gap`): dangling-node
mass is dropped, scores are scaled contributions pulled through the
*pattern* of Aᵀ (edge weights play no part in PageRank).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from ...lagraph.graph import Graph

__all__ = ["pagerank"]


def pagerank(g: Graph, damping: float = 0.85, tol: float = 1e-4,
             itermax: int = 100) -> Tuple[np.ndarray, int]:
    """Return ``(rank, iterations)``; GAP-spec semantics."""
    n = g.n
    at = g.A.T.to_scipy()
    at = sp.csr_matrix((np.ones(at.nnz), at.indices, at.indptr),
                       shape=at.shape)
    out_deg = np.diff(g.A.indptr).astype(np.float64)
    nonzero = out_deg > 0
    teleport = (1.0 - damping) / n

    r = np.full(n, 1.0 / n)
    iters = 0
    for _ in range(itermax):
        iters += 1
        w = np.zeros(n)
        w[nonzero] = damping * r[nonzero] / out_deg[nonzero]
        r_new = teleport + at @ w
        delta = float(np.abs(r_new - r).sum())
        r = r_new
        if delta < tol:
            break
    return r, iters
