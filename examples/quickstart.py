"""Quickstart: build a graph, run the GAP kernels, inspect results.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import grb
from repro import lagraph as lg
from repro.gap import baselines

# ---------------------------------------------------------------------------
# 1. Build a graph.  The adjacency matrix is an ordinary grb.Matrix; the
#    Graph object adds the kind tag and the cached-property slots
#    (Listing 1 of the paper).
# ---------------------------------------------------------------------------
# A small directed "diamond with a tail":  0→1, 0→2, 1→3, 2→3, 3→4
rows = [0, 0, 1, 2, 3]
cols = [1, 2, 3, 3, 4]
A = grb.Matrix.from_coo(rows, cols, np.ones(5, dtype=bool), 5, 5)
g = lg.Graph(A, lg.ADJACENCY_DIRECTED)
print(g.display())

# ---------------------------------------------------------------------------
# 2. Basic mode: algorithms that "just work" (Sec. II-B).  They inspect the
#    graph, cache whatever properties they need, and pick an implementation.
# ---------------------------------------------------------------------------
parent, level = lg.bfs(g, 0, parent=True, level=True)
print("\nBFS from node 0")
print("  parents:", dict(zip(*map(np.ndarray.tolist, parent.to_coo()))))
print("  levels: ", dict(zip(*map(np.ndarray.tolist, level.to_coo()))))

rank, iters = lg.pagerank(g)
print(f"\nPageRank (GAP variant, {iters} iterations)")
print("  ranks:", np.round(rank.to_dense(), 4))

cent = lg.betweenness_centrality(g, sources=range(5))
print("\nBetweenness centrality (exact):", cent.to_dense())

comp = lg.connected_components(g)
print("\nWeakly connected components:", comp.to_dense())

# Triangle counting needs an undirected view — Basic mode fixes that up.
print("\nTriangles:", lg.triangle_count_basic(g))

# ---------------------------------------------------------------------------
# 3. Advanced mode: nothing is computed behind your back.  The same BFS
#    refuses to run until *you* cache the transpose and degrees.
# ---------------------------------------------------------------------------
h = lg.Graph(A.dup(), lg.ADJACENCY_DIRECTED)
try:
    lg.bfs_parent_do(h, 0)
except lg.PropertyMissing as e:
    print(f"\nAdvanced mode refused: {e}")
h.cache_at()
h.cache_row_degree()
parent2 = lg.bfs_parent_do(h, 0)
print("after caching, advanced BFS parents:", parent2.to_coo()[0].tolist())
ref = baselines.bfs_parent(h, 0)      # the GAP reference BFS, raw arrays
idx, par = parent2.to_coo()
assert np.array_equal(idx, np.flatnonzero(ref >= 0))
assert np.array_equal(par, ref[idx])

# ---------------------------------------------------------------------------
# 4. The C calling convention (Secs. II-C/D), for code ported from LAGraph.
# ---------------------------------------------------------------------------
from repro.lagraph import compat

msg = lg.MsgBuffer()
box = [A.dup()]                       # a "GrB_Matrix *"
status, g2 = compat.LAGraph_New(box, lg.ADJACENCY_DIRECTED, msg=msg)
compat.lagraph_try(status, msg=msg)   # LAGraph_TRY
assert box[0] is None                 # move semantics: the matrix was taken
status, level2, parent3 = compat.LAGraph_BreadthFirstSearch(g2, 0, msg=msg)
compat.lagraph_try(status, msg=msg)
print("\nC-style BFS status:", status, "| reached:", parent3.nvals, "nodes")

# ---------------------------------------------------------------------------
# 5. Dropping down to the GraphBLAS layer: one BFS step by hand, in the
#    paper's notation  qᵀ⟨¬s(pᵀ), r⟩ = qᵀ any.secondi A   (Alg. 1, line 5).
# ---------------------------------------------------------------------------
p = grb.Vector(grb.INT64, 5); p[0] = 0
q = grb.Vector(grb.INT64, 5); q[0] = 0
grb.vxm(q, q, A, grb.semiring("any", "secondi"),
        mask=grb.complement(grb.structure(p)), replace=True)
print("\none hand-rolled BFS step:", dict(zip(*map(np.ndarray.tolist,
                                                   q.to_coo()))))
