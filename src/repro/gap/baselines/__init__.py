"""Reference (non-GraphBLAS) kernels playing the role of the GAP C++ code.

Each module documents its correspondence to a ``*.cc`` kernel of the GAP
benchmark suite.  These serve two purposes: the "native tuned" side of the
Table III comparison, and independent correctness oracles for the LAGraph
implementations.
"""

from .bc import betweenness_centrality
from .bfs import bfs_level, bfs_parent
from .cc import connected_components
from .pr import pagerank
from .sssp import sssp_delta_numpy, sssp_dijkstra
from .tc import triangle_count, triangle_count_node_iterator

__all__ = [
    "betweenness_centrality", "bfs_level", "bfs_parent",
    "connected_components", "pagerank", "sssp_delta_numpy", "sssp_dijkstra",
    "triangle_count", "triangle_count_node_iterator",
]
