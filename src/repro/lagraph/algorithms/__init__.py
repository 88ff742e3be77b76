"""The six GAP-benchmark algorithms (Sec. IV of the paper) — stable tier.

Every algorithm comes in the two user modes of Sec. II-B:

* **Basic** entry points (`bfs`, `pagerank`, `betweenness_centrality`,
  `sssp`, `triangle_count_basic`, `connected_components`) "just work":
  they may inspect the graph, compute & cache properties, and pick an
  implementation.
* **Advanced** entry points (`bfs_parent_push`, `bfs_parent_do`,
  `pagerank_gap`, `pagerank_gx`, `betweenness_centrality_batch`,
  `sssp_delta_stepping`, `sssp_bellman_ford`, `triangle_count`, `fastsv`)
  never compute cached properties and raise
  :class:`~repro.lagraph.errors.PropertyMissing` /
  :class:`~repro.lagraph.errors.InvalidKind` when preconditions are unmet.
"""

from .bc import betweenness_centrality, betweenness_centrality_batch
from .bfs import (bfs, bfs_level, bfs_parent_auto, bfs_parent_do,
                  bfs_parent_push)
from .cc import connected_components, fastsv
from .msbfs import msbfs, msbfs_levels, msbfs_parents
from .pagerank import pagerank, pagerank_gap, pagerank_gx
from .sssp import sssp, sssp_batch, sssp_bellman_ford, sssp_delta_stepping
from .tc import (
    METHODS as TC_METHODS,
    triangle_count,
    triangle_count_basic,
    triangle_count_method,
)

__all__ = [
    "bfs", "bfs_level", "bfs_parent_auto", "bfs_parent_do",
    "bfs_parent_push",
    "betweenness_centrality", "betweenness_centrality_batch",
    "connected_components", "fastsv",
    "msbfs", "msbfs_levels", "msbfs_parents",
    "pagerank", "pagerank_gap", "pagerank_gx",
    "sssp", "sssp_batch", "sssp_bellman_ford", "sssp_delta_stepping",
    "triangle_count", "triangle_count_basic", "triangle_count_method",
    "TC_METHODS",
]
