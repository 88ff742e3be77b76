"""``repro.lagraph`` — the paper's contribution: LAGraph in Python.

A library of production-worthy graph algorithms built on the GraphBLAS
substrate (:mod:`repro.grb`), organised exactly as the paper describes:

* :class:`Graph` — the non-opaque graph object with cached properties
  (Listing 1);
* :mod:`~repro.lagraph.algorithms` — the stable tier: the six GAP kernels
  in Basic and Advanced user modes (Secs. II-B, IV);
* :mod:`~repro.lagraph.experimental` — the experimental tier (Sec. II-E);
* :mod:`~repro.lagraph.utils` — utility functions (Sec. V);
* :mod:`~repro.lagraph.compat` — the C calling convention, status codes,
  message buffer and TRY/CATCH helpers (Secs. II-C/D).
"""

from . import algorithms, compat, experimental, utils
from .algorithms import (
    bfs,
    bfs_level,
    bfs_parent_auto,
    bfs_parent_do,
    bfs_parent_push,
    betweenness_centrality,
    betweenness_centrality_batch,
    connected_components,
    fastsv,
    msbfs,
    msbfs_levels,
    msbfs_parents,
    pagerank,
    pagerank_gap,
    pagerank_gx,
    sssp,
    sssp_bellman_ford,
    sssp_delta_stepping,
    triangle_count,
    triangle_count_basic,
    triangle_count_method,
)
from .errors import (
    LAGraphError,
    InvalidGraph,
    InvalidKind,
    MsgBuffer,
    MSG_LEN,
    PropertyMissing,
    Status,
)
from .graph import BOOLEAN_UNKNOWN, Graph
from .kinds import ADJACENCY_DIRECTED, ADJACENCY_UNDIRECTED, Kind, kind_name

__all__ = [
    "Graph", "Kind", "ADJACENCY_DIRECTED", "ADJACENCY_UNDIRECTED",
    "kind_name", "BOOLEAN_UNKNOWN",
    "algorithms", "experimental", "utils", "compat",
    "bfs", "bfs_level", "bfs_parent_auto", "bfs_parent_do",
    "bfs_parent_push",
    "betweenness_centrality", "betweenness_centrality_batch",
    "connected_components", "fastsv",
    "msbfs", "msbfs_levels", "msbfs_parents",
    "pagerank", "pagerank_gap", "pagerank_gx",
    "sssp", "sssp_bellman_ford", "sssp_delta_stepping",
    "triangle_count", "triangle_count_basic", "triangle_count_method",
    "LAGraphError", "InvalidGraph", "InvalidKind", "PropertyMissing",
    "MsgBuffer", "MSG_LEN", "Status",
]
