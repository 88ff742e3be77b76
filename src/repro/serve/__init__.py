"""``repro.serve`` — a concurrent graph-analytics serving engine.

The layer above :mod:`repro.lagraph` for throughput rather than
single-query latency: a :class:`GraphService` owns a versioned
:class:`GraphRegistry`, accepts analytics requests (BFS levels/parents,
SSSP, PageRank, connected components, triangle counts) from many callers,
answers every same-graph BFS request of one kind, a lone one included, as
a row of one **batched multi-source kernel** (:func:`repro.lagraph.msbfs`
— the paper's Alg. 3 batching trick, Sec. IV-B, applied to serving),
runs each distinct SSSP and whole-graph request once through its direct
lagraph call, and memoizes results in an LRU cache keyed by ``(graph
epoch, graph version, query)`` so entries die with the adjacency they were
computed on.

Quick tour::

    from repro import serve
    from repro.gap import datasets

    svc = serve.GraphService(max_workers=4)
    svc.register("kron", datasets.build("kron", "tiny"))

    futs = svc.submit_many("kron", [serve.BFSLevels(s) for s in range(64)])
    levels = [f.result() for f in futs]        # one batched kernel sweep

    svc.invalidate("kron")                     # version bump: cache misses
    svc.query("kron", serve.TriangleCount())   # recomputed, re-memoized

Every answer is bit-identical to the direct ``repro.lagraph`` call named in
the query class's docstring.
"""

from .cache import CacheStats, LRUCache
from .coalesce import Batch, CoalescingQueue, PendingRequest, plan_batches
from .registry import GraphRegistry, UnknownGraph
from .requests import (
    BFSLevels,
    BFSParents,
    ConnectedComponents,
    PageRank,
    Query,
    SSSP,
    TriangleCount,
)
from . import resilience
from .resilience import (
    Cancelled,
    CircuitBreaker,
    CircuitOpen,
    DeadlineExceeded,
    DegradedResult,
    GraphValidationError,
    RetryPolicy,
    ServiceOverloaded,
    UnknownKernel,
)
from .service import GraphService, ServiceStats

__all__ = [
    "GraphService", "ServiceStats",
    "GraphRegistry", "UnknownGraph",
    "LRUCache", "CacheStats",
    "CoalescingQueue", "PendingRequest", "Batch", "plan_batches",
    "Query", "BFSLevels", "BFSParents", "SSSP",
    "PageRank", "ConnectedComponents", "TriangleCount",
    # resilience vocabulary (docs/RESILIENCE.md)
    "resilience", "RetryPolicy", "CircuitBreaker", "DegradedResult",
    "DeadlineExceeded", "Cancelled", "ServiceOverloaded", "CircuitOpen",
    "GraphValidationError", "UnknownKernel",
]
