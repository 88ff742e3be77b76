"""Query vocabulary of the serving engine.

Every request to :class:`~repro.serve.service.GraphService` is a frozen
(hence hashable) dataclass describing one analytics question about one
graph.  The query object *is* the memo-cache key component — two requests
with equal fields are the same computation — and it knows how to execute
itself against a :class:`~repro.lagraph.graph.Graph`:

* :meth:`Query.run_direct` is the reference execution: exactly the call a
  user would make against :mod:`repro.lagraph` by hand.  Service results
  are defined to be identical to it.
* The BFS queries (:class:`BFSLevels`, :class:`BFSParents`) additionally
  declare a *coalesce group* and a batched kernel: every same-graph query
  of one group, a lone one included, is a row of one multi-source matrix
  sweep (``msbfs_levels`` / ``msbfs_parents``), bit-identical to the
  per-source call.
* Every other query — :class:`SSSP` (one ``sssp_bellman_ford`` call per
  distinct source) and the whole-graph :class:`PageRank`,
  :class:`ConnectedComponents` and :class:`TriangleCount` — is
  deduplicated and memoized but never batched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

__all__ = [
    "Query", "BFSLevels", "BFSParents", "SSSP",
    "PageRank", "ConnectedComponents", "TriangleCount",
]


@dataclass(frozen=True)
class Query:
    """Base class: a hashable description of one analytics request."""

    #: Coalesce-group tag: queries on the same graph sharing a non-``None``
    #: tag may be answered by one batched kernel call.
    COALESCE: ClassVar[Optional[str]] = None

    def run_direct(self, g):
        """Execute against ``g`` exactly as a direct lagraph call would."""
        raise NotImplementedError

    def validate(self, g) -> None:
        """Raise the same errors a direct call would, before scheduling."""


@dataclass(frozen=True)
class _SingleSource(Query):
    """A query with a source-vertex axis.

    A coalescible subclass also names a ``run_batch(g, sources)`` kernel
    whose ``ns × n`` result holds one answer per row."""

    source: int = 0

    def validate(self, g) -> None:
        from .. import grb
        if not 0 <= int(self.source) < g.n:
            raise grb.IndexOutOfBounds(
                f"source {self.source} out of range [0, {g.n})")


@dataclass(frozen=True)
class BFSLevels(_SingleSource):
    """BFS depths from ``source`` (sparse INT64 vector; source depth 0)."""

    COALESCE: ClassVar[Optional[str]] = "bfs_levels"

    def run_direct(self, g):
        from .. import lagraph as lg
        return lg.bfs_level(g, int(self.source))

    @staticmethod
    def run_batch(g, sources):
        from .. import lagraph as lg
        return lg.msbfs_levels(g, np.asarray(sources, dtype=np.int64))


@dataclass(frozen=True)
class BFSParents(_SingleSource):
    """BFS-tree parents from ``source`` (sparse INT64 vector)."""

    COALESCE: ClassVar[Optional[str]] = "bfs_parents"

    def run_direct(self, g):
        from .. import lagraph as lg
        return lg.msbfs_parents(g, [int(self.source)]).extract_row(0)

    @staticmethod
    def run_batch(g, sources):
        from .. import lagraph as lg
        return lg.msbfs_parents(g, np.asarray(sources, dtype=np.int64))


@dataclass(frozen=True)
class SSSP(_SingleSource):
    """Shortest-path distances from ``source`` (sparse FP64 vector)."""

    def run_direct(self, g):
        from .. import lagraph as lg
        return lg.sssp_bellman_ford(g, int(self.source))


@dataclass(frozen=True)
class PageRank(Query):
    """PageRank scores; result is the ``(Vector, iterations)`` pair the
    Basic-mode :func:`repro.lagraph.pagerank` returns."""

    #: Variants the stack ships (``"gx"`` is the short alias the lagraph
    #: dispatcher accepts for ``"graphalytics"``).
    VARIANTS: ClassVar[tuple] = ("gap", "graphalytics", "gx")

    variant: str = "gap"
    damping: float = 0.85
    tol: float = 1e-4
    itermax: int = 100

    def validate(self, g) -> None:
        from .resilience import GraphValidationError, UnknownKernel
        if self.variant not in self.VARIANTS:
            raise UnknownKernel(
                f"unknown PageRank variant {self.variant!r}; "
                f"one of {self.VARIANTS}")
        if not 0.0 < float(self.damping) < 1.0:
            raise GraphValidationError(
                f"PageRank damping must be in (0, 1), got {self.damping}")
        if not float(self.tol) > 0.0:
            raise GraphValidationError(
                f"PageRank tol must be > 0, got {self.tol}")
        if int(self.itermax) < 1:
            raise GraphValidationError(
                f"PageRank itermax must be >= 1, got {self.itermax}")

    def run_direct(self, g):
        from .. import lagraph as lg
        return lg.pagerank(g, variant=self.variant, damping=self.damping,
                           tol=self.tol, itermax=self.itermax)


@dataclass(frozen=True)
class ConnectedComponents(Query):
    """Component labels (dense INT64 vector of representatives)."""

    def run_direct(self, g):
        from .. import lagraph as lg
        return lg.connected_components(g)


@dataclass(frozen=True)
class TriangleCount(Query):
    """Global triangle count (an ``int``)."""

    method: str = "sandia_lut"

    def validate(self, g) -> None:
        from ..lagraph.algorithms.tc import METHODS
        from .resilience import UnknownKernel
        if self.method not in METHODS:
            raise UnknownKernel(
                f"unknown TriangleCount method {self.method!r}; "
                f"one of {tuple(METHODS)}")

    def run_direct(self, g):
        from .. import lagraph as lg
        return lg.triangle_count_basic(g, method=self.method)
