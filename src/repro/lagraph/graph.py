"""The ``LAGraph_Graph`` data structure (Listing 1 of the paper).

A :class:`Graph` bundles the adjacency matrix with *cached properties*:
values derivable from ``A`` that algorithms need repeatedly — the transpose,
row/column degrees, pattern symmetry, and the number of stored diagonal
entries.  Caching them on the graph keeps algorithm signatures small and
avoids recomputation (Sec. II-A).

Design points mirrored from the paper:

* **Non-opaque.**  Every field is publicly readable *and writable*.  Code
  that computes a property as a by-product may install it directly
  (``G.AT = ...``).  The flip side of the contract: whoever modifies ``A``
  must call :meth:`Graph.invalidate_properties` (the convention all LAGraph
  implementers follow).
* **Move construction.**  :meth:`Graph.new` takes ownership of the matrix
  through a one-element list ("pointer"), clearing the caller's reference —
  the C API's trick for preventing double-free, kept here for fidelity and
  exercised by the compat layer.
* **Unknown states.**  Missing properties are ``None``; the unknown diagonal
  count is ``-1``, exactly as in Listing 1.
* **Derived operands.**  Basic mode may compute and cache derived data on
  ``G`` (Sec. II-B).  Algorithms that rebuild the same working matrices
  from ``A`` on every call — triangle counting's degree-sorted ``L``/``U``,
  the symmetric diagonal-free pattern of LCC and k-truss, FastSV's
  sample, Δ-stepping's light/heavy split — keep them in a private cache
  (:meth:`Graph.derived_operand`) that :meth:`Graph.invalidate_properties`
  drops with the other properties.  A repeated call then re-reads the same
  objects, so the masked-dot analysis the engine memoizes on a mask (keyed
  on its operands' uid and store version) is served again.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from .. import grb
from ..grb.matrix import Matrix
from ..grb.vector import Vector
from .errors import InvalidGraph, Status
from .kinds import Kind

__all__ = ["Graph", "BOOLEAN_UNKNOWN"]

#: Sentinel mirroring ``LAGRAPH_BOOLEAN_UNKNOWN``.
BOOLEAN_UNKNOWN = None


class Graph:
    """An LAGraph graph: primary components plus cached properties."""

    __slots__ = ("A", "kind", "AT", "row_degree", "col_degree",
                 "A_pattern_is_symmetric", "ndiag", "version", "_operands",
                 "__weakref__")

    def __init__(self, A: Matrix, kind: Kind):
        if not isinstance(A, Matrix):
            raise InvalidGraph("Graph requires a grb.Matrix adjacency")
        if not isinstance(kind, Kind):
            raise InvalidGraph(f"invalid graph kind {kind!r}")
        if A.nrows != A.ncols:
            raise InvalidGraph(
                f"adjacency matrix must be square, got {A.shape}")
        #: primary components (Listing 1, lines 3-4)
        self.A = A
        self.kind = kind
        #: cached properties (Listing 1, lines 6-11)
        self.AT: Optional[Matrix] = None
        self.row_degree: Optional[Vector] = None
        self.col_degree: Optional[Vector] = None
        self.A_pattern_is_symmetric: Optional[bool] = BOOLEAN_UNKNOWN
        self.ndiag: int = -1
        #: monotone content version: bumped by :meth:`invalidate_properties`,
        #: i.e. whenever ``A`` is (declared) mutated.  Derived results — e.g.
        #: entries in :mod:`repro.serve`'s memo cache — keyed by
        #: ``(graph, version)`` die with the adjacency they were computed on.
        self.version: int = 0
        #: derived operands (:meth:`derived_operand`), keyed by recipe
        self._operands: dict = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def new(cls, matrix_ref: list, kind: Kind) -> "Graph":
        """``LAGraph_New``: move-construct a graph from ``matrix_ref[0]``.

        ``matrix_ref`` is a one-element list acting as ``GrB_Matrix *``.
        On return the list slot is ``None`` — the graph owns the matrix.
        """
        if not (isinstance(matrix_ref, list) and len(matrix_ref) == 1):
            raise InvalidGraph("Graph.new expects a one-element list (a 'pointer')")
        g = cls(matrix_ref[0], kind)
        matrix_ref[0] = None  # move semantics: caller's reference dies
        return g

    @classmethod
    def from_matrix(cls, A: Matrix, kind: Kind) -> "Graph":
        """Pythonic constructor (shares the matrix, no move)."""
        return cls(A, kind)

    @classmethod
    def from_coo(cls, rows, cols, values, n: int, kind: Kind,
                 dup_op=grb.binary.PLUS) -> "Graph":
        """Convenience: build the adjacency from COO triples."""
        A = Matrix.from_coo(rows, cols, values, n, n, dup_op=dup_op)
        return cls(A, kind)

    # ------------------------------------------------------------------
    # cached-property management (the LAGraph_Property_* utilities)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.A.nrows

    @property
    def nvals(self) -> int:
        """Number of stored entries of ``A``."""
        return self.A.nvals

    def cache_at(self) -> int:
        """``LAGraph_Property_AT``: compute & cache the transpose.

        For undirected graphs (symmetric pattern by definition) the cache
        aliases ``A`` itself, as the C library does.  Returns a status code
        (warning if already cached).
        """
        if self.AT is not None:
            return Status.CACHE_ALREADY_PRESENT
        if self.kind is Kind.ADJACENCY_UNDIRECTED:
            self.AT = self.A
        else:
            self.AT = self.A.T
        return Status.SUCCESS

    def cache_row_degree(self) -> int:
        """``LAGraph_Property_RowDegree``: out-degrees of ``A`` (dense INT64)."""
        if self.row_degree is not None:
            return Status.CACHE_ALREADY_PRESENT
        self.row_degree = self.A.row_degrees()
        return Status.SUCCESS

    def cache_col_degree(self) -> int:
        """``LAGraph_Property_ColDegree``: in-degrees of ``A`` (dense INT64)."""
        if self.col_degree is not None:
            return Status.CACHE_ALREADY_PRESENT
        self.col_degree = self.A.col_degrees()
        return Status.SUCCESS

    def cache_symmetric_pattern(self) -> int:
        """``LAGraph_Property_ASymmetricPattern``: test structure symmetry."""
        if self.A_pattern_is_symmetric is not BOOLEAN_UNKNOWN:
            return Status.CACHE_ALREADY_PRESENT
        if self.kind is Kind.ADJACENCY_UNDIRECTED:
            self.A_pattern_is_symmetric = True
        else:
            self.A_pattern_is_symmetric = self.A.is_symmetric_pattern()
        return Status.SUCCESS

    def cache_ndiag(self) -> int:
        """Count stored diagonal entries (-1 means unknown)."""
        if self.ndiag != -1:
            return Status.CACHE_ALREADY_PRESENT
        self.ndiag = self.A.ndiag()
        return Status.SUCCESS

    def cache_all(self):
        """Compute every cached property (Basic-mode convenience)."""
        self.cache_at()
        self.cache_row_degree()
        self.cache_col_degree()
        self.cache_symmetric_pattern()
        self.cache_ndiag()
        return Status.SUCCESS

    def derived_operand(self, key, build: Callable[[], object]):
        """The operand cached under ``key``, built by ``build()`` on first
        use and kept until :meth:`invalidate_properties`.

        ``key`` names the recipe (``build`` must depend on nothing but
        ``A``, ``kind``, the cached properties and the parameters the key
        spells out, such as SSSP's Δ).  The value is a
        :class:`Matrix` or a tuple of them; callers read it and never
        write into it.  Threads that race on a missing key each build it,
        and all of them return the first value stored.
        """
        operands = self._operands     # an invalidation swaps in a new dict
        value = operands.get(key)
        if value is None:
            value = operands.setdefault(key, build())
        return value

    def matrices(self) -> Iterator[Matrix]:
        """Every matrix the graph holds now: ``A``, a cached ``AT`` and the
        derived operands."""
        yield self.A
        at = self.AT
        if at is not None:
            yield at
        for value in self._operands.copy().values():
            yield from value if isinstance(value, tuple) else (value,)

    def invalidate_properties(self) -> int:
        """``LAGraph_DeleteProperties``: drop all cached properties and
        derived operands.

        Must be called by any code that mutates ``G.A`` (the consistency
        convention of Sec. II-A).  Also bumps :attr:`version`, so externally
        memoized results keyed by the old version can never be served for the
        mutated graph.
        """
        self.AT = None
        self.row_degree = None
        self.col_degree = None
        self.A_pattern_is_symmetric = BOOLEAN_UNKNOWN
        self.ndiag = -1
        self._operands = {}
        self.version += 1
        return Status.SUCCESS

    # alias matching the C name
    delete_properties = invalidate_properties

    # ------------------------------------------------------------------
    # consistency checking (LAGraph_CheckGraph)
    # ------------------------------------------------------------------
    def check(self) -> int:
        """Validate the graph and its cached properties.

        Because the object is non-opaque a user may have put it in an
        inconsistent state; this verifies every cached property against a
        fresh computation (Sec. V, "Display and debug").
        Raises :class:`InvalidGraph` on the first violation.
        """
        A = self.A
        if not isinstance(A, Matrix):
            raise InvalidGraph("G.A is not a grb.Matrix")
        if A.nrows != A.ncols:
            raise InvalidGraph(f"G.A must be square, got {A.shape}")
        if not isinstance(self.kind, Kind):
            raise InvalidGraph(f"invalid kind {self.kind!r}")
        # CSR structural invariants
        if A.indptr.size != A.nrows + 1 or A.indptr[0] != 0:
            raise InvalidGraph("corrupt indptr")
        if A.indptr[-1] != A.indices.size or A.indices.size != A.values.size:
            raise InvalidGraph("indptr/indices/values lengths disagree")
        if np.any(np.diff(A.indptr) < 0):
            raise InvalidGraph("indptr not monotone")
        if A.indices.size and (A.indices.min() < 0 or A.indices.max() >= A.ncols):
            raise InvalidGraph("column index out of range")
        # per-row sortedness: within each row indices strictly increase
        d = np.diff(A.indices)
        interior = np.ones(d.size + 1, dtype=bool)
        row_starts = A.indptr[1:-1]
        interior[row_starts[row_starts <= d.size]] = False
        if d.size and np.any(d[interior[1:]] <= 0):
            raise InvalidGraph("row indices not strictly sorted")
        # cached-property consistency
        if self.kind is Kind.ADJACENCY_UNDIRECTED and not A.is_symmetric_pattern():
            raise InvalidGraph("undirected graph with asymmetric pattern")
        if self.AT is not None:
            expect = A if self.kind is Kind.ADJACENCY_UNDIRECTED else A.T
            if not self.AT.isequal(expect):
                raise InvalidGraph("cached AT does not match A transpose")
        if self.row_degree is not None:
            if not self.row_degree.isequal(A.row_degrees()):
                raise InvalidGraph("cached row_degree is stale")
        if self.col_degree is not None:
            if not self.col_degree.isequal(A.col_degrees()):
                raise InvalidGraph("cached col_degree is stale")
        if self.A_pattern_is_symmetric is not BOOLEAN_UNKNOWN:
            if bool(self.A_pattern_is_symmetric) != A.is_symmetric_pattern():
                raise InvalidGraph("cached symmetry flag is wrong")
        if self.ndiag != -1 and self.ndiag != A.ndiag():
            raise InvalidGraph("cached ndiag is wrong")
        return Status.SUCCESS

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def display(self, level: int = 1) -> str:
        """``LAGraph_DisplayGraph``: a human-readable summary string."""
        lines = [
            f"LAGraph.Graph: {self.kind.value}, n={self.n}, nvals={self.nvals}, "
            f"type={self.A.type.name}",
            f"  cached: AT={'yes' if self.AT is not None else 'no'} "
            f"row_degree={'yes' if self.row_degree is not None else 'no'} "
            f"col_degree={'yes' if self.col_degree is not None else 'no'} "
            f"symmetric={self.A_pattern_is_symmetric} ndiag={self.ndiag} "
            f"version={self.version}",
        ]
        if level >= 2 and self.n <= 16:
            lines.append(str(self.A.to_dense()))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Graph(kind={self.kind.value}, n={self.n}, "
                f"nvals={self.nvals})")
