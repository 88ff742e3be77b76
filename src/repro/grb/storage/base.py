"""Storage protocols and shared conversion helpers.

A store owns the entries of one matrix or vector in one concrete layout.
The contract every matrix format implements:

* :meth:`MatrixStore.csr` — the *canonical CSR triple*: ``indptr``
  (int64, ``nrows + 1``), ``indices`` (int64, sorted within each row,
  duplicate-free) and ``values`` (the owner's dtype).  Formats that are not
  row-major sparse derive it lazily and cache it; because every kernel
  without a native fast path reads this view, results are bit-identical
  across formats by construction.
* :meth:`MatrixStore.entry_rows` — the row id of every canonical entry
  (COO expansion).  Hypersparse overrides this with an O(live-rows)
  construction instead of O(nrows).
* :meth:`MatrixStore.transpose_csr` — the CSR triple *of the transpose*
  (equivalently: the CSC view of this matrix).  CSC stores return their
  native arrays, making pull-direction kernels free; everything else
  converts once and caches (the storage-level analogue of LAGraph's
  ``G->AT`` property).

Stores are internal, single-owner objects.  The owning ``Matrix`` /
``Vector`` replaces its store wholesale at mutation boundaries — with one
exception, the bitmap stores, whose owner may also write entries into
them in place (``scatter`` / ``erase`` / ``set_element``, see
:mod:`~repro.grb.storage.bitmap`) while the store says it is ``writable()``:
nobody else holds its buffers.  Nothing but the owner mutates a store
(``tools/reprolint``'s ``store-mutation`` rule holds the line).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._kernels.gather import expand_rows

__all__ = ["MatrixStore", "VectorStore", "csr_to_csc_arrays",
           "csc_to_csr_arrays", "freeze_arrays", "arrays_nbytes"]


def arrays_nbytes(array_tuples, exclude=()):
    """Total bytes of the arrays in ``array_tuples``, skipping ``exclude``.

    Deduplicates by object identity: a derived-view cache that aliases an
    authoritative array (hypersparse keeps the canonical indices/values in
    both roles) is never double-counted.
    """
    seen = {id(a) for a in exclude}
    total = 0
    for arrays in array_tuples:
        if arrays is None:
            continue
        for a in arrays:
            if id(a) not in seen:
                seen.add(id(a))
                total += int(a.nbytes)
    return total


def freeze_arrays(arrays):
    """Mark a derived-cache array tuple read-only and return it.

    Derived canonical views (a bitmap store's CSR triple, a CSC store's
    row-major view) are *caches*: an in-place write through them could
    never reach the authoritative arrays, so it would silently desync the
    two representations.  Freezing turns that silent corruption into an
    immediate ``ValueError`` — code that wants writable CSR arrays pins
    the object to ``csr`` first.
    """
    for a in arrays:
        a.flags.writeable = False
    return arrays


def csr_to_csc_arrays(indptr, indices, values, nrows: int, ncols: int):
    """CSC triple (col ptrs, row ids, values in column order) of a CSR matrix.

    Equivalently the canonical CSR triple of the transpose.  Row ids are
    sorted within each column; int64 throughout.
    """
    if indices.size == 0:
        return (np.zeros(ncols + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                values[:0].copy())
    c = sp.csr_matrix((values, indices, indptr), shape=(nrows, ncols)).tocsc()
    c.sort_indices()
    return (c.indptr.astype(np.int64), c.indices.astype(np.int64),
            c.data)


def csc_to_csr_arrays(cindptr, rindices, cvalues, nrows: int, ncols: int):
    """Canonical CSR triple of a matrix given in CSC arrays."""
    if rindices.size == 0:
        return (np.zeros(nrows + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                cvalues[:0].copy())
    c = sp.csc_matrix((cvalues, rindices, cindptr), shape=(nrows, ncols)).tocsr()
    c.sort_indices()
    return (c.indptr.astype(np.int64), c.indices.astype(np.int64),
            c.data)


class MatrixStore:
    """Base class for matrix storage formats."""

    fmt: str = "?"
    __slots__ = ("nrows", "ncols")

    # -- canonical views -------------------------------------------------
    def csr(self):
        """``(indptr, indices, values)`` — the canonical CSR triple."""
        raise NotImplementedError

    @property
    def nvals(self) -> int:
        return int(self.csr()[1].size)

    def entry_rows(self) -> np.ndarray:
        """Row id of every canonical entry (aligned with ``csr()[1]``)."""
        return expand_rows(self.csr()[0], self.nrows)

    def transpose_csr(self):
        """CSR triple of the transpose (== the CSC view of this matrix)."""
        raise NotImplementedError

    # -- structural queries the policy reads ----------------------------
    def live_row_count(self) -> int:
        """Number of rows holding at least one entry."""
        indptr = self.csr()[0]
        return int(np.count_nonzero(np.diff(indptr)))

    # -- footprint accounting (see repro.obs.memory) ---------------------
    def nbytes_components(self) -> dict:
        """Bytes per *authoritative* component array, by name.

        Lazily derived caches (a bitmap store's CSR triple, the cached CSC
        view) are deliberately excluded: the always-on footprint gauges
        must not depend on which views some kernel happened to
        materialise before they were read.  Cache bytes are reported
        separately via :meth:`cache_nbytes` (the opt-in memory report
        reads both)."""
        raise NotImplementedError

    def nbytes(self) -> int:
        """Total authoritative bytes (sum of :meth:`nbytes_components`)."""
        return sum(self.nbytes_components().values())

    def cache_nbytes(self) -> int:
        """Bytes currently held by materialised derived-view caches."""
        return 0

    # -- lifecycle -------------------------------------------------------
    def copy(self) -> "MatrixStore":
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}({self.nrows}x{self.ncols}, "
                f"nvals={self.nvals})")


class VectorStore:
    """Base class for vector storage formats.

    Both representations of the sparse/bitmap duality are reachable from
    either store — one is authoritative, the other a lazily built cache —
    so switching formats never loses information (explicit zeros included:
    presence is tracked by structure, not by value).
    """

    fmt: str = "?"
    __slots__ = ("size",)

    def sparse(self):
        """``(indices, values)`` — sorted, duplicate-free int64 indices."""
        raise NotImplementedError

    def bitmap(self):
        """``(present, dense)`` — bool flags plus a dense value array."""
        raise NotImplementedError

    @property
    def nvals(self) -> int:
        return int(self.sparse()[0].size)

    def nbytes_components(self) -> dict:
        """Bytes per authoritative component array (see MatrixStore)."""
        raise NotImplementedError

    def nbytes(self) -> int:
        """Total authoritative bytes (sum of :meth:`nbytes_components`)."""
        return sum(self.nbytes_components().values())

    def cache_nbytes(self) -> int:
        """Bytes currently held by the materialised dual-view cache."""
        return 0

    def copy(self) -> "VectorStore":
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(size={self.size}, nvals={self.nvals})"
