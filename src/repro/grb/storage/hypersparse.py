"""Hypersparse storage — row-pointer compression for nearly-empty row sets.

A CSR matrix pays O(nrows) per operation just walking ``indptr`` — painful
for frontier matrices whose live rows are a sliver of the total (the
road-graph BFS levels ROADMAP calls out, or a batched-msbfs frontier near
termination).  Hypersparse stores only the live rows: ``live_rows`` (sorted
row ids with ≥1 entry), a compressed pointer array over *those* rows, and
the usual column/value arrays.  ``entry_rows`` and the key expansion become
O(live + nnz) instead of O(nrows + nnz); the canonical CSR view is derived
once and cached for kernels with no native path.
"""

from __future__ import annotations

import numpy as np

from .._kernels.gather import hyper_expand_rows
from .base import MatrixStore, arrays_nbytes, csr_to_csc_arrays

__all__ = ["HypersparseStore"]


class HypersparseStore(MatrixStore):
    """``(live_rows, hindptr, indices, values)`` row-compressed storage."""

    fmt = "hypersparse"
    __slots__ = ("live_rows", "hindptr", "indices", "values", "_csr", "_csc")

    def __init__(self, nrows: int, ncols: int, live_rows, hindptr, indices,
                 values):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.live_rows = live_rows
        self.hindptr = hindptr
        self.indices = indices
        self.values = values
        self._csr = None
        self._csc = None

    @classmethod
    def from_csr(cls, indptr, indices, values, nrows, ncols
                 ) -> "HypersparseStore":
        counts = np.diff(indptr)
        live = np.flatnonzero(counts).astype(np.int64)
        hindptr = np.concatenate(
            ([0], np.cumsum(counts[live]))).astype(np.int64)
        st = cls(nrows, ncols, live, hindptr, indices, values)
        st._csr = (indptr, indices, values)
        return st

    @classmethod
    def from_counts(cls, counts, indices, values, nrows, ncols, indptr=None
                    ) -> "HypersparseStore":
        """Build from a full per-row entry count array (mutation boundary
        path: ``counts`` falls out of the key→CSR rebuild for free)."""
        live = np.flatnonzero(counts).astype(np.int64)
        hindptr = np.concatenate(
            ([0], np.cumsum(counts[live]))).astype(np.int64)
        st = cls(nrows, ncols, live, hindptr, indices, values)
        if indptr is not None:
            st._csr = (indptr, indices, values)
        return st

    def csr(self):
        if self._csr is None:
            counts = np.zeros(self.nrows, dtype=np.int64)
            counts[self.live_rows] = np.diff(self.hindptr)
            indptr = np.concatenate(
                ([0], np.cumsum(counts))).astype(np.int64)
            self._csr = (indptr, self.indices, self.values)
        return self._csr

    @property
    def nvals(self) -> int:
        return int(self.indices.size)

    def entry_rows(self) -> np.ndarray:
        # O(live + nnz): never touches the empty rows.
        return hyper_expand_rows(self.live_rows, self.hindptr)

    def live_row_count(self) -> int:
        return int(self.live_rows.size)

    def transpose_csr(self):
        if self._csc is None:
            indptr, indices, values = self.csr()
            self._csc = csr_to_csc_arrays(indptr, indices, values,
                                          self.nrows, self.ncols)
        return self._csc

    def nbytes_components(self) -> dict:
        return {"live_rows": int(self.live_rows.nbytes),
                "hindptr": int(self.hindptr.nbytes),
                "indices": int(self.indices.nbytes),
                "values": int(self.values.nbytes)}

    def cache_nbytes(self) -> int:
        # the cached CSR triple aliases the authoritative indices/values;
        # arrays_nbytes dedups by identity so only the expanded indptr counts
        return arrays_nbytes((self._csr, self._csc),
                             exclude=(self.live_rows, self.hindptr,
                                      self.indices, self.values))

    def copy(self) -> "HypersparseStore":
        return HypersparseStore(self.nrows, self.ncols, self.live_rows.copy(),
                                self.hindptr.copy(), self.indices.copy(),
                                self.values.copy())
