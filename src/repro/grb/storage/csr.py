"""Row-major sparse storage — the reference format.

``CSRStore`` holds the canonical triple natively; it is the default format,
the one every other store converts from/to, and the layout all results are
verified against.  The CSC view of the content (= the transpose's CSR
arrays) is built once on demand and cached, mirroring LAGraph's cached
``G->AT``: repeated pull-direction steps pay the conversion only once.
"""

from __future__ import annotations

import numpy as np

from .base import MatrixStore, arrays_nbytes, csr_to_csc_arrays

__all__ = ["CSRStore"]


class CSRStore(MatrixStore):
    """CSR arrays held directly (zero conversion cost either way)."""

    fmt = "csr"
    __slots__ = ("indptr", "indices", "values", "_csc")

    def __init__(self, nrows: int, ncols: int, indptr, indices, values):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = indptr
        self.indices = indices
        self.values = values
        self._csc = None

    @classmethod
    def empty(cls, nrows: int, ncols: int, dtype) -> "CSRStore":
        return cls(nrows, ncols,
                   np.zeros(nrows + 1, dtype=np.int64),
                   np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=dtype))

    @classmethod
    def from_csr(cls, indptr, indices, values, nrows, ncols) -> "CSRStore":
        # inputs may be another store's frozen canonical cache; the CSR
        # store is authoritative and mutable, so unfreeze by copying
        arrays = [a if a.flags.writeable else a.copy()
                  for a in (indptr, indices, values)]
        return cls(nrows, ncols, *arrays)

    def csr(self):
        return self.indptr, self.indices, self.values

    @property
    def nvals(self) -> int:
        return int(self.indices.size)

    def transpose_csr(self):
        if self._csc is None:
            self._csc = csr_to_csc_arrays(self.indptr, self.indices,
                                          self.values, self.nrows, self.ncols)
        return self._csc

    def nbytes_components(self) -> dict:
        return {"indptr": int(self.indptr.nbytes),
                "indices": int(self.indices.nbytes),
                "values": int(self.values.nbytes)}

    def cache_nbytes(self) -> int:
        return arrays_nbytes((self._csc,))

    def copy(self) -> "CSRStore":
        return CSRStore(self.nrows, self.ncols, self.indptr.copy(),
                        self.indices.copy(), self.values.copy())
