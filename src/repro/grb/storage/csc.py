"""Column-major sparse storage — the native pull-direction format.

A ``CSCStore`` holds column pointers, row ids and values in column order —
exactly the CSR arrays *of the transpose*.  Pinning a matrix to CSC
(``Matrix.set_format("csc")``) makes ``transpose_csr`` free, so
pull-direction mxv/mxm and ``A.T`` stop paying the per-call
``transpose().tocsr()`` the seed implementation did; the row-major
canonical view is derived once and cached for kernels that want it.
"""

from __future__ import annotations

from .base import (MatrixStore, arrays_nbytes, csc_to_csr_arrays,
                   csr_to_csc_arrays, freeze_arrays)

__all__ = ["CSCStore"]


class CSCStore(MatrixStore):
    """CSC arrays held natively; CSR view derived and cached."""

    fmt = "csc"
    __slots__ = ("cindptr", "rindices", "cvalues", "_csr")

    def __init__(self, nrows: int, ncols: int, cindptr, rindices, cvalues):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.cindptr = cindptr
        self.rindices = rindices
        self.cvalues = cvalues
        self._csr = None

    @classmethod
    def from_csr(cls, indptr, indices, values, nrows, ncols) -> "CSCStore":
        cindptr, rindices, cvalues = csr_to_csc_arrays(
            indptr, indices, values, nrows, ncols)
        st = cls(nrows, ncols, cindptr, rindices, cvalues)
        # the conversion input *is* the canonical view: keep it (frozen —
        # writes through it could never reach the authoritative arrays)
        st._csr = freeze_arrays((indptr, indices, values))
        return st

    def csr(self):
        if self._csr is None:
            self._csr = freeze_arrays(csc_to_csr_arrays(
                self.cindptr, self.rindices, self.cvalues,
                self.nrows, self.ncols))
        return self._csr

    @property
    def nvals(self) -> int:
        return int(self.rindices.size)

    def transpose_csr(self):
        # CSC of A == CSR of Aᵀ: no work at all.
        return self.cindptr, self.rindices, self.cvalues

    def nbytes_components(self) -> dict:
        return {"cindptr": int(self.cindptr.nbytes),
                "rindices": int(self.rindices.nbytes),
                "cvalues": int(self.cvalues.nbytes)}

    def cache_nbytes(self) -> int:
        return arrays_nbytes((self._csr,))

    def copy(self) -> "CSCStore":
        return CSCStore(self.nrows, self.ncols, self.cindptr.copy(),
                        self.rindices.copy(), self.cvalues.copy())
