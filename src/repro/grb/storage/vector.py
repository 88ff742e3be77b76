"""Sparse vector storage — the seed's (indices, values) pair as a store.

``SparseVec`` is the default vector format: a sorted, duplicate-free int64
index array plus matching values.  The bitmap view is a lazily built cache
(exactly the seed ``Vector._bitmap`` behaviour), so converting a vector to
:class:`~repro.grb.storage.bitmap.BitmapVec` and back costs no more than
one cache fill did before.
"""

from __future__ import annotations

import numpy as np

from .base import VectorStore, arrays_nbytes

__all__ = ["SparseVec"]


class SparseVec(VectorStore):
    """Sorted (indices, values) held natively; bitmap view cached."""

    fmt = "sparse"
    __slots__ = ("idx", "vals", "_bm")

    def __init__(self, size: int, idx, vals):
        self.size = int(size)
        self.idx = idx
        self.vals = vals
        self._bm = None

    @classmethod
    def empty(cls, size: int, dtype) -> "SparseVec":
        return cls(size, np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=dtype))

    def sparse(self):
        return self.idx, self.vals

    def bitmap(self):
        if self._bm is None:
            present = np.zeros(self.size, dtype=bool)
            present[self.idx] = True
            dense = np.zeros(self.size, dtype=self.vals.dtype)
            dense[self.idx] = self.vals
            self._bm = (present, dense)
        return self._bm

    @property
    def nvals(self) -> int:
        return int(self.idx.size)

    def nbytes_components(self) -> dict:
        return {"idx": int(self.idx.nbytes),
                "vals": int(self.vals.nbytes)}

    def cache_nbytes(self) -> int:
        return arrays_nbytes((self._bm,))

    def copy(self) -> "SparseVec":
        return SparseVec(self.size, self.idx.copy(), self.vals.copy())
