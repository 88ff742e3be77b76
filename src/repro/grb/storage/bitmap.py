"""Bitmap storage — dense presence flags plus a dense value array.

The format SS:GrB v4 switches to for dense-ish objects (Sec. VI-A of the
paper).  Presence is tracked *structurally* (a bool flag per position), so
explicit zeros survive round-trips; the value array is dense, giving O(1)
random access.

What it buys:

* mask resolution in O(1) per tested key — the write-back's complemented
  structural masks (`C⟨¬s(p)⟩`, the BFS inner loop) test membership against
  the flag array instead of ``searchsorted`` over sorted keys;
* O(1) ``setElement`` / ``removeElement`` on vectors;
* the bitmap the pull-direction kernels consume is the storage itself, not
  a cache rebuilt after every mutation.

``BitmapStore`` (matrices) keeps the flag/value arrays flat over the
``nrows × ncols`` grid — the same linearised-key space every kernel already
uses — and is only auto-selected for grids the policy deems affordable.

In-place writes
---------------
A bitmap is the one format whose entries can be written without moving any
other entry, so both stores offer their *owner* :meth:`scatter` /
:meth:`erase`: O(|keys|) updates of the flag and value arrays that keep
``_nvals`` exact and drop the derived sparse caches.  The engine's
write-back takes that path only while :meth:`writable` holds — the buffers
are this store's own, writeable, and were never handed out.  Handing the
arrays to code that may keep them (``Vector.bitmap()``) marks the store
*exported*; its next write-back then rebuilds a fresh store, as every
write did before, so what was handed out stays a snapshot of the content
at that moment.
"""

from __future__ import annotations

import numpy as np

from .base import MatrixStore, VectorStore, arrays_nbytes, freeze_arrays

__all__ = ["BitmapStore", "BitmapVec"]


class _InPlace:
    """Owner-only in-place entry writes over ``(present, dense)``.

    Mixed into both bitmap stores; ``_drop_caches`` is the store's own
    (its derived sparse views differ)."""

    __slots__ = ()

    def writable(self) -> bool:
        """Whether the write-back may write entries into the buffers.

        They must be this store's own allocation (a view into a caller's
        array is not), writeable (a frozen buffer is somebody's cache) and
        held by nobody else (never handed out)."""
        p, d = self.present.flags, self.dense.flags
        return (not self._exported and p.owndata and p.writeable
                and d.owndata and d.writeable)

    def mark_exported(self):
        """The buffers are about to be held by somebody else: from now on
        they are a snapshot, and the next write-back rebuilds."""
        self._exported = True

    def scatter(self, keys, vals, accum=None):
        """``self[keys] ⊙= vals`` in O(|keys|): insert absent keys,
        overwrite present ones — or, with ``accum``, fold ``vals`` into
        them as ``accum(old, new)``.  ``keys`` are unique.

        The entries written take the rebuild path's cast chain
        (:func:`~repro.grb._kernels.ewise.union_merge`'s promoted dtype —
        skipped, there as here, when nothing is stored — then the cast to
        the stored dtype) and come out bit-identical to it.  Entries the
        write does not name are not touched at all, where the rebuild
        carries them through that promoted dtype and back: the same bits
        unless an integer beyond 2**53 meets a float ``vals``, which only
        this path keeps exact."""
        present, dense = self.present, self.dense
        hit = present[keys]
        if accum is not None and self._nvals:
            both = accum(dense[keys[hit]], vals[hit])
            vals = vals.astype(
                np.result_type(both.dtype, dense.dtype, vals.dtype))
            vals[hit] = both
        dense[keys] = vals
        present[keys] = True
        self._nvals += int(keys.size - np.count_nonzero(hit))
        self._drop_caches()

    def erase(self, keys):
        """Delete the entries at ``keys`` (absent ones are skipped)."""
        keys = keys[self.present[keys]]
        self.present[keys] = False
        self.dense[keys] = 0
        self._nvals -= int(keys.size)
        self._drop_caches()


class BitmapStore(_InPlace, MatrixStore):
    """Dense flat flag + value arrays over the matrix grid."""

    fmt = "bitmap"
    __slots__ = ("present", "dense", "_nvals", "_csr", "_exported")

    def __init__(self, nrows: int, ncols: int, present, dense, nvals=None):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.present = present
        self.dense = dense
        self._nvals = int(present.sum()) if nvals is None else int(nvals)
        self._csr = None
        self._csc = None
        self._exported = False

    def _drop_caches(self):
        self._csr = None
        self._csc = None

    @classmethod
    def from_csr(cls, indptr, indices, values, nrows, ncols) -> "BitmapStore":
        grid = nrows * ncols
        present = np.zeros(grid, dtype=bool)
        dense = np.zeros(grid, dtype=values.dtype)
        if indices.size:
            rows = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))
            keys = rows * np.int64(ncols) + indices
            present[keys] = True
            dense[keys] = values
        st = cls(nrows, ncols, present, dense, nvals=indices.size)
        # conversion input is canonical; frozen — it is a cache, not storage
        st._csr = freeze_arrays((indptr, indices, values))
        return st

    @classmethod
    def from_keys(cls, keys, values, indptr, indices, nrows, ncols
                  ) -> "BitmapStore":
        """Build from sorted linearised keys, reusing the caller's CSR triple
        as the prebuilt canonical cache (no re-derivation later)."""
        grid = nrows * ncols
        present = np.zeros(grid, dtype=bool)
        dense = np.zeros(grid, dtype=values.dtype)
        present[keys] = True
        dense[keys] = values
        st = cls(nrows, ncols, present, dense, nvals=keys.size)
        st._csr = freeze_arrays((indptr, indices, values))
        return st

    def csr(self):
        if self._csr is None:
            keys = np.flatnonzero(self.present).astype(np.int64)
            ncols = np.int64(self.ncols) if self.ncols else np.int64(1)
            rows = keys // ncols
            cols = keys - rows * ncols
            counts = np.bincount(rows, minlength=self.nrows) if keys.size \
                else np.zeros(self.nrows, dtype=np.int64)
            indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            self._csr = freeze_arrays((indptr, cols, self.dense[keys]))
        return self._csr

    @property
    def nvals(self) -> int:
        return self._nvals

    def present_dense(self):
        """The flat (present, dense) pair — the mask fast path reads this."""
        return self.present, self.dense

    def nbytes_components(self) -> dict:
        return {"present": int(self.present.nbytes),
                "dense": int(self.dense.nbytes)}

    def cache_nbytes(self) -> int:
        return arrays_nbytes((self._csr, self._csc))

    def copy(self) -> "BitmapStore":
        st = BitmapStore(self.nrows, self.ncols, self.present.copy(),
                         self.dense.copy(), nvals=self._nvals)
        return st


class BitmapVec(_InPlace, VectorStore):
    """Dense flag + value arrays for a vector; sparse view cached."""

    fmt = "bitmap"
    __slots__ = ("present", "dense", "_nvals", "_sp", "_exported")

    def __init__(self, size: int, present, dense, nvals=None):
        self.size = int(size)
        self.present = present
        self.dense = dense
        self._nvals = int(present.sum()) if nvals is None else int(nvals)
        self._sp = None
        self._exported = False

    def _drop_caches(self):
        self._sp = None

    @classmethod
    def from_sparse(cls, size: int, idx, vals) -> "BitmapVec":
        present = np.zeros(size, dtype=bool)
        dense = np.zeros(size, dtype=vals.dtype)
        present[idx] = True
        dense[idx] = vals
        st = cls(size, present, dense, nvals=idx.size)
        st._sp = (idx, vals)
        return st

    def sparse(self):
        if self._sp is None:
            idx = np.flatnonzero(self.present).astype(np.int64)
            self._sp = (idx, self.dense[idx])
        return self._sp

    def bitmap(self):
        return self.present, self.dense

    @property
    def nvals(self) -> int:
        return self._nvals

    # O(1) point mutations — the owner routes setElement here natively.
    def set_element(self, i: int, value):
        if not self.present[i]:
            self._nvals += 1
            self.present[i] = True
        self.dense[i] = value
        self._sp = None

    def remove_element(self, i: int):
        if self.present[i]:
            self._nvals -= 1
            self.present[i] = False
            self.dense[i] = 0
            self._sp = None

    def nbytes_components(self) -> dict:
        return {"present": int(self.present.nbytes),
                "dense": int(self.dense.nbytes)}

    def cache_nbytes(self) -> int:
        return arrays_nbytes((self._sp,))

    def copy(self) -> "BitmapVec":
        return BitmapVec(self.size, self.present.copy(), self.dense.copy(),
                         nvals=self._nvals)
