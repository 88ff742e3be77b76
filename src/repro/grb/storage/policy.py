"""Auto-format selection policy.

Called at mutation and kernel boundaries (``Matrix._set_from_keys`` /
``Vector._set_sparse``) to pick a storage format from *observed* structure
— the pure-Python analogue of SS:GrB's sparsity-control heuristic
(Sec. VI-A).  The decision inputs:

``density``
    ``nvals / (nrows * ncols)`` — high density favours bitmap (O(1)
    membership, dense value access), provided the grid is small enough
    that dense flag arrays are affordable.
``live rows``
    Rows with ≥1 entry — a sliver of live rows favours hypersparse
    (row-pointer compression; O(live) instead of O(nrows) walks).

Everything else stays CSR, the reference format.  CSC is never
auto-selected: it encodes an access-pattern *intent* (pull-direction
traversal) the policy cannot observe, so it is only reachable through
``Matrix.set_format("csc")`` or the cached-transpose machinery.

All thresholds are module-level constants, deliberately overridable
(tests monkeypatch them to force formats); pinning an
object with ``set_format`` bypasses the policy entirely.
"""

from __future__ import annotations

import numpy as np

from ...testing import faults as _faults
from .bitmap import BitmapStore, BitmapVec
from .csc import CSCStore
from .csr import CSRStore
from .hypersparse import HypersparseStore
from .vector import SparseVec

__all__ = [
    "MATRIX_FORMATS", "VECTOR_FORMATS",
    "select_matrix_format", "select_vector_format",
    "matrix_store_from_csr", "vector_store_from_sparse",
]

MATRIX_FORMATS = ("csr", "csc", "bitmap", "hypersparse")
VECTOR_FORMATS = ("sparse", "bitmap")

#: Matrix density at/above which bitmap wins (dense flag+value grids).
MATRIX_BITMAP_DENSITY = 0.25
#: Grids smaller than this stay CSR — dense arrays buy nothing at toy sizes.
MATRIX_BITMAP_MIN_GRID = 1 << 12
#: Never auto-allocate dense grid arrays above this many cells.
MATRIX_BITMAP_GRID_CAP = 1 << 22
#: Live-row fraction below which hypersparse wins.
HYPER_LIVE_FRACTION = 0.125
#: Matrices with fewer rows than this stay CSR (indptr walks are free).
HYPER_MIN_ROWS = 64

#: Vector density at/above which bitmap wins.
VECTOR_BITMAP_DENSITY = 0.25
#: Vectors shorter than this stay sparse.
VECTOR_BITMAP_MIN_SIZE = 64

_MATRIX_STORES = {
    "csr": CSRStore,
    "csc": CSCStore,
    "bitmap": BitmapStore,
    "hypersparse": HypersparseStore,
}


def matrix_wants_bitmap(nrows: int, ncols: int, nvals: int) -> bool:
    """Whether the policy puts a matrix of this density in a bitmap."""
    grid = int(nrows) * int(ncols)
    return (MATRIX_BITMAP_MIN_GRID <= grid <= MATRIX_BITMAP_GRID_CAP
            and nvals >= MATRIX_BITMAP_DENSITY * grid)


def select_matrix_format(nrows: int, ncols: int, nvals: int,
                         live_rows: int) -> str:
    """Format for a matrix with the observed structure (auto mode)."""
    if matrix_wants_bitmap(nrows, ncols, nvals):
        return "bitmap"
    if (nrows >= HYPER_MIN_ROWS and nvals
            and live_rows < HYPER_LIVE_FRACTION * nrows):
        return "hypersparse"
    return "csr"


def select_vector_format(size: int, nvals: int) -> str:
    """Format for a vector with the observed density (auto mode)."""
    if size >= VECTOR_BITMAP_MIN_SIZE and nvals >= VECTOR_BITMAP_DENSITY * size:
        return "bitmap"
    return "sparse"


def matrix_store_from_csr(fmt: str, indptr, indices, values,
                          nrows: int, ncols: int):
    """Build a store of the requested format from canonical CSR arrays.

    This is the storage-build fault-injection site (site ``"storage"``
    of :mod:`repro.testing.faults`): every matrix store construction
    funnels through here, so injected allocation failures and latency
    model a sick storage tier.  One global read when no injector is
    installed.
    """
    if _faults.ACTIVE:
        _faults.fire("storage", fmt=fmt, nrows=nrows, ncols=ncols,
                     nvals=len(values))
    try:
        cls = _MATRIX_STORES[fmt]
    except KeyError:
        raise ValueError(
            f"unknown matrix format {fmt!r}; one of {MATRIX_FORMATS}"
        ) from None
    return cls.from_csr(indptr, indices, values, nrows, ncols)


def matrix_store_from_keys(fmt: str, keys, counts, indptr, indices, values,
                           nrows: int, ncols: int):
    """Mutation-boundary constructor: the key→CSR rebuild already computed
    ``keys``/``counts``, so bitmap and hypersparse reuse them instead of
    re-deriving structure."""
    if fmt == "bitmap":
        return BitmapStore.from_keys(keys, values, indptr, indices,
                                     nrows, ncols)
    if fmt == "hypersparse":
        return HypersparseStore.from_counts(counts, indices, values,
                                            nrows, ncols, indptr=indptr)
    return matrix_store_from_csr(fmt, indptr, indices, values, nrows, ncols)


def vector_store_from_sparse(fmt: str, size: int, idx, vals):
    """Build a vector store of the requested format from sorted sparse arrays."""
    if fmt == "bitmap":
        return BitmapVec.from_sparse(size, idx, vals)
    if fmt == "sparse":
        return SparseVec(size, idx, vals)
    raise ValueError(
        f"unknown vector format {fmt!r}; one of {VECTOR_FORMATS}")


def observed_live_rows(counts: np.ndarray) -> int:
    """Live-row count from a per-row entry count array."""
    return int(np.count_nonzero(counts))
