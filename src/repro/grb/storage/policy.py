"""Auto-format selection policy.

Called at mutation and kernel boundaries (``Matrix._set_from_keys`` /
``Vector._set_sparse``) to pick a storage format from *observed* structure
— the pure-Python analogue of SS:GrB's sparsity-control heuristic
(Sec. VI-A).  The one decision input is density, ``nvals / size``
(a matrix's size is its grid, ``nrows * ncols``): at or above
:data:`BITMAP_DENSITY` a matrix or vector goes bitmap (O(1) membership,
dense value access) at any size — a matrix provided its grid is small
enough that dense flag arrays are affordable
(:data:`MATRIX_BITMAP_GRID_CAP`).  Everything else stays CSR (sparse
for a vector), the reference format.  The transpose is not a format:
every matrix store caches it (``_csc``, see
:mod:`~repro.grb.storage.base`).

Both thresholds are module-level constants, deliberately overridable
(tests monkeypatch them to force formats); pinning an
object with ``set_format`` bypasses the policy entirely.
"""

from __future__ import annotations

from ...testing import faults as _faults
from .bitmap import BitmapStore, BitmapVec
from .csr import CSRStore
from .vector import SparseVec

__all__ = [
    "MATRIX_FORMATS", "VECTOR_FORMATS",
    "select_matrix_format", "select_vector_format",
    "matrix_store_from_csr", "vector_store_from_sparse",
]

MATRIX_FORMATS = ("csr", "bitmap")
VECTOR_FORMATS = ("sparse", "bitmap")

#: Density at/above which bitmap wins, for matrices and vectors alike:
#: dense flag+value arrays cost what the grid (or length) costs, so no size
#: floor applies.
BITMAP_DENSITY = 0.25
#: Never auto-allocate dense grid arrays above this many cells.
MATRIX_BITMAP_GRID_CAP = 1 << 22

_MATRIX_STORES = {"csr": CSRStore, "bitmap": BitmapStore}


def matrix_wants_bitmap(nrows: int, ncols: int, nvals: int) -> bool:
    """Whether the policy puts a matrix of this density in a bitmap."""
    grid = int(nrows) * int(ncols)
    # an empty shape (grid 0) stays CSR
    return (0 < grid <= MATRIX_BITMAP_GRID_CAP
            and nvals >= BITMAP_DENSITY * grid)


def select_matrix_format(nrows: int, ncols: int, nvals: int) -> str:
    """Format for a matrix with the observed density (auto mode)."""
    return "bitmap" if matrix_wants_bitmap(nrows, ncols, nvals) else "csr"


def select_vector_format(size: int, nvals: int) -> str:
    """Format for a vector with the observed density (auto mode)."""
    return "bitmap" if nvals >= BITMAP_DENSITY * size else "sparse"


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


def matrix_store_from_keys(fmt: str, keys, indptr, indices, values,
                           nrows: int, ncols: int):
    """Mutation-boundary constructor: the key→CSR rebuild already computed
    ``keys``, so bitmap reuses them instead of re-deriving structure."""
    if fmt == "bitmap":
        return BitmapStore.from_keys(keys, values, indptr, indices,
                                     nrows, ncols)
    return matrix_store_from_csr(fmt, indptr, indices, values, nrows, ncols)


def vector_store_from_sparse(fmt: str, size: int, idx, vals):
    """Build a vector store of the requested format from sorted sparse arrays."""
    if fmt == "bitmap":
        return BitmapVec.from_sparse(size, idx, vals)
    if fmt == "sparse":
        return SparseVec(size, idx, vals)
    raise ValueError(
        f"unknown vector format {fmt!r}; one of {VECTOR_FORMATS}")

