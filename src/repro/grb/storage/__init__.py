"""``repro.grb.storage`` — the pluggable sparse-storage engine.

SuiteSparse:GraphBLAS owes much of the paper's performance to *format
agility*: every object silently switches among four layouts as its
density evolves (Sec. VI-A).  This package keeps the two a measured
workload selects: row-major sparse (CSR) and bitmap.

Layout
------
``base``
    The :class:`MatrixStore` / :class:`VectorStore` protocols every format
    implements, the CSR→CSC conversion and the cached transpose view
    (``transpose_csr``) every matrix store shares.
``csr`` / ``bitmap``
    The two matrix formats.  Both produce the *canonical CSR triple*
    (``indptr``, ``indices``, ``values`` — int64, per-row sorted,
    duplicate-free) on demand, which is what makes bitmap bit-identical
    in results to the CSR reference: kernels that have no native fast path
    for it simply read the canonical view.
``vector``
    The sparse and bitmap vector stores.
``policy``
    The auto-selection policy: observed density at mutation and kernel
    boundaries decides the format, unless the owner is
    pinned with ``Matrix.set_format`` / ``Vector.set_format``.

Every store is an internal object — user code talks to
:class:`~repro.grb.matrix.Matrix` / :class:`~repro.grb.vector.Vector`,
whose ``indptr`` / ``indices`` / ``values`` properties read through to the
active store.
"""

from .base import MatrixStore, VectorStore, csr_to_csc_arrays
from .bitmap import BitmapStore, BitmapVec
from .csr import CSRStore
from .vector import SparseVec
from . import policy
from .policy import (
    MATRIX_FORMATS,
    VECTOR_FORMATS,
    matrix_store_from_csr,
    select_matrix_format,
    select_vector_format,
    vector_store_from_sparse,
)

__all__ = [
    "MatrixStore", "VectorStore", "CSRStore", "BitmapStore",
    "SparseVec", "BitmapVec", "policy",
    "MATRIX_FORMATS", "VECTOR_FORMATS",
    "select_matrix_format", "select_vector_format",
    "matrix_store_from_csr", "vector_store_from_sparse",
    "csr_to_csc_arrays",
]
