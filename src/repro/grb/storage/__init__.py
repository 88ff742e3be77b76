"""``repro.grb.storage`` — the pluggable sparse-storage engine.

SuiteSparse:GraphBLAS owes much of the paper's performance to *format
agility*: every object silently switches between sparse (CSR/CSC),
hypersparse, bitmap and full layouts as its density evolves (Sec. VI-A).
This package gives the pure-Python substrate the same capability.

Layout
------
``base``
    The :class:`MatrixStore` / :class:`VectorStore` protocols every format
    implements, plus shared CSR↔CSC conversion helpers.
``csr`` / ``csc`` / ``bitmap`` / ``hypersparse``
    The four matrix formats.  All of them can produce the *canonical CSR
    triple* (``indptr``, ``indices``, ``values`` — int64, per-row sorted,
    duplicate-free) on demand, which is what makes every format
    bit-identical in results to the CSR reference: kernels that have no
    native fast path for a format simply read the canonical view.
``vector``
    The sparse and bitmap vector stores.
``policy``
    The auto-selection policy: observed density / live-row counts at
    mutation and kernel boundaries decide the format, unless the owner is
    pinned with ``Matrix.set_format`` / ``Vector.set_format``.

Every store is an internal object — user code talks to
:class:`~repro.grb.matrix.Matrix` / :class:`~repro.grb.vector.Vector`,
whose ``indptr`` / ``indices`` / ``values`` properties read through to the
active store.
"""

from .base import MatrixStore, VectorStore, csr_to_csc_arrays, csc_to_csr_arrays
from .bitmap import BitmapStore, BitmapVec
from .csc import CSCStore
from .csr import CSRStore
from .hypersparse import HypersparseStore
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
    "MatrixStore", "VectorStore", "CSRStore", "CSCStore", "BitmapStore",
    "HypersparseStore", "SparseVec", "BitmapVec", "policy",
    "MATRIX_FORMATS", "VECTOR_FORMATS",
    "select_matrix_format", "select_vector_format",
    "matrix_store_from_csr", "vector_store_from_sparse",
    "csr_to_csc_arrays", "csc_to_csr_arrays",
]
