"""Binary matrix I/O (``LAGraph_BinRead`` / ``LAGraph_BinWrite``).

The C library serialises the raw CSR arrays for fast reload of benchmark
graphs; we do the same through NumPy's ``.npz`` container (no pickling, so
files are portable and safe to load).  A file is input, not a trusted
store: :func:`binread` hands back a matrix only when the arrays form one.
"""

from __future__ import annotations

import zipfile
import zlib

import numpy as np

from ...grb.matrix import Matrix
from ...grb.types import from_dtype
from ..errors import IOError_

__all__ = ["binwrite", "binread"]

_MAGIC = "lagraph-csr-v1"
_ARRAYS = ("shape", "indptr", "indices", "values")


def binwrite(a: Matrix, path) -> None:
    """Serialise a matrix's CSR arrays to ``path`` (``.npz``)."""
    np.savez(
        path,
        magic=np.array(_MAGIC),
        shape=np.array([a.nrows, a.ncols], dtype=np.int64),
        indptr=a.indptr,
        indices=a.indices,
        values=a.values,
    )


def _csr_fault(shape, indptr, indices, values):
    """Why the arrays are not a CSR matrix, or ``None`` when they are."""
    if (shape.shape != (2,) or shape.dtype.kind not in "iu"
            or (shape < 0).any()):
        return "shape is not two non-negative integers"
    nrows, ncols = (int(x) for x in shape)
    if (indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu"
            or indptr.ndim != 1 or indices.ndim != 1 or values.ndim != 1):
        return "indptr/indices/values are not 1-D (integer) arrays"
    indptr, indices = indptr.astype(np.int64), indices.astype(np.int64)
    if indptr.size != nrows + 1:
        return f"{indptr.size} row pointers for {nrows} rows"
    if indptr[0] != 0 or (np.diff(indptr) < 0).any():
        return "row pointers do not rise from 0"
    if not indptr[-1] == indices.size == values.size:
        return (f"row pointers end at {indptr[-1]} for {indices.size} "
                f"indices and {values.size} values")
    if indices.size and (indices.min() < 0 or indices.max() >= ncols):
        return f"a column index outside [0, {ncols})"
    rows = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))
    if (np.diff(rows * np.int64(ncols) + indices) <= 0).any():
        return "column indices not strictly increasing within a row"
    try:
        from_dtype(values.dtype)
    except TypeError:
        return f"no GraphBLAS type for values of dtype {values.dtype}"
    return None


def binread(path) -> Matrix:
    """Load a matrix previously written by :func:`binwrite`.

    Raises :class:`~repro.lagraph.errors.IOError_` for a file that is not
    a readable container, or whose arrays are not a CSR matrix:
    ``nrows + 1`` row pointers rising from 0 to the entry count, one value
    per column index, and column indices inside ``[0, ncols)`` that
    strictly increase within each row.
    """
    try:
        with np.load(path, allow_pickle=False) as z:
            if "magic" not in z or str(z["magic"]) != _MAGIC:
                raise IOError_(f"{path}: not an LAGraph binary matrix file")
            shape, indptr, indices, values = (z[k] for k in _ARRAYS)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise IOError_(f"{path}: unreadable matrix file ({exc})") from exc
    fault = _csr_fault(shape, indptr, indices, values)
    if fault is not None:
        raise IOError_(f"{path}: corrupt matrix file: {fault}")
    nrows, ncols = (int(x) for x in shape)
    m = Matrix(from_dtype(values.dtype), nrows, ncols)
    m.indptr = indptr.astype(np.int64)
    m.indices = indices.astype(np.int64)
    m.values = values
    return m
