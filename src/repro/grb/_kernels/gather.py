"""Ragged-gather primitives over CSR arrays.

Everything here is branch-free NumPy: no per-row Python loops.  The core
trick is the classic "concatenated ranges" construction used to expand
``indptr[rows] .. indptr[rows+1]`` spans into one flat index array.
"""

from __future__ import annotations

import numpy as np

__all__ = ["concat_ranges", "csr_gather_rows", "csr_row_lengths",
           "expand_rows"]


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[t], starts[t] + counts[t])`` ranges into one array.

    Equivalent to ``np.concatenate([np.arange(s, s+c) ...])`` but vectorised.
    """
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)            # end of each range inside the output
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.repeat(starts - ends + counts, counts)
    out += np.arange(total, dtype=np.int64)
    return out


def csr_row_lengths(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Number of stored entries in each requested row."""
    return indptr[rows + 1] - indptr[rows]


def csr_gather_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray | None,
    rows: np.ndarray,
):
    """Gather the entries of ``rows`` from a CSR structure.

    Returns ``(row_rep, cols, vals)`` where ``row_rep[t]`` is the *position*
    of the source row within ``rows`` (not the row id itself — callers that
    need the id index back through ``rows``), ``cols`` the column indices and
    ``vals`` the values (``None`` if ``values`` is ``None``).
    """
    rows = np.asarray(rows, dtype=np.int64)
    counts = csr_row_lengths(indptr, rows)
    flat = concat_ranges(indptr[rows], counts)
    row_rep = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
    cols = indices[flat]
    vals = values[flat] if values is not None else None
    return row_rep, cols, vals


def expand_rows(indptr: np.ndarray, nrows: int) -> np.ndarray:
    """Row index of every stored entry of a CSR matrix (COO expansion)."""
    counts = np.diff(indptr)
    return np.repeat(np.arange(nrows, dtype=np.int64), counts)

