"""Tuple build (``GrB_Matrix_build`` / ``GrB_Vector_build``) over keys.

:func:`build_keys` orders linearised keys and combines duplicate tuples
with the build's ``dup`` operator.  The fold is the GraphBLAS one: a left
fold in input order, starting from each run's first tuple, so
``dup(dup(x0, x1), x2)`` for a key given three times.  It runs one
vectorised pass per duplicate *rank* — every run's 2nd tuple at once, then
every run's 3rd, … — so a build costs as many operator calls as its
longest run, not as many as it has duplicates.  Within a pass each run
appears at most once, and every run sees its tuples in input order, so the
result equals the tuple-by-tuple fold bit for bit, for non-commutative
operators and for floating ``plus`` (which a pairwise ``reduceat`` would
not reproduce).
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_keys"]


def build_keys(keys: np.ndarray, values: np.ndarray, dtype, dup_op,
               what: str):
    """Sort ``(keys, values)`` and fold duplicate keys with ``dup_op``.

    Returns ``(keys, values)``: keys ascending and unique, values of
    ``dtype``.  Raises ``ValueError`` naming ``what`` if a key repeats and
    ``dup_op`` is ``None``.  Past the sort, one flag per tuple and the
    result, every temporary is sized by the number of duplicates, not by
    the number of tuples.
    """
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    sv = values[order].astype(dtype, copy=False)
    dup = np.zeros(sk.size, dtype=bool)
    if sk.size:
        np.equal(sk[1:], sk[:-1], out=dup[1:])
    rest = np.flatnonzero(dup)
    if not rest.size:
        return sk, sv
    if dup_op is None:
        raise ValueError(f"duplicate {what} without dup_op")
    starts = np.flatnonzero(~dup)
    # ``rest[t]`` follows t duplicates and so ``rest[t] - t`` run starts:
    # it belongs to run ``rest[t] - t - 1``, as its ``rank``-th member
    group = rest - np.arange(1, rest.size + 1)
    rank = rest - starts[group]
    by_rank = np.argsort(rank, kind="stable")
    group = group[by_rank]
    pos = rest[by_rank]
    bounds = np.cumsum(np.bincount(rank))      # rank 0 is no duplicate
    out = sv[starts]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        g = group[lo:hi]
        # op: array-pass (one call per rank, over every run that long)
        out[g] = dup_op(out[g], sv[pos[lo:hi]])
    return sk[starts], out
