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

Both orderings the build needs — the keys, then the duplicates by rank —
come from :func:`stable_order`, which takes one of three routes:

* **already ordered** — no key is smaller than the one before it (one
  O(n) check): no sort and no gather.  SuiteSparse's builder skips its
  sort on tuples that are not "jumbled" for the same reason;
* **tagged** — with ``b = bit_length(n - 1)`` position bits, when
  ``bit_length(bound - 1) + b ≤ 63``: one unstable ``ndarray.sort`` over
  the tags ``key << b | position``.  The tags are distinct and compare by
  key first, position second, so the order read back out of their low
  ``b`` bits is the stable one: bit for bit what
  ``argsort(kind="stable")`` returns, at the speed of NumPy's vectorised
  integer sort, and the tags shifted back are the sorted keys;
* **fallback** — tags that do not fit in 63 bits (a key space of about
  ``2**63 / n`` or more): ``argsort(kind="stable")``.

``bound`` is the key space the caller already knows (``nrows * ncols``,
a vector's ``size``; a rank sort's longest run), so no route costs a
pass over the keys to find their maximum, and no constant picks a route.
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_keys", "stable_order"]


def stable_order(keys: np.ndarray, bound: int):
    """The stable ascending order of non-negative int64 ``keys < bound``.

    Returns ``(order, sorted_keys)`` with ``sorted_keys == keys[order]``;
    ``order`` is ``None`` (and ``sorted_keys`` is ``keys`` itself) when the
    keys already ascend.  Equal to ``argsort(keys, kind="stable")``.
    """
    n = keys.size
    if not (keys[1:] < keys[:-1]).any():
        return None, keys
    shift = (n - 1).bit_length()
    if (int(bound) - 1).bit_length() + shift > 63:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    order = np.arange(n, dtype=np.int64)
    tags = keys << shift
    tags |= order
    tags.sort()
    np.bitwise_and(tags, (1 << shift) - 1, out=order)
    tags >>= shift
    return order, tags


def build_keys(keys: np.ndarray, bound: int, values: np.ndarray, dtype,
               dup_op, what: str):
    """Sort ``(keys, values)`` and fold duplicate keys with ``dup_op``.

    ``keys`` are non-negative and below ``bound``.  Returns ``(keys,
    values)``: keys ascending and unique, values of ``dtype``, both new
    arrays (never the caller's, on any route).  Raises ``ValueError``
    naming ``what`` if a key repeats and ``dup_op`` is ``None``.  Past the
    sort, one flag per tuple and the result, every temporary is sized by
    the number of duplicates, not by the number of tuples.
    """
    order, sk = stable_order(keys, bound)
    if order is None:               # the caller's arrays: the store gets copies
        sk = keys.copy()
        sv = values.astype(dtype)
    else:
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
    counts = np.bincount(rank)                 # rank 0 is no duplicate
    by_rank, _ = stable_order(rank, counts.size)
    if by_rank is not None:
        group = group[by_rank]
        rest = rest[by_rank]
    bounds = np.cumsum(counts)
    out = sv[starts]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        g = group[lo:hi]
        # op: array-pass (one call per rank, over every run that long)
        out[g] = dup_op(out[g], sv[rest[lo:hi]])
    return sk[starts], out
