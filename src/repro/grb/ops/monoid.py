"""Monoids (``GrB_Monoid`` equivalents): a commutative binary op + identity.

A monoid supplies three things our kernels need:

* the pairwise combine function (for eWiseAdd-style merges),
* an identity for the given dtype (what empty reductions return),
* a *grouped reduction*: given values tagged with integer group keys, reduce
  each group with ⊕.  This is the workhorse behind every semiring matmul:
  a dense accumulator over the key range when that is affordable and
  cannot change a bit, a stable sort otherwise (:meth:`Monoid.reduce_groups`).

The ``any`` monoid — introduced by SS:GrB for the BFS benign race (Sec. IV-A
of the paper) — reduces a group by simply picking one member.  We pick the
first in storage order, which is deterministic and therefore testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .binary import (
    ANY,
    BinaryOp,
    EQ,
    LAND,
    LOR,
    LXOR,
    MAX,
    MIN,
    PLUS,
    TIMES,
)

__all__ = [
    "Monoid",
    "PLUS_MONOID",
    "TIMES_MONOID",
    "MIN_MONOID",
    "MAX_MONOID",
    "ANY_MONOID",
    "LOR_MONOID",
    "LAND_MONOID",
    "LXOR_MONOID",
    "EQ_MONOID",
    "by_name",
]


def _min_identity(dtype: np.dtype):
    if np.issubdtype(dtype, np.floating):
        return dtype.type(np.inf)
    if dtype == np.bool_:
        return dtype.type(True)
    return np.iinfo(dtype).max


def _max_identity(dtype: np.dtype):
    if np.issubdtype(dtype, np.floating):
        return dtype.type(-np.inf)
    if dtype == np.bool_:
        return dtype.type(False)
    return np.iinfo(dtype).min


#: Dense-accumulator guard of :meth:`Monoid.reduce_groups`: the sort-free
#: path runs when the key range is at most this many times the contribution
#: count.  Measured break-even is a range/count ratio of 50-130 (2x ahead
#: at 26, 20-30x at <= 1); 16 also caps the accumulator at ~2x the bytes the
#: contributions themselves occupy in the multiply that produced them.
DENSE_REDUCE_SLACK = 16  # cost: mechanism-cap (sparse-to-bitmap accumulator switch inside the group reduce)


@dataclass(frozen=True)
class Monoid:
    """A commutative, associative reduction operator with identity.

    Attributes
    ----------
    name:
        Name used in semiring strings (``"plus"`` in ``"plus.times"``).
    op:
        The underlying :class:`BinaryOp`.
    identity_fn:
        ``identity_fn(dtype) -> scalar`` identity for that dtype; ``None``
        for the ``any`` monoid which has no meaningful identity.
    ufunc:
        NumPy ufunc used for ``reduceat``-based grouped reduction, or ``None``
        for pick-one monoids.
    terminal_fn:
        Optional ``terminal_fn(dtype) -> scalar``: a value at which the
        reduction may stop early (e.g. ``False`` for ``land``).  Only used as
        metadata; our vectorised kernels do not early-exit.
    """

    name: str
    op: BinaryOp
    identity_fn: Optional[Callable[[np.dtype], object]]
    ufunc: Optional[np.ufunc]
    terminal_fn: Optional[Callable[[np.dtype], object]] = None

    def identity(self, dtype: np.dtype):
        if self.identity_fn is None:
            raise ValueError(f"monoid {self.name!r} has no identity")
        return self.identity_fn(np.dtype(dtype))

    def __call__(self, x, y):
        return self.op(x, y)

    def reduce_all(self, values: np.ndarray):
        """Reduce a flat array to a scalar; identity when empty."""
        if values.size == 0:
            return self.identity(values.dtype)
        if self.ufunc is None:  # "any": pick one
            return values[0]
        return self.ufunc.reduce(values)

    def sort_free(self, dtype: np.dtype, m: int, bound: int) -> bool:
        """Whether :meth:`reduce_groups` reduces ``m`` contributions of
        ``dtype`` over keys in ``[0, bound)`` without sorting them.

        Two conditions, both read off the input alone.  The key range must
        be affordable against the contribution count
        (:data:`DENSE_REDUCE_SLACK`), and ⊕ must give the same value
        whatever order it folds a group in: every monoid but ``eq``
        qualifies, except ``plus``/``times`` on floats, whose rounding
        depends on the association order (``reduceat`` sums long segments
        pairwise, a dense accumulator sums them left to right).
        """
        if not 0 < bound <= DENSE_REDUCE_SLACK * m or self.ufunc is np.equal:
            return False
        return (self.ufunc not in (np.add, np.multiply)
                or np.dtype(dtype).kind in "biu")

    def reduce_groups(self, keys: np.ndarray, values: np.ndarray, bound: int):
        """Reduce ``values`` grouped by integer ``keys`` in ``[0, bound)``.

        Returns ``(unique_keys, reduced_values)`` with ``unique_keys`` sorted
        ascending.  ``keys`` need not be sorted.  ``bound`` is the size of
        the key space — the caller's output dimension, never scanned for.

        Where :meth:`sort_free` allows, the groups are folded into a
        ``bound``-sized accumulator (:meth:`reduce_dense` — SS:GrB's
        Gustavson/bitmap accumulator, Sec. VI-A of the paper) in
        O(m + bound); otherwise by a stable sort and one ``reduceat`` per
        run.  The two paths agree bit for bit with one exception neither
        defines: the sign of a zero ``min``/``max`` over a group holding
        both ``+0.0`` and ``-0.0`` (``np.minimum`` breaks that tie by
        operand order, and ``reduceat`` itself folds long and short
        segments in different orders).
        """
        if keys.size == 0:
            return keys[:0].astype(np.int64), values[:0]
        if self.sort_free(values.dtype, keys.size, bound):
            return self.reduce_dense(keys, values, bound)
        sk, sv, first = _sorted_runs(keys, values)
        starts = np.flatnonzero(first)
        ukeys = sk[starts]
        if self.ufunc is None:  # "any": first element of each group
            return ukeys, sv[starts]
        reduced = self.ufunc.reduceat(sv, starts)
        return ukeys, reduced

    def reduce_sequential(self, keys: np.ndarray, values: np.ndarray):
        """:meth:`reduce_groups` as a compiled accumulator loop folds it.

        After the stable sort each group is folded strictly left to right,
        starting from the identity, in ``values.dtype`` itself — the
        ``sums[j] += x`` loop of SciPy's CSR product, which ``reduceat``
        leaves in three ways: it sums a float group of 8 or more pairwise,
        widens small integers, and starts from the group's first member
        (so a lone ``-0.0`` stays negative where ``0 + -0.0`` does not).
        Costs what the contributions cost, whatever the key range: the
        accumulator is one cell per group, not :meth:`reduce_dense`'s one
        per key.  (``any`` has neither identity nor fold order to replay.)
        """
        if keys.size == 0:
            return keys[:0].astype(np.int64), values[:0]
        sk, sv, first = _sorted_runs(keys, values)
        ukeys = sk[first]
        acc = np.full(ukeys.size, self.identity(sv.dtype), dtype=sv.dtype)
        group = np.cumsum(first) - 1
        if sv.dtype.kind == "f":
            # inf - inf, overflow: a compiled loop raises no flags either
            with np.errstate(invalid="ignore", over="ignore"):
                self.ufunc.at(acc, group, sv)
        else:
            self.ufunc.at(acc, group, sv)
        return ukeys, acc

    def reduce_dense(self, keys: np.ndarray, values: np.ndarray, bound: int):
        """:meth:`reduce_groups` through a dense accumulator, unconditionally.

        Contributions are folded into a ``bound``-sized buffer in strict
        array order, a ``seen`` bitmap records which keys occurred, and the
        groups are read back in ascending key order.  Callers that *need*
        the left-to-right order (float sums replaying SciPy's sequential
        CSR loop) call this directly; everyone else goes through
        :meth:`reduce_groups`, which takes this path only when it cannot
        change a bit.  The result dtype is ``reduceat``'s (small integers
        widen under ``plus``/``times``, logical monoids return bool).
        """
        if keys.size == 0:
            return keys[:0].astype(np.int64), values[:0]
        seen = np.zeros(bound, dtype=bool)
        seen[keys] = True
        ukeys = np.flatnonzero(seen)
        if self.ufunc is None:
            # "any": reversed writes leave the first contribution in
            # storage order in place, the stable sort's pick
            buf = np.empty(bound, dtype=values.dtype)
            buf[keys[::-1]] = values[::-1]
            return ukeys, buf[ukeys]
        dtype, identity = _accumulator(self, values.dtype)
        buf = np.full(bound, identity, dtype=dtype)
        values = values.astype(dtype, copy=False)
        if dtype.kind == "f":
            # min/max meeting a NaN: reduceat is silent too
            with np.errstate(invalid="ignore"):
                self.ufunc.at(buf, keys, values)
        else:
            self.ufunc.at(buf, keys, values)
        return ukeys, buf[ukeys]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Monoid({self.name})"


def _sorted_runs(keys: np.ndarray, values: np.ndarray):
    """``(keys, values)`` stably sorted by key, plus the flags marking the
    first member of every run of equal keys (``keys`` non-empty)."""
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    first = np.empty(sk.size, dtype=bool)
    first[0] = True
    np.not_equal(sk[1:], sk[:-1], out=first[1:])
    return sk, values[order], first


@lru_cache(maxsize=None)
def _accumulator(monoid: Monoid, dtype: np.dtype):
    """``(dtype, identity)`` of the dense accumulator for ``dtype`` input:
    whatever ``reduceat`` would return, so the two paths cannot drift."""
    out = monoid.ufunc.reduceat(np.empty(1, dtype=dtype), [0]).dtype
    return out, monoid.identity(out)


PLUS_MONOID = Monoid("plus", PLUS, lambda dt: dt.type(0), np.add)
TIMES_MONOID = Monoid("times", TIMES, lambda dt: dt.type(1), np.multiply)
MIN_MONOID = Monoid(
    "min", MIN, _min_identity, np.minimum, terminal_fn=_max_identity
)
MAX_MONOID = Monoid(
    "max", MAX, _max_identity, np.maximum, terminal_fn=_min_identity
)
ANY_MONOID = Monoid("any", ANY, None, None)
LOR_MONOID = Monoid(
    "lor", LOR, lambda dt: dt.type(False), np.logical_or,
    terminal_fn=lambda dt: dt.type(True),
)
LAND_MONOID = Monoid(
    "land", LAND, lambda dt: dt.type(True), np.logical_and,
    terminal_fn=lambda dt: dt.type(False),
)
LXOR_MONOID = Monoid("lxor", LXOR, lambda dt: dt.type(False), np.logical_xor)
EQ_MONOID = Monoid("eq", EQ, lambda dt: dt.type(True), np.equal)

_REGISTRY = {
    m.name: m
    for m in (
        PLUS_MONOID, TIMES_MONOID, MIN_MONOID, MAX_MONOID, ANY_MONOID,
        LOR_MONOID, LAND_MONOID, LXOR_MONOID, EQ_MONOID,
    )
}


def by_name(name: str) -> Monoid:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown monoid {name!r}") from None
