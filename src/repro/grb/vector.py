"""Sparse vector (``GrB_Vector`` equivalent).

Storage model
-------------
Entries live in a pluggable *store* (:mod:`repro.grb.storage`): either the
sparse pair (sorted, duplicate-free ``int64`` indices plus values — the
seed's source of truth) or a bitmap (dense flag + value arrays — SS:GrB
v4's bitmap format, Sec. VI-A of the paper).  Which one is authoritative
is decided by the density policy at every rebuild, or pinned with
:meth:`Vector.set_format`; the other representation is a lazily built
cache, so the sparse/bitmap duality the paper credits for the 2× BC gain
costs nothing to cross.  Bitmap-resident vectors additionally get O(1)
``setElement``/``removeElement`` and O(1)-per-key mask resolution.

Unlike ``GrB_Vector``, instances are not opaque: ``indices`` / ``values``
expose the internal arrays (read-only views) because LAGraph's design
explicitly embraces non-opaque objects (Sec. II-A).
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from . import types as _types
from ..obs import memory as _obsmem
from ._kernels import apply_select as _selectops
from ._kernels.build import build_keys
from ._kernels import ewise as _ewise
from .errors import DimensionMismatch, IndexOutOfBounds, InvalidValue, NoValue
from .ops.binary import BinaryOp
from .ops.monoid import Monoid
from .ops.unary import UnaryOp
from .storage import policy as _policy
from .storage.vector import SparseVec
from .types import Type, from_dtype

__all__ = ["Vector"]

_uids = itertools.count()


class Vector:
    """A sparse vector of a fixed :class:`~repro.grb.types.Type` and size."""

    __slots__ = ("size", "type", "_store", "_format", "_uid", "_version",
                 "__weakref__")

    def __init__(self, typ, size: int):
        if isinstance(typ, Type):
            self.type = typ
        else:
            self.type = from_dtype(typ)
        if size < 0:
            raise DimensionMismatch(f"negative vector size {size}")
        self.size = int(size)
        self._store = SparseVec.empty(self.size, self.type.dtype)
        self._format = "auto"
        self._uid = next(_uids)        # process-unique, never reused
        self._version = 0              # store version: bumps on mutation
        _obsmem.register(self)

    # ------------------------------------------------------------------
    # operand identity: (uid, store_version)
    # ------------------------------------------------------------------
    @property
    def store_version(self) -> int:
        """Monotone content/layout version (bumps on every mutation)."""
        return self._version

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        indices,
        values,
        size: int,
        typ=None,
        dup_op: Optional[BinaryOp] = None,
    ) -> "Vector":
        """Build from index/value tuples (``w ↤ {i, x}`` in the notation).

        Duplicate indices are an error unless ``dup_op`` combines them: a
        left fold in input order, starting from the first tuple of each
        index, so three tuples give ``dup_op(dup_op(x0, x1), x2)``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values)
        if np.isscalar(values) or values.ndim == 0:
            values = np.full(indices.shape, values)
        if indices.shape != values.shape:
            raise DimensionMismatch("indices and values must have equal length")
        if typ is None:
            typ = from_dtype(values.dtype)
        elif not isinstance(typ, Type):
            typ = from_dtype(typ)
        w = cls(typ, size)
        if indices.size:
            if indices.min() < 0 or indices.max() >= size:
                raise IndexOutOfBounds("vector index out of range")
            w._set_sparse(*build_keys(indices, size, values, typ.dtype,
                                      dup_op, "indices"))
        return w

    @classmethod
    def from_dense(cls, dense, present=None) -> "Vector":
        """Build from a dense array; ``present`` selects entries (default all)."""
        dense = np.asarray(dense)
        typ = from_dtype(dense.dtype)
        w = cls(typ, dense.size)
        if present is None:
            w._set_sparse(np.arange(dense.size, dtype=np.int64), dense.copy())
        else:
            present = np.asarray(present, dtype=bool)
            idx = np.flatnonzero(present).astype(np.int64)
            w._set_sparse(idx, dense[idx].copy())
        return w

    @classmethod
    def full(cls, value, size: int, typ=None) -> "Vector":
        """A vector with an entry at every index (SS:GrB "full" format)."""
        if typ is None:
            arr = np.full(size, value)
        else:
            t = typ if isinstance(typ, Type) else from_dtype(typ)
            arr = np.full(size, value, dtype=t.dtype)
        return cls.from_dense(arr)

    def dup(self) -> "Vector":
        """``w ↤ u``: an independent copy (same format, same pin).

        The copy is a new object with its own uid.
        """
        w = Vector(self.type, self.size)
        w._store = self._store.copy()
        w._format = self._format
        return w

    # ------------------------------------------------------------------
    # storage plumbing
    # ------------------------------------------------------------------
    @property
    def format(self) -> str:
        """The active storage format (``sparse`` or ``bitmap``)."""
        return self._store.fmt

    @property
    def format_pin(self) -> str:
        """The requested format: a concrete name, or ``"auto"`` (policy)."""
        return self._format

    def set_format(self, fmt: str) -> "Vector":
        """Pin the storage format (or ``"auto"`` to re-enable the policy)."""
        if fmt not in _policy.VECTOR_FORMATS and fmt != "auto":
            raise InvalidValue(
                f"unknown vector format {fmt!r}; one of "
                f"{_policy.VECTOR_FORMATS + ('auto',)}")
        self._format = fmt
        idx, vals = self._store.sparse()
        if fmt == "auto":
            fmt = _policy.select_vector_format(self.size, idx.size)
        if fmt != self._store.fmt:
            self._store = _policy.vector_store_from_sparse(
                fmt, self.size, idx, vals)
            self._version += 1  # layout changes which rule fast paths apply
        return self

    @property
    def _idx(self) -> np.ndarray:
        return self._store.sparse()[0]

    @property
    def _vals(self) -> np.ndarray:
        return self._store.sparse()[1]

    # ------------------------------------------------------------------
    # internal plumbing
    # ------------------------------------------------------------------
    def _set_sparse(self, idx: np.ndarray, vals: np.ndarray, typ: Optional[Type] = None):
        """Replace contents with sorted/unique ``(idx, vals)`` (takes
        ownership).  The mutation boundary where the density policy picks
        the storage format."""
        if typ is not None:
            self.type = typ
        idx = idx.astype(np.int64, copy=False)
        vals = vals.astype(self.type.dtype, copy=False)
        fmt = self._format
        if fmt == "auto":
            fmt = _policy.select_vector_format(self.size, idx.size)
        self._store = _policy.vector_store_from_sparse(fmt, self.size, idx,
                                                       vals)
        self._version += 1

    def _writable_bitmap(self):
        """The store, when the write-back may write entries into it in
        place (bitmap-resident, buffers owned and never handed out)."""
        st = self._store
        return st if st.fmt == "bitmap" and st.writable() else None

    def _wrote_in_place(self):
        """The mutation boundary of an in-place write: what
        :meth:`_set_sparse` does minus the rebuild — the density policy is
        re-read from the store's maintained ``nvals``."""
        self._version += 1
        if self._format == "auto" and _policy.select_vector_format(
                self.size, self._store.nvals) != "bitmap":
            self._set_sparse(*self._store.sparse())

    def _mask_keys_values(self):
        """(keys, values) for mask resolution — shared protocol with Matrix."""
        return self._store.sparse()

    def _mask_present_dense(self):
        """(present, dense) when bitmap-resident, else None (mask fast path)."""
        st = self._store
        if st.fmt == "bitmap":
            return st.bitmap()
        return None

    def _thunk_view(self):
        """(present, dense) for a select predicate whose thunk is this
        vector (resolved by ``SelectOp.__call__`` when the predicate runs).
        An engine-internal read like :meth:`_mask_present_dense`: it lasts
        for one predicate call and marks nothing exported, so the vector
        can still be written in place afterwards — :meth:`bitmap` is the
        public read that keeps its arrays as a snapshot."""
        return self._store.bitmap()

    # ------------------------------------------------------------------
    # basic properties & access
    # ------------------------------------------------------------------
    @property
    def nvals(self) -> int:
        """Number of stored entries (``nvals(u)``)."""
        return self._store.nvals

    @property
    def indices(self) -> np.ndarray:
        """Read-only view of the stored indices (sorted ascending)."""
        v = self._idx.view()
        v.flags.writeable = False
        return v

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the stored values (aligned with ``indices``)."""
        v = self._vals.view()
        v.flags.writeable = False
        return v

    @property
    def dtype(self) -> np.dtype:
        return self.type.dtype

    def to_coo(self):
        """``{i, x} ↤ u``: copies of the index and value arrays."""
        return self._idx.copy(), self._vals.copy()

    def bitmap(self):
        """The (present, dense) representation — the storage itself for
        bitmap-resident vectors, a cache for sparse ones.

        The arrays are a snapshot with respect to GraphBLAS operations:
        handing them out marks a bitmap store exported, so the next
        write-back builds a new store instead of writing into these
        (``setElement`` / ``removeElement`` on a bitmap-resident vector
        do write through, as they always have)."""
        st = self._store
        if st.fmt == "bitmap":
            st.mark_exported()
        return st.bitmap()

    def to_dense(self, fill=0) -> np.ndarray:
        """Dense value array with ``fill`` at absent positions."""
        present, dense = self._store.bitmap()
        if fill == 0:
            return dense.copy()
        out = np.full(self.size, fill, dtype=self.type.dtype)
        out[self._idx] = self._vals
        return out

    def clear(self):
        """Remove all entries (size, type and format pin unchanged)."""
        self._store = SparseVec.empty(self.size, self.type.dtype)
        self._version += 1

    def get(self, i: int, default=None):
        """Value at index ``i`` or ``default`` when absent."""
        i = int(i)
        if not 0 <= i < self.size:
            raise IndexOutOfBounds(f"index {i} out of range [0, {self.size})")
        st = self._store
        if st.fmt == "bitmap":
            present, dense = st.bitmap()
            return dense[i] if present[i] else default
        idx, vals = st.sparse()
        pos = np.searchsorted(idx, i)
        if pos < idx.size and idx[pos] == i:
            return vals[pos]
        return default

    def __getitem__(self, i: int):
        """``s = u(i)``: extractElement; raises :class:`NoValue` when absent."""
        sentinel = object()
        out = self.get(i, sentinel)
        if out is sentinel:
            raise NoValue(f"no entry at index {i}")
        return out

    def __setitem__(self, i: int, value):
        """``u(i) = s``: setElement — O(1) when bitmap-resident."""
        i = int(i)
        if not 0 <= i < self.size:
            raise IndexOutOfBounds(f"index {i} out of range [0, {self.size})")
        st = self._store
        if st.fmt == "bitmap":
            st.set_element(i, np.asarray(value, dtype=self.type.dtype)[()])
            self._version += 1
            return
        idx, vals = st.sparse()
        pos = int(np.searchsorted(idx, i))
        if pos < idx.size and idx[pos] == i:
            vals[pos] = value
            st._bm = None
            self._version += 1
        else:
            self._set_sparse(
                np.insert(idx, pos, i),
                np.insert(vals, pos, np.asarray(value, dtype=self.type.dtype)))

    def remove_element(self, i: int):
        """Delete the entry at index ``i`` (no-op when absent)."""
        st = self._store
        if st.fmt == "bitmap":
            if 0 <= i < self.size:
                st.remove_element(int(i))
                self._version += 1
            return
        idx, vals = st.sparse()
        pos = np.searchsorted(idx, i)
        if pos < idx.size and idx[pos] == i:
            self._set_sparse(np.delete(idx, pos), np.delete(vals, pos))

    def __contains__(self, i: int) -> bool:
        st = self._store
        if st.fmt == "bitmap":
            return bool(0 <= i < self.size and st.bitmap()[0][i])
        idx = st.sparse()[0]
        pos = np.searchsorted(idx, i)
        return bool(pos < idx.size and idx[pos] == i)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        """Iterate stored entries as ``(index, value)`` pairs."""
        idx, vals = self._store.sparse()
        return iter(list(zip(idx.tolist(), vals.tolist())))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Vector({self.type.name}, size={self.size}, "
                f"nvals={self.nvals}, format={self.format})")

    # ------------------------------------------------------------------
    # unmasked element-wise conveniences (masked forms live in operations)
    # ------------------------------------------------------------------
    def ewise_add(self, other: "Vector", op: BinaryOp) -> "Vector":
        """``u op∪ v``: union merge (Sec. III-B-b).

        Two bitmap-resident operands merge densely (no sorted-key
        intersection); results are bit-identical to the sparse merge.
        """
        self._check_same_size(other)
        keys, vals = _ewise.union(self, other, op)
        out = Vector(from_dtype(vals.dtype), self.size)
        out._set_sparse(keys, vals)
        return out

    def ewise_mult(self, other: "Vector", op: BinaryOp) -> "Vector":
        """``u op∩ v``: intersection (Sec. III-B-c), walking the smaller
        sparse operand and probing the other (a flag AND when both are
        bitmap-resident)."""
        self._check_same_size(other)
        keys, vals = _ewise.intersect(
            self, other, op, _ewise.intersect_walk(self, other))
        out = Vector(from_dtype(vals.dtype), self.size)
        out._set_sparse(keys, vals)
        return out

    def apply(self, op: UnaryOp, thunk=None) -> "Vector":
        """``f(u, k)``: apply a unary op to every entry (Sec. III-B-f)."""
        vals = _selectops.eval_unary(
            op, self._vals, thunk, rows=lambda: self._idx,
            cols=lambda: np.zeros(self._idx.size, dtype=np.int64))
        out = Vector(from_dtype(vals.dtype), self.size)
        out._set_sparse(self._idx.copy(), vals)
        return out

    def select(self, op, thunk=None) -> "Vector":
        """``u⟨f(u, k)⟩``: keep entries where the predicate holds."""
        if isinstance(op, str):
            op = _selectops.by_name(op)
        keep = _selectops.eval_select(
            op, self._vals, thunk, rows=lambda: self._idx,
            cols=lambda: np.zeros(self._idx.size, dtype=np.int64))
        out = Vector(self.type, self.size)
        out._set_sparse(self._idx[keep], self._vals[keep])
        return out

    def reduce(self, monoid: Monoid):
        """``s = [⊕ᵢ u(i)]``: reduce all entries to a scalar."""
        return monoid.reduce_all(self._vals)

    def pattern(self, typ: Type = _types.BOOL) -> "Vector":
        """Structure-only copy with all values set to one."""
        out = Vector(typ, self.size)
        out._set_sparse(self._idx.copy(), np.ones(self._idx.size, dtype=typ.dtype))
        return out

    def iso_value(self):
        """If all stored values are equal, that value; else ``None``."""
        if self.nvals == 0:
            return None
        v0 = self._vals[0]
        return v0 if bool((self._vals == v0).all()) else None

    def _check_same_size(self, other: "Vector"):
        if self.size != other.size:
            raise DimensionMismatch(
                f"vector sizes differ: {self.size} vs {other.size}")

    # equality helper used by tests / LAGraph IsEqual
    def isequal(self, other: "Vector") -> bool:
        """Same size, same structure, element-wise equal values
        (format-independent: compared on the sparse views)."""
        return (
            self.size == other.size
            and self._idx.size == other._idx.size
            and bool(np.array_equal(self._idx, other._idx))
            and bool(np.array_equal(self._vals, other._vals))
        )
