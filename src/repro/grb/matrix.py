"""Sparse matrix (``GrB_Matrix`` equivalent).

Storage model
-------------
Entries live in a pluggable *store* (:mod:`repro.grb.storage`): CSR (the
reference format) or bitmap (dense flag+value grid).  The
``indptr`` / ``indices`` / ``values`` attributes of the seed implementation
survive as properties reading the store's *canonical CSR view* — int64,
per-row sorted, duplicate-free — so every consumer sees bit-identical
structure whatever the active format.  The format itself is chosen by
:mod:`repro.grb.storage.policy` at mutation boundaries, or pinned with
:meth:`Matrix.set_format`.

Four lazily built caches are maintained and invalidated on mutation:

* a SciPy ``csr_matrix`` view sharing the canonical buffers (zero-copy) —
  used by the plus.times-reducible matmul fast path;
* the transpose (mirrors LAGraph's cached ``G->AT``), built from the
  store's cached CSC arrays;
* the linearised COO key array ``i * ncols + j`` — used for mask resolution
  and element-wise merges;
* ``_dot``, the masked-dot analysis of the last product that used this
  matrix as its mask (filled and read by the ``mxm-masked-dot`` rule,
  keyed on that product's operands; counted by
  :mod:`repro.grb.engine.plancache`).

``setElement`` (``C[i, j] = s``) is staged like SuiteSparse's pending
tuples: the store is rebuilt once, at the next read — n staged insertions
cost one O(nnz + n log n) flush instead of n O(nnz) rebuilds.

As with :class:`~repro.grb.vector.Vector`, internals are intentionally
non-opaque (LAGraph design, Sec. II-A).
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import types as _types
from ..obs import memory as _obsmem
from ._kernels import apply_select as _selectops
from ._kernels.build import build_keys
from ._kernels import ewise as _ewise
from ._kernels.gather import expand_rows
from .errors import DimensionMismatch, IndexOutOfBounds, InvalidValue, NoValue
from .ops.binary import BinaryOp
from .ops.monoid import Monoid
from .ops.unary import UnaryOp
from .storage import policy as _policy
from .storage.csr import CSRStore
from .types import Type, from_dtype
from .vector import Vector

__all__ = ["Matrix"]

_uids = itertools.count()


def _index_array(indices, n: int, op: str) -> np.ndarray:
    """``indices`` as an int64 array, every entry checked to lie in
    ``[0, n)`` — raised as :class:`IndexOutOfBounds` before a caller
    reads or writes anything with it."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexOutOfBounds(f"{op}: index out of range [0, {n})")
    return idx


class Matrix:
    """A sparse matrix of a fixed :class:`~repro.grb.types.Type` and shape."""

    __slots__ = ("nrows", "ncols", "type", "_store", "_format",
                 "_scipy", "_pattern_scipy", "_vals_min", "_vals_finite",
                 "_transpose", "_keys", "_dot", "_pending", "_uid",
                 "_version", "__weakref__")

    def __init__(self, typ, nrows: int, ncols: int):
        self.type = typ if isinstance(typ, Type) else from_dtype(typ)
        if nrows < 0 or ncols < 0:
            raise DimensionMismatch(f"negative dimensions ({nrows}, {ncols})")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self._store = CSRStore.empty(self.nrows, self.ncols, self.type.dtype)
        self._format = "auto"
        self._scipy = None
        self._pattern_scipy = None
        self._vals_min = None
        self._vals_finite = None
        self._transpose = None
        self._keys = None
        self._dot = None
        self._pending = None
        self._uid = next(_uids)        # process-unique, never reused
        self._version = 0              # store version: bumps on mutation
        _obsmem.register(self)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, rows, cols, values, nrows: int, ncols: int,
                 typ=None, dup_op: Optional[BinaryOp] = None) -> "Matrix":
        """Build from tuples (``C ↤ {i, j, x}``).

        Duplicates are an error unless ``dup_op`` combines them: a left fold
        in input order, starting from the first tuple of each ``(i, j)``,
        so three tuples give ``dup_op(dup_op(x0, x1), x2)``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values)
        if np.isscalar(values) or values.ndim == 0:
            values = np.full(rows.shape, values)
        if not (rows.shape == cols.shape == values.shape):
            raise DimensionMismatch("rows/cols/values must have equal length")
        if typ is None:
            typ = from_dtype(values.dtype)
        elif not isinstance(typ, Type):
            typ = from_dtype(typ)
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise IndexOutOfBounds("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise IndexOutOfBounds("column index out of range")
        sk, sv = build_keys(rows * np.int64(ncols) + cols, values, typ.dtype,
                            dup_op, "(row, col) pairs")
        m = cls(typ, nrows, ncols)
        m._set_from_keys(sk, sv)
        return m

    @classmethod
    def from_scipy(cls, a, typ=None) -> "Matrix":
        """Build from any SciPy sparse matrix (copied, canonicalised)."""
        a = sp.csr_matrix(a)
        if not a.data.flags.writeable:   # e.g. a frozen canonical-view wrap
            a = a.copy()
        a.sort_indices()
        a.sum_duplicates()
        if typ is None:
            typ = from_dtype(a.dtype)
        elif not isinstance(typ, Type):
            typ = from_dtype(typ)
        m = cls(typ, a.shape[0], a.shape[1])
        m.indptr = a.indptr.astype(np.int64)
        m.indices = a.indices.astype(np.int64)
        m.values = a.data.astype(typ.dtype, copy=False)
        return m

    @classmethod
    def from_dense(cls, arr, keep_zeros: bool = False) -> "Matrix":
        """Build from a dense 2-D array; zeros are dropped unless kept."""
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise DimensionMismatch("from_dense requires a 2-D array")
        if keep_zeros:
            r, c = np.nonzero(np.ones(arr.shape, dtype=bool))
        else:
            r, c = np.nonzero(arr)
        return cls.from_coo(r, c, arr[r, c], arr.shape[0], arr.shape[1])

    @classmethod
    def from_diag(cls, v: Vector) -> "Matrix":
        """Diagonal matrix from a vector's entries."""
        m = cls(v.type, v.size, v.size)
        idx, vals = v.to_coo()
        keys = idx * np.int64(v.size) + idx
        m._set_from_keys(keys, vals)
        return m

    def dup(self) -> "Matrix":
        """``C ↤ A``: an independent copy (same format, same pin).

        The copy is a new object with its own uid and an empty memo, so
        no analysis keyed on the source is re-used through it.
        """
        m = Matrix(self.type, self.nrows, self.ncols)
        m._store = self._S().copy()
        m._format = self._format
        return m

    # ------------------------------------------------------------------
    # storage plumbing
    # ------------------------------------------------------------------
    @property
    def format(self) -> str:
        """The active storage format (``csr`` or ``bitmap``)."""
        return self._S().fmt

    @property
    def format_pin(self) -> str:
        """The requested format: a concrete name, or ``"auto"`` (policy)."""
        return self._format

    def set_format(self, fmt: str) -> "Matrix":
        """Pin the storage format (or ``"auto"`` to re-enable the policy).

        Converts immediately; subsequent rebuilds keep the pinned format.
        Results are unaffected — only the layout (and therefore which kernel
        fast paths apply) changes.
        """
        if fmt not in _policy.MATRIX_FORMATS and fmt != "auto":
            raise InvalidValue(
                f"unknown matrix format {fmt!r}; one of "
                f"{_policy.MATRIX_FORMATS + ('auto',)}")
        self._flush_pending()
        indptr, indices, values = self._store.csr()
        self._format = fmt
        if fmt == "auto":
            fmt = _policy.select_matrix_format(
                self.nrows, self.ncols, indices.size)
        if fmt != self._store.fmt:
            self._store = _policy.matrix_store_from_csr(
                fmt, indptr, indices, values, self.nrows, self.ncols)
            self._scipy = None
            self._transpose = None
            self._version += 1   # layout changes which rule fast paths apply
        return self

    def _S(self):
        """The active store, with staged ``setElement`` calls flushed."""
        self._flush_pending()
        return self._store

    def _csr_store_for_write(self):
        """A CSRStore ready for wholesale array assignment.

        Staged ``setElement`` calls are flushed first (they happened before
        the assignment, so sequential semantics says they apply first —
        matching the seed's eager path)."""
        self._flush_pending()
        st = self._store
        if type(st) is not CSRStore:
            st = CSRStore.from_csr(*st.csr(), st.nrows, st.ncols)
            self._store = st
        st._csc = None
        self._invalidate()
        return st

    @property
    def indptr(self) -> np.ndarray:
        """Canonical CSR row pointers (int64, ``nrows + 1``)."""
        self._flush_pending()
        return self._store.csr()[0]

    @indptr.setter
    def indptr(self, arr):
        st = self._csr_store_for_write()
        st.indptr = arr

    @property
    def indices(self) -> np.ndarray:
        """Canonical CSR column ids (sorted within each row, unique)."""
        self._flush_pending()
        return self._store.csr()[1]

    @indices.setter
    def indices(self, arr):
        st = self._csr_store_for_write()
        st.indices = arr

    @property
    def values(self) -> np.ndarray:
        """Values aligned with :attr:`indices`."""
        self._flush_pending()
        return self._store.csr()[2]

    @values.setter
    def values(self, arr):
        st = self._csr_store_for_write()
        st.values = arr

    # ------------------------------------------------------------------
    # internal plumbing
    # ------------------------------------------------------------------
    def _set_from_keys(self, keys: np.ndarray, vals: np.ndarray,
                       typ: Optional[Type] = None):
        """Rebuild storage from sorted/unique linearised keys (takes
        ownership).  This is the mutation/kernel boundary where the
        auto-format policy observes density."""
        if typ is not None:
            self.type = typ
        keys = keys.astype(np.int64, copy=False)
        ncols = np.int64(self.ncols) if self.ncols else np.int64(1)
        rows = keys // ncols
        cols = keys - rows * ncols
        counts = np.bincount(rows, minlength=self.nrows) if keys.size else \
            np.zeros(self.nrows, dtype=np.int64)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        indices = cols.astype(np.int64, copy=False)
        values = vals.astype(self.type.dtype, copy=False)
        self._install(keys, indptr, indices, values)

    def _set_from_csr(self, indptr: np.ndarray, indices: np.ndarray,
                      values: np.ndarray):
        """:meth:`_set_from_keys` for a producer that already holds the
        canonical CSR triple (takes ownership): same format-policy
        boundary, no key div/mod round-trip."""
        self._install(None, indptr, indices, values)

    def _install(self, keys, indptr, indices, values):
        fmt = self._format
        if fmt == "auto":
            fmt = _policy.select_matrix_format(
                self.nrows, self.ncols, indices.size)
        if keys is None and fmt == "bitmap":
            keys = expand_rows(indptr, self.nrows) * np.int64(self.ncols) \
                + indices
        self._store = _policy.matrix_store_from_keys(
            fmt, keys, indptr, indices, values,
            self.nrows, self.ncols)
        self._invalidate()
        self._keys = keys

    def _writable_bitmap(self):
        """The store, when the write-back may write entries into it in
        place (bitmap-resident, buffers owned and never handed out)."""
        st = self._S()
        return st if st.fmt == "bitmap" and st.writable() else None

    def _wrote_in_place(self):
        """The mutation boundary of an in-place write: what
        :meth:`_install` does minus the rebuild — the density policy is
        re-read from the store's maintained ``nvals``."""
        self._invalidate()
        st = self._store
        if self._format == "auto" and not _policy.matrix_wants_bitmap(
                self.nrows, self.ncols, st.nvals):
            self._set_from_csr(*st.csr())

    def _invalidate(self):
        self._scipy = None
        self._pattern_scipy = None
        self._vals_min = None
        self._vals_finite = None
        self._transpose = None
        self._keys = None
        self._dot = None
        self._version += 1    # any memoization keyed on the old version dies

    # ------------------------------------------------------------------
    # memo key: (uid, store_version) (see the mxm-masked-dot rule)
    # ------------------------------------------------------------------
    @property
    def store_version(self) -> int:
        """Monotone content/layout version (bumps on every mutation)."""
        self._flush_pending()
        return self._version

    def keys(self) -> np.ndarray:
        """Sorted linearised COO keys ``i * ncols + j`` (cached)."""
        self._flush_pending()
        if self._keys is None:
            st = self._store
            self._keys = (st.entry_rows() * np.int64(self.ncols)
                          + st.csr()[1])
        return self._keys

    def _mask_keys_values(self):
        return self.keys(), self.values

    def _mask_present_dense(self):
        """Flat (present, dense) arrays when the store is bitmap, else None.

        The masked write-back uses this for O(1)-per-key membership instead
        of sorted-key searches (shared protocol with Vector).
        """
        st = self._S()
        if st.fmt == "bitmap":
            return st.present_dense()
        return None

    def to_scipy(self) -> sp.csr_matrix:
        """Zero-copy SciPy CSR view of the canonical arrays (cached).

        Boolean matrices are exposed with their native dtype; SciPy handles
        bool CSR for structural operations but matmuls cast first (see
        :mod:`repro.grb.operations`).
        """
        self._flush_pending()
        if self._scipy is None:
            self._scipy = sp.csr_matrix(
                (self.values, self.indices, self.indptr),
                shape=(self.nrows, self.ncols),
            )
        return self._scipy

    def pattern_operand(self, dtype) -> sp.csr_matrix:
        """All-ones SciPy CSR sharing this matrix's canonical structure.

        The matmul fast path substitutes this for an operand whose values
        the multiply ignores (``pair``, the pattern side of ``first`` /
        ``second``) and for cancellation-proof structure products.  Cached
        per store version and dtype — repeated masked multiplies against
        the same operand stop paying a fresh ones-array + CSR construction
        per call (see :mod:`repro.grb.operations`).
        """
        self._flush_pending()
        dt = np.dtype(dtype)
        cache = self._pattern_scipy
        if cache is None:
            cache = self._pattern_scipy = {}
        s = cache.get(dt)
        if s is None:
            s = sp.csr_matrix(
                (np.ones(self.nvals, dtype=dt), self.indices, self.indptr),
                shape=(self.nrows, self.ncols),
            )
            cache[dt] = s
        return s

    def values_min(self) -> float:
        """The smallest stored value of a floating matrix (cached per
        store version).

        ``inf`` when nothing is stored; NaN when the dtype is not floating
        or a value is NaN, so every comparison with it is false.  The
        matmul fast path reads it to skip its cancellation-proof pattern
        pass: a ``times`` product needs every value ≥ 1, because a product
        of tiny positive values underflows to exact 0.0, while ``first`` /
        ``second`` copy their value and need only ``> 0``.  Integer sums
        can wrap to 0, hence NaN for them.  Recomputed lazily after any
        mutation (the cache dies with the store version).
        """
        self._flush_pending()   # staged writes invalidate through the flush
        if self._vals_min is None:
            v = self.values
            if not np.issubdtype(v.dtype, np.floating):
                self._vals_min = np.nan
            else:
                self._vals_min = float(v.min()) if v.size else np.inf
        return self._vals_min

    def values_all_finite(self) -> bool:
        """Whether every stored value is finite (cached per store version).

        The guard that lets ``times``/``first`` multiplies take the fused
        dense-accumulate path: the fused form adds the *full* dense product,
        whose off-structure positions are sums of ``a_ij · 0`` terms (the
        vector's absent entries carry 0 in its bitmap) — exactly 0 when
        every stored ``a_ij`` is finite, but NaN the moment one is ±inf
        (``inf · 0``), which is the edge that kept the rule pattern-only.
        Bool/integer matrices are finite by construction; floats are
        scanned once and the answer dies with the store version.
        """
        self._flush_pending()
        if self._vals_finite is None:
            v = self.values
            self._vals_finite = bool(
                not np.issubdtype(v.dtype, np.floating)
                or v.size == 0 or np.isfinite(v).all())
        return self._vals_finite

    # ------------------------------------------------------------------
    # basic properties & access
    # ------------------------------------------------------------------
    @property
    def nvals(self) -> int:
        return self._S().nvals

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def dtype(self) -> np.dtype:
        return self.type.dtype

    def to_coo(self):
        """``{i, j, x} ↤ A``: copies of row/col/value arrays."""
        st = self._S()
        return st.entry_rows(), self.indices.copy(), self.values.copy()

    def to_dense(self, fill=0) -> np.ndarray:
        out = np.full((self.nrows, self.ncols), fill, dtype=self.type.dtype)
        out[self._S().entry_rows(), self.indices] = self.values
        return out

    def clear(self):
        """Remove all entries (shape, type and format pin unchanged)."""
        self._pending = None
        self._store = CSRStore.empty(self.nrows, self.ncols, self.type.dtype)
        self._invalidate()

    def get(self, i: int, j: int, default=None):
        """Value at ``(i, j)`` or ``default`` when absent."""
        i, j = int(i), int(j)
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexOutOfBounds(f"({i}, {j}) out of range {self.shape}")
        st = self._S()
        if st.fmt == "bitmap":
            present, dense = st.present_dense()
            key = i * self.ncols + j
            return dense[key] if present[key] else default
        indptr, indices, values = st.csr()
        lo, hi = indptr[i], indptr[i + 1]
        pos = lo + np.searchsorted(indices[lo:hi], j)
        if pos < hi and indices[pos] == j:
            return values[pos]
        return default

    def __getitem__(self, ij):
        """``s = A(i, j)``: extractElement; :class:`NoValue` when absent."""
        sentinel = object()
        out = self.get(*ij, default=sentinel)
        if out is sentinel:
            raise NoValue(f"no entry at {ij}")
        return out

    def __setitem__(self, ij, value):
        """``C(i, j) = s``: setElement, staged as a pending tuple.

        The entry is queued and the store is rebuilt lazily at the next
        read; a burst of n calls costs one flush instead of n per-call
        ``indptr`` rebuilds.  Within a burst, the last write to a position
        wins — exactly the sequential semantics of the eager path.
        """
        i, j = int(ij[0]), int(ij[1])
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexOutOfBounds(f"({i}, {j}) out of range {self.shape}")
        if self._pending is None:
            self._pending = []
        self._pending.append((i * self.ncols + j, value))

    def setelement(self, i: int, j: int, value):
        """``GrB_Matrix_setElement`` by name (stages like ``C[i, j] = s``)."""
        self[i, j] = value

    def _flush_pending(self):
        """Apply staged ``setElement`` calls in one batched rebuild.

        Every read path funnels through here (directly or via ``_S``), so
        this is the matrix's *read boundary*: nothing staged outlives it.
        """
        if not self._pending:
            return
        pending = self._pending
        self._pending = None
        pk = np.array([k for k, _ in pending], dtype=np.int64)
        pv = np.array([v for _, v in pending]).astype(self.type.dtype,
                                                      copy=False)
        # last call per position wins
        order = np.argsort(pk, kind="stable")
        pk = pk[order]
        pv = pv[order]
        last = np.ones(pk.size, dtype=bool)
        last[:-1] = pk[1:] != pk[:-1]
        pk = pk[last]
        pv = pv[last]
        st = self._store
        rows = st.entry_rows()
        keys = rows * np.int64(self.ncols) + st.csr()[1]
        merged_keys, merged_vals = _ewise.union_merge(
            keys, st.csr()[2], pk, pv, lambda old, new: new)
        self._set_from_keys(merged_keys, merged_vals)

    def row(self, i: int):
        """Stored (column indices, values) of row ``i`` — zero-copy views."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def extract_row(self, i: int) -> Vector:
        """``w = A(i, :)ᵀ``: row ``i`` as a vector."""
        cols, vals = self.row(i)
        w = Vector(self.type, self.ncols)
        w._set_sparse(cols.copy(), vals.copy())
        return w

    def extract_col(self, j: int) -> Vector:
        """``w = A(:, j)``: column ``j`` as a vector (via cached transpose)."""
        return self.T.extract_row(j)

    def extract(self, rows, cols) -> "Matrix":
        """``C = A(i, j)``: the induced submatrix (Sec. III-B-d).

        Row ``r`` of the result is row ``rows[r]`` of ``A`` restricted to the
        columns listed in ``cols`` (in that order).  An index outside ``A``
        raises :class:`IndexOutOfBounds`.
        """
        rows = _index_array(rows, self.nrows, "extract")
        cols = _index_array(cols, self.ncols, "extract")
        sub = self.to_scipy()[rows][:, cols]
        return Matrix.from_scipy(sub, typ=self.type)

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    @property
    def T(self) -> "Matrix":
        """``Aᵀ`` (cached; the cache is the analogue of ``G->AT``).

        Built from the store's cached CSC arrays (one conversion per
        store, shared with the dot kernel's ``Bᵀ`` feed).  The
        returned matrix owns *copies*: writing into it can never corrupt
        this matrix's storage (it desyncs only the copy, as in the seed).
        """
        self._flush_pending()
        if self._transpose is None:
            tip, tix, tvals = self._store.transpose_csr()
            t = Matrix(self.type, self.ncols, self.nrows)
            t.indptr = tip.copy()
            t.indices = tix.copy()
            t.values = tvals.copy()
            self._transpose = t
        return self._transpose

    def transpose(self) -> "Matrix":
        """A fresh transposed copy (never the cached object)."""
        return self.T.dup()

    def pattern(self, typ: Type = _types.BOOL) -> "Matrix":
        """``LAGraph_Pattern``: structure-only copy with unit values."""
        m = Matrix(typ, self.nrows, self.ncols)
        indptr, indices, _ = self._S().csr()
        m._set_from_csr(indptr.copy(), indices.copy(),
                        np.ones(indices.size, dtype=typ.dtype))
        return m

    def select(self, op, thunk=None) -> "Matrix":
        """``A⟨f(A, k)⟩``: keep entries satisfying the predicate.

        Value-only predicates skip the per-entry row expansion entirely —
        the format-aware fast path in
        :mod:`repro.grb._kernels.apply_select` — and the output CSR is cut
        straight out of the input's by position: ``pos`` lists the
        surviving entries in order, both arrays are taken at ``pos``, and
        a row pointer is the number of survivors before the row's start
        (``searchsorted(pos, indptr)``).  Taking at positions costs a
        fraction of boolean-mask indexing on a random mask.
        """
        if isinstance(op, str):
            op = _selectops.by_name(op)
        st = self._S()
        indptr, indices, values = st.csr()
        pos = np.flatnonzero(_selectops.eval_select(
            op, values, thunk, rows=st.entry_rows, cols=lambda: indices))
        out = Matrix(self.type, self.nrows, self.ncols)
        out._set_from_csr(np.searchsorted(pos, indptr), indices[pos],
                          values[pos])
        return out

    def tril(self, k: int = 0) -> "Matrix":
        """``L = tril(A)``: entries on/below diagonal ``k``."""
        return self.select(_selectops.TRIL, k)

    def triu(self, k: int = 0) -> "Matrix":
        """``U = triu(A)``: entries on/above diagonal ``k``."""
        return self.select(_selectops.TRIU, k)

    def offdiag(self) -> "Matrix":
        """Drop diagonal entries (LAGraph requires ndiag == 0 for TC)."""
        return self.select(_selectops.OFFDIAG, 0)

    def ndiag(self) -> int:
        """Number of stored diagonal entries."""
        return int((self._S().entry_rows() == self.indices).sum())

    def apply(self, op: UnaryOp, thunk=None) -> "Matrix":
        """``f(A, k)``: apply a unary op to every entry."""
        vals = _selectops.eval_unary(
            op, self.values, thunk, rows=lambda: self._S().entry_rows(),
            cols=lambda: self.indices)
        out = Matrix(from_dtype(vals.dtype), self.nrows, self.ncols)
        out.indptr = self.indptr.copy()
        out.indices = self.indices.copy()
        out.values = vals
        return out

    # ------------------------------------------------------------------
    # element-wise (unmasked conveniences)
    # ------------------------------------------------------------------
    def ewise_add(self, other: "Matrix", op: BinaryOp) -> "Matrix":
        """``A op∪ B``: union merge (dense path when both bitmap-resident)."""
        self._check_same_shape(other)
        keys, vals = _ewise.union(self, other, op)
        out = Matrix(from_dtype(vals.dtype), self.nrows, self.ncols)
        out._set_from_keys(keys, vals)
        return out

    def ewise_mult(self, other: "Matrix", op: BinaryOp) -> "Matrix":
        """``A op∩ B``: intersection, walking the smaller sparse operand
        and probing the other (a flag AND when both are bitmap-resident)."""
        self._check_same_shape(other)
        keys, vals = _ewise.intersect(
            self, other, op, _ewise.intersect_walk(self, other))
        out = Matrix(from_dtype(vals.dtype), self.nrows, self.ncols)
        out._set_from_keys(keys, vals)
        return out

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def reduce_rowwise(self, monoid: Monoid) -> Vector:
        """``w = [⊕ⱼ A(:, j)]``: per-row reduction to a column vector."""
        idx, vals = monoid.reduce_groups(self._S().entry_rows(), self.values,
                                          self.nrows)
        w = Vector(from_dtype(vals.dtype) if vals.size else self.type, self.nrows)
        w._set_sparse(idx, vals)
        return w

    def reduce_colwise(self, monoid: Monoid) -> Vector:
        """Per-column reduction (``[⊕ᵢ A(i, :)]``)."""
        idx, vals = monoid.reduce_groups(self.indices, self.values, self.ncols)
        w = Vector(from_dtype(vals.dtype) if vals.size else self.type, self.ncols)
        w._set_sparse(idx, vals)
        return w

    def reduce_scalar(self, monoid: Monoid):
        """``s = [⊕ᵢⱼ A(i, j)]``: reduce every entry to one scalar."""
        return monoid.reduce_all(self.values)

    def row_degrees(self) -> Vector:
        """Stored-entry count per row, as an INT64 vector (dense)."""
        counts = np.diff(self.indptr).astype(np.int64)
        return Vector.from_dense(counts)

    def col_degrees(self) -> Vector:
        """Stored-entry count per column, as an INT64 vector (dense)."""
        counts = np.bincount(self.indices, minlength=self.ncols).astype(np.int64)
        return Vector.from_dense(counts)

    # ------------------------------------------------------------------
    # comparisons / misc
    # ------------------------------------------------------------------
    def isequal(self, other: "Matrix") -> bool:
        """Same shape, structure and values (LAGraph ``IsEqual``).

        Compared on the canonical CSR views, so equality is
        format-independent: a bitmap matrix equals its CSR twin.
        """
        return (
            self.shape == other.shape
            and self.nvals == other.nvals
            and bool(np.array_equal(self.indptr, other.indptr))
            and bool(np.array_equal(self.indices, other.indices))
            and bool(np.array_equal(self.values, other.values))
        )

    def is_symmetric_pattern(self) -> bool:
        """Whether the structure equals that of the transpose."""
        t = self.T
        return bool(
            np.array_equal(self.indptr, t.indptr)
            and np.array_equal(self.indices, t.indices)
        )

    def __iter__(self):
        """Iterate stored entries as ``((i, j), value)`` (a read boundary:
        staged ``setElement`` calls are applied first)."""
        st = self._S()
        rows = st.entry_rows()
        _, cols, vals = st.csr()
        return iter(list(zip(zip(rows.tolist(), cols.tolist()),
                             vals.tolist())))

    def _check_same_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes differ: {self.shape} vs {other.shape}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Matrix({self.type.name}, shape={self.nrows}x{self.ncols}, "
                f"nvals={self.nvals}, format={self.format})")
