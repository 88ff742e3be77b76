"""``repro.grb`` — a from-scratch, pure-Python GraphBLAS substrate.

This package plays the role SuiteSparse:GraphBLAS plays in the paper: the
low-level building blocks (Sec. III) that the LAGraph layer
(:mod:`repro.lagraph`) is written against.

Quick tour::

    from repro import grb

    A = grb.Matrix.from_coo([0, 1], [1, 2], [1.0, 2.0], 3, 3)
    u = grb.Vector.from_coo([0], [1.0], 3)
    w = grb.Vector(grb.FP64, 3)
    grb.vxm(w, u, A, grb.semiring("min", "plus"))      # wᵀ = uᵀ min.plus A

Masks follow the paper's notation: ``grb.structure(p)`` is ``s(p)``,
``grb.complement(...)`` is ``¬``, and ``replace=True`` is the ``r`` flag.
"""

from . import operations as ops_module  # noqa: F401  (kept importable)
from .descriptor import (
    DESC_C,
    DESC_DEFAULT,
    DESC_R,
    DESC_RC,
    DESC_RS,
    DESC_RSC,
    DESC_S,
    DESC_SC,
    DESC_T0,
    DESC_T1,
    Descriptor,
)
from .errors import (
    DimensionMismatch,
    DomainMismatch,
    EmptyObject,
    GraphBLASError,
    GrBInfo,
    IndexOutOfBounds,
    InvalidObject,
    InvalidValue,
    NoValue,
    OutputNotEmpty,
)
from .mask import Mask, as_mask, complement, structure
from .matrix import Matrix
from .operations import (
    apply,
    assign,
    assign_scalar,
    ewise_add,
    ewise_mult,
    extract,
    kronecker,
    mxm,
    mxv,
    reduce_colwise,
    reduce_rowwise,
    select,
    transpose,
    update,
    vxm,
)
from .ops import binary, monoid, positional, unary
from .ops.semiring import Semiring, by_name as semiring_by_name, semiring
from .types import (
    ALL_TYPES,
    BOOL,
    FP32,
    FP64,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    Type,
    from_dtype,
    type_name,
)
from .vector import Vector
from ._kernels import apply_select as selectops
from . import cancel
from .cancel import CancelToken, Cancelled, DeadlineExceeded, \
    cancel_scope, checkpoint
from . import storage
from . import engine

__all__ = [
    # objects
    "Matrix", "Vector", "Type", "Mask", "Descriptor", "Semiring",
    # execution engine / storage engine
    "engine", "storage",
    # cooperative cancellation
    "cancel", "CancelToken", "Cancelled", "DeadlineExceeded",
    "cancel_scope", "checkpoint",
    # types
    "BOOL", "INT8", "INT16", "INT32", "INT64",
    "UINT8", "UINT16", "UINT32", "UINT64", "FP32", "FP64",
    "ALL_TYPES", "from_dtype", "type_name",
    # masks
    "structure", "complement", "as_mask",
    # operations
    "mxm", "mxv", "vxm", "ewise_add", "ewise_mult", "apply", "select",
    "assign", "assign_scalar", "extract", "update", "transpose",
    "reduce_rowwise", "reduce_colwise", "kronecker",
    # operator namespaces
    "unary", "binary", "monoid", "positional", "semiring", "semiring_by_name",
    "selectops",
    # descriptors
    "DESC_DEFAULT", "DESC_R", "DESC_S", "DESC_C", "DESC_SC", "DESC_RS",
    "DESC_RC", "DESC_RSC", "DESC_T0", "DESC_T1",
    # errors
    "GraphBLASError", "GrBInfo", "NoValue", "DimensionMismatch",
    "DomainMismatch", "IndexOutOfBounds", "InvalidValue", "InvalidObject",
    "EmptyObject", "OutputNotEmpty",
]
