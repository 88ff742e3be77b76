"""Matrix utilities (``LAGraph_Pattern`` / ``IsEqual`` / ``IsAll``)."""

from __future__ import annotations

import numpy as np

from ...grb import INT64, binary
from ...grb.matrix import Matrix
from ...grb.ops.binary import BinaryOp
from ...grb.types import Type
from ..graph import Graph
from ..kinds import Kind

__all__ = ["pattern", "undirected_pattern", "triangle_pattern", "isequal",
           "isall"]


def pattern(a: Matrix) -> Matrix:
    """Boolean matrix containing the structure of ``a`` (values all true)."""
    return a.pattern()


def undirected_pattern(g: Graph, typ: Type) -> Matrix:
    """The pattern of ``A ∨ Aᵀ`` without its diagonal, typed ``typ``: the
    input every triangle-based algorithm needs, built from any graph
    (Basic mode's clean-up, Sec. II-B)."""
    a = g.A.pattern(typ)
    if g.kind is not Kind.ADJACENCY_UNDIRECTED:
        a = a.ewise_add(a.T, binary.LOR).pattern(typ)
    if a.ndiag():
        a = a.offdiag()
    return a


def triangle_pattern(g: Graph) -> Matrix:
    """:func:`undirected_pattern` as INT64, cached on ``g`` until
    ``g.invalidate_properties()`` — the operand LCC and k-truss share."""
    return g.derived_operand("triangle_pattern",
                             lambda: undirected_pattern(g, INT64))


def isall(a: Matrix, b: Matrix, op: BinaryOp) -> bool:
    """False if the patterns differ; else whether ``op`` holds on all pairs.

    This is the C library's ``LAGraph_IsAll``: compare structure first, then
    apply a comparator to every aligned value pair and AND the results.
    """
    if a.shape != b.shape or a.nvals != b.nvals:
        return False
    if not (np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)):
        return False
    if a.nvals == 0:
        return True
    return bool(np.all(op(a.values, b.values)))


def isequal(a: Matrix, b: Matrix) -> bool:
    """``LAGraph_IsEqual``: same type domain, same structure, equal values.

    Selects the EQ comparator matching the matrix type (the C version picks
    ``GrB_EQ_T``) and defers to :func:`isall`.
    """
    if a.dtype != b.dtype and not (
        np.issubdtype(a.dtype, np.number) and np.issubdtype(b.dtype, np.number)
    ):
        return False
    return isall(a, b, binary.EQ)
