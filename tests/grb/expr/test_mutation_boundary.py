"""Every eager mutator is a mutation boundary for pending lazy readers.

A call recorded with ``DESC_LAZY`` reads its operands (and its mask) at
the moment it runs, not when it was recorded.  So any *eager* write to an
object that a still-pending call reads must first run that call, on the
content it was recorded against — blocking-mode semantics.  The table
below holds every way the public API writes a vector or a matrix: the
plan-routed operations, the façade helpers that write back directly
(``extract``, ``reduce_*``, ``transpose``), element access and the
wholesale array setters.  Each is driven against a pending reader that
reads the target as an operand and as a mask, on a store that is rebuilt
and on a bitmap store written in place.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import grb

N = 6
SR = grb.semiring_by_name("plus.times")
PLUS = grb.binary.PLUS
ID = grb.unary.IDENTITY


def _u():
    return grb.Vector.from_coo([1, 3, 4], [5.0, 6.0, 7.0], N)


def _a():
    return grb.Matrix.from_coo([0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3],
                               [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], N, N)


def _b():
    return grb.Matrix.from_coo([0, 2, 5], [0, 3, 5], [8.0, 9.0, 10.0], N, N)


VECTOR_WRITERS = {
    "assign_scalar": lambda x: grb.assign_scalar(x, 100.0, list(range(N))),
    "assign": lambda x: grb.assign(x, _u()),
    "apply": lambda x: grb.apply(x, _u(), grb.unary.AINV),
    "select": lambda x: grb.select(x, _u(), "valuegt", 5.5),
    "ewise_add": lambda x: grb.ewise_add(x, _u(), _u(), PLUS),
    "ewise_mult": lambda x: grb.ewise_mult(x, _u(), _u(), grb.binary.TIMES),
    "update": lambda x: grb.update(x, _u(), accum=PLUS),
    "extract": lambda x: grb.extract(x, _u(), [5, 4, 3, 2, 1, 0]),
    "mxv": lambda x: grb.mxv(x, _a(), _u(), SR),
    "vxm": lambda x: grb.vxm(x, _u(), _a(), SR),
    "reduce_rowwise": lambda x: grb.reduce_rowwise(x, _a(),
                                                   grb.monoid.PLUS_MONOID),
    "reduce_colwise": lambda x: grb.reduce_colwise(x, _a(),
                                                   grb.monoid.PLUS_MONOID),
    "setitem": lambda x: x.__setitem__(5, 9.0),
    "remove_element": lambda x: x.remove_element(0),
    "clear": lambda x: x.clear(),
}

MATRIX_WRITERS = {
    "assign_scalar": lambda x: grb.assign_scalar(x, 100.0),
    "assign": lambda x: grb.assign(x, _b()),
    "apply": lambda x: grb.apply(x, _b(), grb.unary.AINV),
    "select": lambda x: grb.select(x, _b(), "valuegt", 8.5),
    "ewise_add": lambda x: grb.ewise_add(x, _b(), _b(), PLUS),
    "ewise_mult": lambda x: grb.ewise_mult(x, _b(), _b(), grb.binary.TIMES),
    "update": lambda x: grb.update(x, _b(), accum=PLUS),
    "mxm": lambda x: grb.mxm(x, _a(), _b(), SR),
    "transpose": lambda x: grb.transpose(x, _b()),
    "setitem": lambda x: x.__setitem__((5, 0), 9.0),
    "clear": lambda x: x.clear(),
    "values_setter": lambda x: setattr(x, "values", x.values * 2.0),
}


def _record_reader(x, role, out, full):
    """Record one pending call that reads ``x`` in ``role``."""
    if role == "operand":
        grb.apply(out, x, ID, desc=grb.DESC_LAZY)
    else:
        grb.apply(out, full, ID, mask=grb.structure(x), desc=grb.DESC_LAZY)


def _expected_reader(x, role, out, full):
    """The same call, run eagerly on ``x`` as it is now."""
    if role == "operand":
        grb.apply(out, x, ID)
    else:
        grb.apply(out, full, ID, mask=grb.structure(x))
    return out


@pytest.mark.parametrize("role", ("operand", "mask"))
@pytest.mark.parametrize("fmt", ("sparse", "bitmap"))
@pytest.mark.parametrize("writer", sorted(VECTOR_WRITERS))
def test_vector_reader_sees_the_content_before_the_write(writer, fmt, role):
    write = VECTOR_WRITERS[writer]
    full = grb.Vector.from_dense(np.arange(1.0, N + 1))
    x = grb.Vector.from_coo([0, 1, 2], [1.0, 2.0, 3.0], N).set_format(fmt)
    before = _expected_reader(x, role, grb.Vector(grb.FP64, N), full)
    after = x.dup()
    write(after)
    w = grb.Vector(grb.FP64, N)
    _record_reader(x, role, w, full)
    write(x)
    assert w.isequal(before), (writer, w.to_coo(), before.to_coo())
    assert x.isequal(after), (writer, x.to_coo(), after.to_coo())


@pytest.mark.parametrize("role", ("operand", "mask"))
@pytest.mark.parametrize("fmt", ("csr", "bitmap"))
@pytest.mark.parametrize("writer", sorted(MATRIX_WRITERS))
def test_matrix_reader_sees_the_content_before_the_write(writer, fmt, role):
    write = MATRIX_WRITERS[writer]
    full = grb.Matrix.from_dense(np.arange(1.0, N * N + 1).reshape(N, N))
    x = _a().set_format(fmt)
    before = _expected_reader(x, role, grb.Matrix(grb.FP64, N, N), full)
    after = x.dup()
    write(after)
    c = grb.Matrix(grb.FP64, N, N)
    _record_reader(x, role, c, full)
    write(x)
    assert c.isequal(before), (writer, c.to_coo(), before.to_coo())
    assert x.isequal(after), (writer, x.to_coo(), after.to_coo())
