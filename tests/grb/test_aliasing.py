"""An output that is also an input: an operand, the mask, or both.

GraphBLAS lets a call's output be one of its inputs — ``mxm(f, f, b)`` is
every BC level, ``ewise_add(t, t, req, min)`` every SSSP relaxation.  The
table below holds every public vector and matrix writer that takes an
input: the plan-routed operations and the façade helpers that write back
directly (``extract``, ``reduce_*``, ``transpose``).  Each is driven with
its output aliased as an operand, as the mask, and as both, under three
descriptors, into an output of each storage format, and must equal the
same call made on un-aliased copies.  Bitmap outputs are where aliasing
can go wrong: an in-place delta write must not read what it has already
overwritten.
"""

from __future__ import annotations

import pytest

from repro import grb

N = 6
SR = grb.semiring_by_name("plus.times")
PLUS = grb.binary.PLUS
PERM = [5, 4, 3, 2, 1, 0]


# every input is built fresh per call, so the un-aliased reference shares
# no object (and no store) with the aliased run

def _out_vector():
    return grb.Vector.from_coo([0, 1, 2, 4], [1.0, 0.0, 3.0, -2.0], N)


def _u():
    return grb.Vector.from_coo([1, 3, 4], [5.0, 6.0, 7.0], N)


def _mask_vector():
    return grb.Vector.from_coo([0, 3, 4, 5], [1.0, 0.0, 1.0, 1.0], N)


def _out_matrix():
    return grb.Matrix.from_coo([0, 1, 2, 3, 4, 5, 5], [1, 2, 0, 4, 5, 3, 5],
                               [1.0, 0.0, 3.0, 4.0, -5.0, 6.0, 2.0], N, N)


def _a():
    return grb.Matrix.from_coo([0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3],
                               [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], N, N)


def _b():
    return grb.Matrix.from_coo([0, 2, 5, 1], [0, 3, 5, 1],
                               [8.0, 9.0, 10.0, 0.0], N, N)


def _mask_matrix():
    return grb.Matrix.from_coo([0, 1, 2, 4, 5], [1, 1, 0, 5, 5],
                               [1.0, 1.0, 0.0, 1.0, 1.0], N, N)


# writer(out, x, **kw): ``x`` is the input the output may alias; writers
# whose only inputs are a scalar or a matrix feeding a vector alias the
# mask alone
VECTOR_WRITERS = {
    "assign": lambda out, x, **kw: grb.assign(out, x, **kw),
    "apply": lambda out, x, **kw: grb.apply(out, x, grb.unary.AINV, **kw),
    "select": lambda out, x, **kw: grb.select(out, x, "valuegt", 0.5, **kw),
    "ewise_add": lambda out, x, **kw: grb.ewise_add(out, x, _u(), PLUS,
                                                    **kw),
    "ewise_mult": lambda out, x, **kw: grb.ewise_mult(
        out, _u(), x, grb.binary.MINUS, **kw),
    "update": lambda out, x, **kw: grb.update(out, x, **kw),
    "extract": lambda out, x, **kw: grb.extract(out, x, PERM, **kw),
    "mxv": lambda out, x, **kw: grb.mxv(out, _a(), x, SR, **kw),
    "vxm": lambda out, x, **kw: grb.vxm(out, x, _a(), SR, **kw),
    "assign_scalar": lambda out, x, **kw: grb.assign_scalar(
        out, 100.0, [0, 2, 3], **kw),
    "reduce_rowwise": lambda out, x, **kw: grb.reduce_rowwise(
        out, _b(), grb.monoid.PLUS_MONOID, **kw),
    "reduce_colwise": lambda out, x, **kw: grb.reduce_colwise(
        out, _b(), grb.monoid.PLUS_MONOID, **kw),
}

MATRIX_WRITERS = {
    "assign": lambda out, x, **kw: grb.assign(out, x, **kw),
    "apply": lambda out, x, **kw: grb.apply(out, x, grb.unary.AINV, **kw),
    "select": lambda out, x, **kw: grb.select(out, x, "valuegt", 0.5, **kw),
    "ewise_add": lambda out, x, **kw: grb.ewise_add(out, x, _b(), PLUS,
                                                    **kw),
    "ewise_mult": lambda out, x, **kw: grb.ewise_mult(
        out, _b(), x, grb.binary.MINUS, **kw),
    "update": lambda out, x, **kw: grb.update(out, x, **kw),
    "mxm": lambda out, x, **kw: grb.mxm(out, x, _b(), SR, **kw),
    "transpose": lambda out, x, **kw: grb.transpose(out, x, **kw),
    "assign_scalar": lambda out, x, **kw: grb.assign_scalar(
        out, 100.0, ([0, 2], [1, 3, 5]), **kw),
}

MASK_ONLY = {"assign_scalar", "reduce_rowwise", "reduce_colwise"}

KINDS = {
    "vector": (VECTOR_WRITERS, _out_vector, _u, _mask_vector,
               ("sparse", "bitmap")),
    "matrix": (MATRIX_WRITERS, _out_matrix, _a, _mask_matrix,
               ("csr", "bitmap")),
}

CASES = [
    pytest.param(kind, name, role, fmt, id=f"{kind}-{name}-{role}-{fmt}")
    for kind, (writers, *_, formats) in KINDS.items()
    for name in sorted(writers)
    for role in (("mask",) if name in MASK_ONLY
                 else ("operand", "mask", "both"))
    for fmt in formats
]

DESCRIPTORS = {
    "plain": lambda m: dict(mask=grb.Mask(m)),
    "accum": lambda m: dict(mask=grb.Mask(m), accum=PLUS),
    "rsc": lambda m: dict(mask=grb.complement(grb.structure(m)),
                          replace=True),
}


@pytest.mark.parametrize("desc", sorted(DESCRIPTORS))
@pytest.mark.parametrize("kind, name, role, fmt", CASES)
def test_aliased_output_equals_unaliased_copies(kind, name, role, fmt, desc):
    writers, make_out, make_x, make_mask, _ = KINDS[kind]
    write, descriptor = writers[name], DESCRIPTORS[desc]

    out = make_out().set_format(fmt)
    x = out if role in ("operand", "both") else make_x()
    m = out if role in ("mask", "both") else make_mask()
    write(out, x, **descriptor(m))

    ref = make_out().set_format(fmt)
    x = make_out().set_format(fmt) if role in ("operand", "both") \
        else make_x()
    m = make_out().set_format(fmt) if role in ("mask", "both") \
        else make_mask()
    write(ref, x, **descriptor(m))

    assert out.isequal(ref), (out.to_coo(), ref.to_coo())
    assert out.dtype == ref.dtype
