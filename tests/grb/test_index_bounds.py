"""Index lists are checked before anything is written.

``assign``, ``assign_scalar`` and ``extract`` take explicit index lists.
An index outside the object it addresses — past the end, or negative,
which NumPy would otherwise read from the back — raises
:class:`~repro.grb.errors.IndexOutOfBounds`, and the output keeps exactly
the content it had.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import grb


def _w():
    return grb.Vector.from_coo([0, 2], [1.0, 3.0], 4)


def _u():
    return grb.Vector.from_coo([0, 1, 3], [5.0, 6.0, 8.0], 4)


def _c():
    return grb.Matrix.from_dense(np.arange(1.0, 10.0).reshape(3, 3))


# call(out) -> writes out with a bad index list
VECTOR_CASES = {
    "assign-past-end": lambda w: grb.assign(
        w, grb.Vector.from_coo([0, 1], [7.0, 9.0], 2), [5, 0]),
    "assign-negative": lambda w: grb.assign(
        w, grb.Vector.from_coo([0, 1], [7.0, 9.0], 2), [-1, 0]),
    "assign_scalar-past-end": lambda w: grb.assign_scalar(w, 7.0, [5, 0]),
    "assign_scalar-negative": lambda w: grb.assign_scalar(w, 7.0, [-1, 0]),
    "extract-past-end": lambda w: grb.extract(w, _u(), [4, 0, 1, 2]),
    "extract-negative": lambda w: grb.extract(w, _u(), [-1, 0, 1, 2]),
}

MATRIX_CASES = {
    "assign_scalar-row-negative": lambda c: grb.assign_scalar(
        c, 5.0, ([-1], [0])),
    "assign_scalar-row-past-end": lambda c: grb.assign_scalar(
        c, 5.0, ([3], [0])),
    "assign_scalar-col-past-end": lambda c: grb.assign_scalar(
        c, 5.0, (None, [0, 3])),
    "assign-row-past-end": lambda c: grb.assign(
        c, grb.Matrix.from_dense(np.ones((1, 1))), ([3], [0])),
}


@pytest.mark.parametrize("fmt", ("sparse", "bitmap"))
@pytest.mark.parametrize("case", sorted(VECTOR_CASES))
def test_vector_write_raises_and_leaves_the_output(case, fmt):
    w = _w().set_format(fmt)
    with pytest.raises(grb.IndexOutOfBounds):
        VECTOR_CASES[case](w)
    assert w.isequal(_w()) and w.format == fmt


@pytest.mark.parametrize("case", sorted(MATRIX_CASES))
def test_matrix_write_raises_and_leaves_the_output(case):
    c = _c()
    with pytest.raises(grb.IndexOutOfBounds):
        MATRIX_CASES[case](c)
    assert c.isequal(_c())


@pytest.mark.parametrize("rows, cols", [([-1], [0, 1]), ([3], [0, 1]),
                                        ([0], [-1]), ([0, 1], [3])],
                         ids=("row-negative", "row-past-end",
                              "col-negative", "col-past-end"))
def test_matrix_extract_raises(rows, cols):
    with pytest.raises(grb.IndexOutOfBounds):
        _c().extract(rows, cols)
