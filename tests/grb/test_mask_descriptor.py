"""Tests for Mask wrappers and Descriptor constants."""

import numpy as np
import pytest

from repro import grb
from repro.grb.descriptor import (
    DESC_DEFAULT,
    DESC_R,
    DESC_RSC,
    DESC_S,
    DESC_SC,
    DESC_T0,
    Descriptor,
)
from repro.grb.mask import Mask, as_mask, complement, structure


def _vec():
    # entries at 0 (value 0 — falsy!), 2 (value 5)
    return grb.Vector.from_coo([0, 2], [0.0, 5.0], 4)


class TestMaskConstruction:
    def test_plain_mask_is_valued(self):
        m = as_mask(_vec())
        assert isinstance(m, Mask)
        assert not m.structural and not m.complemented

    def test_structure_wrapper(self):
        m = structure(_vec())
        assert m.structural and not m.complemented

    def test_complement_wrapper(self):
        m = complement(_vec())
        assert m.complemented and not m.structural

    def test_composition_both_orders(self):
        a = complement(structure(_vec()))
        b = structure(complement(_vec()))
        assert a.structural and a.complemented
        assert b.structural and b.complemented

    def test_invert_operator(self):
        m = ~as_mask(_vec())
        assert m.complemented
        assert not (~m).complemented

    def test_as_mask_passthrough(self):
        m = structure(_vec())
        assert as_mask(m) is m
        assert as_mask(None) is None


class TestAllowedKeys:
    def test_valued_excludes_falsy(self):
        np.testing.assert_array_equal(as_mask(_vec()).allowed_keys(), [2])

    def test_structural_includes_all_entries(self):
        np.testing.assert_array_equal(structure(_vec()).allowed_keys(), [0, 2])

    def test_complement_resolved_at_write_not_here(self):
        # allowed_keys always reports the un-complemented selection
        np.testing.assert_array_equal(
            complement(structure(_vec())).allowed_keys(), [0, 2])

    def test_matrix_mask_uses_linear_keys(self):
        m = grb.Matrix.from_coo([0, 1], [1, 0], [1.0, 1.0], 2, 2)
        np.testing.assert_array_equal(structure(m).allowed_keys(), [1, 2])


class TestMaskSemanticsThroughOps:
    def test_boolean_false_entries_excluded_by_valued_mask(self):
        m = grb.Vector.from_coo([0, 1], [False, True], 2)
        w = grb.Vector(grb.FP64, 2)
        grb.assign_scalar(w, 1.0, mask=m)
        np.testing.assert_array_equal(w.indices, [1])

    def test_replace_annihilates_outside(self):
        w = grb.Vector.from_dense(np.arange(4.0))
        m = grb.Vector.from_coo([1], [True], 4)
        grb.assign_scalar(w, 9.0, mask=m, replace=True)
        assert w.nvals == 1 and w[1] == 9.0


class TestDescriptors:
    def test_defaults(self):
        assert DESC_DEFAULT == Descriptor()
        assert not DESC_DEFAULT.replace

    def test_named_constants(self):
        assert DESC_R.replace
        assert DESC_S.mask_structural
        assert DESC_SC.mask_structural and DESC_SC.mask_complement
        assert DESC_RSC.replace and DESC_RSC.mask_structural \
            and DESC_RSC.mask_complement
        assert DESC_T0.transpose_a and not DESC_T0.transpose_b

    def test_frozen(self):
        with pytest.raises(Exception):
            DESC_R.replace = False

    def test_rsc_matches_paper_bfs_descriptor(self):
        """GrB_DESC_RSC is exactly the BFS step's ⟨¬s(p), r⟩ (Sec. VI-B)."""
        d = DESC_RSC
        assert (d.replace, d.mask_structural, d.mask_complement) == \
            (True, True, True)

    def test_unsupported_descriptor_transpose_raises(self):
        a = grb.Matrix.from_coo([0, 0, 1, 2], [1, 2, 2, 0],
                                [1.0, 2.0, 3.0, 4.0], 3, 3)
        u = grb.Vector.from_coo([0, 1], [1.0, 1.0], 3)
        sr = grb.semiring_by_name("plus.times")
        w = grb.Vector(grb.FP64, 3)
        with pytest.raises(grb.InvalidValue):
            grb.mxv(w, a, u, sr, desc=DESC_T0)
        # mxm honours them
        c = grb.Matrix(grb.FP64, 3, 3)
        grb.mxm(c, a, a, sr, desc=grb.DESC_T1)
        ref = grb.Matrix(grb.FP64, 3, 3)
        grb.mxm(ref, a, a, sr, transpose_b=True)
        assert c.isequal(ref)
