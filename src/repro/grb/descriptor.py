"""Descriptors (``GrB_Descriptor`` equivalents).

The pythonic API of this substrate expresses descriptor settings directly:
``replace=True`` keyword, :func:`~repro.grb.mask.structure` /
:func:`~repro.grb.mask.complement` mask wrappers, and ``transpose_a`` /
``transpose_b`` keywords on matmul.  This module provides the bundled-object
form used by the C-style compatibility layer, including the named constants
from the spec (``DESC_RSC`` etc. as used in Sec. VI-B of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Descriptor",
    "DESC_DEFAULT",
    "DESC_R",
    "DESC_S",
    "DESC_C",
    "DESC_SC",
    "DESC_RS",
    "DESC_RC",
    "DESC_RSC",
    "DESC_T0",
    "DESC_T1",
]


@dataclass(frozen=True)
class Descriptor:
    """Bundle of operation modifiers.

    Attributes
    ----------
    replace:
        Clear output entries outside the mask after the write-back.
    mask_structural:
        Treat the mask structurally (pattern only).
    mask_complement:
        Complement the mask.
    transpose_a / transpose_b:
        Use the transpose of the first / second matrix operand.
    """

    replace: bool = False
    mask_structural: bool = False
    mask_complement: bool = False
    transpose_a: bool = False
    transpose_b: bool = False


DESC_DEFAULT = Descriptor()
DESC_R = Descriptor(replace=True)
DESC_S = Descriptor(mask_structural=True)
DESC_C = Descriptor(mask_complement=True)
DESC_SC = Descriptor(mask_structural=True, mask_complement=True)
DESC_RS = Descriptor(replace=True, mask_structural=True)
DESC_RC = Descriptor(replace=True, mask_complement=True)
DESC_RSC = Descriptor(replace=True, mask_structural=True, mask_complement=True)
DESC_T0 = Descriptor(transpose_a=True)
DESC_T1 = Descriptor(transpose_b=True)
