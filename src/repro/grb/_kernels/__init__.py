"""Vectorised kernels backing the substrate's operations.

These functions work on raw NumPy arrays (CSR triplets, sorted key/value
pairs) so they can be unit-tested independently of the
:class:`~repro.grb.vector.Vector` / :class:`~repro.grb.matrix.Matrix`
wrappers.
"""

from . import apply_select, build, ewise, gather, maskwrite, matmul

__all__ = ["apply_select", "build", "ewise", "gather", "maskwrite", "matmul"]
