"""The mask / accumulator / replace write-back step.

Every GraphBLAS operation ends with the same transaction (C API spec §2.3):

1. ``Z = C ⊙ T`` — if an accumulator ⊙ is given, merge the freshly computed
   result ``T`` into the existing output ``C`` with eWiseAdd semantics;
   otherwise ``Z = T``.
2. ``C⟨M⟩ = Z`` — inside the mask the output becomes exactly ``Z`` (masked
   positions where ``Z`` has no entry lose their entry); outside the mask the
   old entries survive, unless *replace* semantics is requested, in which
   case they are deleted.

This module implements that transaction once, over linearised sorted key /
value arrays, so vectors and matrices share one battle-tested code path
(:func:`masked_write`, which returns the output's complete new content),
and once more for a bitmap-resident output that may be written in place
(:func:`delta_write`, whose cost follows the entries written).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .ewise import setdiff_keys, union_merge
from ...obs.profile import profiled

__all__ = ["mask_allowed_keys", "masked_write", "delta_write"]


def mask_allowed_keys(
    mask_keys: np.ndarray,
    mask_values: Optional[np.ndarray],
    structural: bool,
) -> np.ndarray:
    """Keys selected by a (non-complemented) mask.

    A *structural* mask selects every stored entry; a *valued* mask selects
    entries whose value is truthy (explicit zeros/False are excluded).
    """
    if structural or mask_values is None:
        return mask_keys
    keep = mask_values.astype(bool)
    return mask_keys[keep]


def _inside_mask(keys, allowed_keys, allowed_present, complement):
    """Which of ``keys`` the (possibly complemented) mask selects.

    A bitmap-resident mask answers with O(1) flag gathers, a sparse one
    with a search of its sorted allowed keys; neither given is "no mask",
    whose complement selects nothing."""
    if allowed_present is not None:
        inside = allowed_present[keys]
    elif allowed_keys is not None:
        inside = ~setdiff_keys(keys, allowed_keys)
    else:
        inside = np.ones(keys.size, dtype=bool)
    return ~inside if complement else inside


@profiled("masked_write")
def masked_write(
    c_keys: np.ndarray,
    c_vals: np.ndarray,
    t_keys: np.ndarray,
    t_vals: np.ndarray,
    *,
    accum=None,
    allowed_keys: Optional[np.ndarray] = None,
    allowed_present: Optional[np.ndarray] = None,
    complement: bool = False,
    replace: bool = False,
    out_dtype: Optional[np.dtype] = None,
):
    """Apply the spec write-back transaction; returns ``(keys, values)``.

    Parameters
    ----------
    c_keys, c_vals:
        The existing output's sorted unique keys and values (read only
        when they can reach the result: never for an accumulator-free
        ``replace`` or unmasked write).
    t_keys, t_vals:
        The operation result's sorted unique keys and values.
    accum:
        Optional binary accumulator ⊙.
    allowed_keys:
        Sorted keys selected by the mask *before* complementing, or ``None``
        for "no mask" (everything allowed).
    allowed_present:
        Format-aware alternative to ``allowed_keys``: a dense bool array
        over the full key space (a bitmap-resident mask's own flag array).
        Membership tests become O(1) gathers instead of sorted-key
        searches, with identical selection semantics.
    complement:
        Whether the mask is complemented.
    replace:
        Replace (annihilate-outside-mask) semantics.
    out_dtype:
        dtype of the final values (defaults to promotion of inputs).
    """
    if out_dtype is None:
        out_dtype = np.result_type(c_vals.dtype, t_vals.dtype) if c_vals.size or t_vals.size \
            else t_vals.dtype

    # Step 1: Z = C ⊙ T  (or Z = T without an accumulator).
    if accum is not None and c_keys.size:
        z_keys, z_vals = union_merge(c_keys, c_vals, t_keys, t_vals, accum)
    else:
        z_keys, z_vals = t_keys, t_vals

    # No mask: the output becomes Z wholesale.
    if allowed_keys is None and allowed_present is None and not complement:
        return z_keys.astype(np.int64, copy=False), z_vals.astype(out_dtype, copy=False)

    inside_z = _inside_mask(z_keys, allowed_keys, allowed_present, complement)
    keys_in = z_keys[inside_z]
    vals_in = z_vals[inside_z]

    if replace:
        keys = keys_in
        vals = vals_in.astype(out_dtype, copy=False)
    else:
        outside_c = ~_inside_mask(c_keys, allowed_keys, allowed_present,
                                  complement)
        keys_out = c_keys[outside_c]
        vals_out = c_vals[outside_c]
        keys = np.concatenate((keys_in, keys_out))
        vals = np.concatenate((
            vals_in.astype(out_dtype, copy=False),
            vals_out.astype(out_dtype, copy=False),
        ))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = vals[order]

    return keys.astype(np.int64, copy=False), vals


@profiled("delta_write")
def delta_write(t_keys, t_vals, *, store, accum=None, allowed_keys=None,
                allowed_present=None, complement=False):
    """The write-back transaction, in place, for one that can only touch
    entries it names.

    ``store`` is a writable bitmap store (passed by keyword: the work is
    ``T``'s, not the grid's).  Two shapes of transaction qualify, both
    without ``replace``:

    * with an accumulator, under any mask — ``Z = C ⊙ T ⊇ C``, so nothing
      is deleted and only ``T``'s keys inside the mask change;
    * without one, under a non-complemented mask — inside the mask the
      output becomes exactly ``T``: its keys there are written, the
      mask's other keys erased, and nothing else is touched.

    Same content as :func:`masked_write` followed by a rebuild.  The
    accumulating shape costs O(|T|) and the assignment through a sparse
    mask O(|T| + |mask|), against the rebuild's O(stored entries); the
    assignment through a *bitmap-resident* mask finds the entries to erase
    with one pass of flag operations over the grid — still no sort, merge
    or reallocation, but not proportional to ``T``.
    """
    masked = allowed_keys is not None or allowed_present is not None
    if masked or complement:
        inside = _inside_mask(t_keys, allowed_keys, allowed_present,
                              complement)
        t_keys, t_vals = t_keys[inside], t_vals[inside]
    if accum is None:
        if allowed_present is not None:
            gone = allowed_present & store.present
            gone[t_keys] = False
            store.erase(np.flatnonzero(gone))
        else:
            store.erase(allowed_keys[setdiff_keys(allowed_keys, t_keys)])
    store.scatter(t_keys, t_vals, accum)
