"""op-call-in-loop bad fixture: the tuple build's old duplicate fold, one
``dup_op`` call per duplicate tuple."""

import numpy as np


def fold(sk, sv, dup_op):
    dup = np.zeros(sk.size, dtype=bool)
    np.equal(sk[1:], sk[:-1], out=dup[1:])
    starts = np.flatnonzero(~dup)
    out_vals = sv[starts].copy()
    rest = np.flatnonzero(dup)
    group = np.searchsorted(starts, rest, side="right") - 1
    for pos, g in zip(rest, group):
        out_vals[g] = dup_op(out_vals[g], sv[pos])
    return sk[starts], out_vals
