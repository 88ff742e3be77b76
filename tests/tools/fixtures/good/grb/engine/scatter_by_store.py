"""store-mutation good fixtures: the store writes itself; local arrays
that share a buffer's name are not attribute stores."""

import numpy as np


def mark(st, keys, vals):
    st.scatter(keys, vals)
    return st


def flags(size, keys):
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    return present


def hand_out(st):
    st.mark_exported()
    return st.present, st.dense
