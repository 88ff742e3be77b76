"""op-call-in-loop good fixtures: one call over gathered arrays, a call of
something that is not a parameter, an op applied to a loop's iterable
(evaluated once), and a per-rank pass waived with a reason."""


def combine(a_vals, b_vals, ia, ib, op):
    return op(a_vals[ia], b_vals[ib])


def check_op(item):
    return item


def check_all(items):
    for item in items:
        check_op(item)


def first_rows(rows, select_op):
    for r in select_op(rows):
        print(r)


def fold_by_rank(out, group, pos, sv, bounds, dup_op):
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        g = group[lo:hi]
        # op: array-pass (one call per rank, over every run that long)
        out[g] = dup_op(out[g], sv[pos[lo:hi]])
    return out
