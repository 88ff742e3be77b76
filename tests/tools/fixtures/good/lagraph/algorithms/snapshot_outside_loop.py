"""snapshot-in-loop good fixtures: one snapshot before the loop, the vector
itself as the consumer's thunk, a for-loop's iterable (evaluated once),
and a per-round object waived with a reason."""


def relax_all(d, frontier, step, _cancel):
    start = d.bitmap()
    while frontier.nvals:
        _cancel.checkpoint()
        frontier = step(frontier, d, start)
    return d


def flags(v, poke):
    for flag in v.bitmap()[0][:4]:  # cancel: checkpoint-exempt (four flags)
        poke(flag)


def rounds(make, score, _cancel):
    while score.any():
        _cancel.checkpoint()
        best = make(score)
        # store: snapshot (best is this round's own vector)
        score = score & best.bitmap()[0]
    return score
