"""snapshot-in-loop bad fixture: the distances are exported every round."""


def relax_all(d, frontier, step, _cancel):
    while frontier.nvals:
        _cancel.checkpoint()
        frontier = step(frontier, d.bitmap())
    return d
