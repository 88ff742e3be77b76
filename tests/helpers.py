"""Shared test helpers: hypothesis strategies, plain random-graph builders
and the A/B timing loop of the ratio guards.

Lives in its own module (not ``conftest.py``) so test modules can import it
unambiguously: ``conftest`` is a name pytest gives to every directory's
fixture file, and whichever module is imported first wins the
``sys.modules`` slot.  ``tests/conftest.py`` puts
this directory on ``sys.path`` before any test module is imported, so a
plain ``from helpers import ...`` always resolves here.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from hypothesis import strategies as st

from repro import grb
from repro.grb import engine

__all__ = [
    "sparse_vectors", "vector_pairs", "sparse_matrices", "random_graphs",
    "random_graph_np", "store_bytes", "ab_ratio", "MATRIX_LAYOUTS",
    "in_layout", "oracle_build",
]


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def sparse_vectors(draw, max_size: int = 24, dtype=np.float64,
                   min_size: int = 1, elements=None):
    """A random grb.Vector with random structure."""
    size = draw(st.integers(min_size, max_size))
    n_entries = draw(st.integers(0, size))
    idx = draw(st.permutations(range(size)))[:n_entries]
    if elements is None:
        elements = st.integers(-4, 4)
    vals = draw(st.lists(elements, min_size=n_entries, max_size=n_entries))
    return grb.Vector.from_coo(
        np.array(sorted(idx), dtype=np.int64),
        np.array(vals, dtype=dtype),
        size,
    )


@st.composite
def vector_pairs(draw, max_size: int = 24, dtype=np.float64):
    """Two random vectors of the same size."""
    size = draw(st.integers(1, max_size))
    vs = []
    for _ in range(2):
        n_entries = draw(st.integers(0, size))
        idx = np.array(sorted(draw(st.permutations(range(size)))[:n_entries]),
                       dtype=np.int64)
        vals = np.array(
            draw(st.lists(st.integers(-4, 4), min_size=n_entries,
                          max_size=n_entries)), dtype=dtype)
        vs.append(grb.Vector.from_coo(idx, vals, size))
    return vs[0], vs[1]


@st.composite
def sparse_matrices(draw, max_dim: int = 10, dtype=np.float64,
                    square: bool = False, elements=None):
    """A random grb.Matrix."""
    nrows = draw(st.integers(1, max_dim))
    ncols = nrows if square else draw(st.integers(1, max_dim))
    cells = [(i, j) for i in range(nrows) for j in range(ncols)]
    n_entries = draw(st.integers(0, min(len(cells), 3 * max_dim)))
    picked = draw(st.permutations(cells))[:n_entries]
    if elements is None:
        elements = st.integers(-4, 4)
    vals = np.array(draw(st.lists(elements, min_size=n_entries,
                                  max_size=n_entries)), dtype=dtype)
    r = np.array([p[0] for p in picked], dtype=np.int64)
    c = np.array([p[1] for p in picked], dtype=np.int64)
    return grb.Matrix.from_coo(r, c, vals, nrows, ncols)


@st.composite
def random_graphs(draw, max_n: int = 14, directed: bool = True,
                  weighted: bool = False):
    """A random lagraph.Graph (loop-free)."""
    from repro import lagraph as lg

    n = draw(st.integers(2, max_n))
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    n_edges = draw(st.integers(0, min(len(cells), 4 * n)))
    picked = draw(st.permutations(cells))[:n_edges]
    r = np.array([p[0] for p in picked], dtype=np.int64)
    c = np.array([p[1] for p in picked], dtype=np.int64)
    if not directed:
        r, c = np.concatenate((r, c)), np.concatenate((c, r))
    if weighted:
        w = np.array(draw(st.lists(st.integers(1, 9), min_size=r.size,
                                   max_size=r.size)), dtype=np.float64)
        A = grb.Matrix.from_coo(r, c, w, n, n, dup_op=grb.binary.MIN)
        if not directed:
            A = A.ewise_add(A.T, grb.binary.MIN)
    else:
        A = grb.Matrix.from_coo(r, c, np.ones(r.size, dtype=np.bool_), n, n,
                                dup_op=grb.binary.LOR)
    kind = lg.ADJACENCY_DIRECTED if directed else lg.ADJACENCY_UNDIRECTED
    return lg.Graph(A, kind)


# ---------------------------------------------------------------------------
# plain (non-hypothesis) builders
# ---------------------------------------------------------------------------

def random_graph_np(rng, n=40, p=0.1, directed=True, weighted=False, seed=None):
    """Plain random graph helper for integration tests."""
    from repro import lagraph as lg

    if seed is not None:
        rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) < p
    np.fill_diagonal(dense, False)
    if not directed:
        dense |= dense.T
    r, c = np.nonzero(dense)
    if weighted:
        vals = rng.integers(1, 10, size=r.size).astype(np.float64)
        A = grb.Matrix.from_coo(r, c, vals, n, n, dup_op=grb.binary.MIN)
        if not directed:
            A = A.ewise_add(A.T, grb.binary.MIN)
    else:
        A = grb.Matrix.from_coo(r, c, np.ones(r.size, bool), n, n)
    kind = lg.ADJACENCY_DIRECTED if directed else lg.ADJACENCY_UNDIRECTED
    return lg.Graph(A, kind)


def bfs_level_reference(g, source: int):
    """The GAP reference BFS's depths (``gap.baselines.bfs_level``) as the
    INT64 vector ``lagraph.bfs_level`` returns: an answer computed outside
    the batched sweep that the library and the service both run."""
    from repro.gap import baselines

    ref = baselines.bfs_level(g, source)
    reached = np.flatnonzero(ref >= 0)
    return grb.Vector.from_coo(reached, ref[reached], g.n, typ=grb.INT64)


def bfs_parent_reference(g, source: int):
    """The GAP reference BFS's parents (``gap.baselines.bfs_parent``) as
    the INT64 vector ``lagraph.bfs_parent_do`` returns.  Both keep the
    smallest frontier node adjacent to each discovered node, so the trees
    are identical, not merely equivalent."""
    from repro.gap import baselines

    ref = baselines.bfs_parent(g, source)
    reached = np.flatnonzero(ref >= 0)
    return grb.Vector.from_coo(reached, ref[reached], g.n, typ=grb.INT64)


#: Every matrix operand layout a format lattice crosses: each storage format
#: with its cached transpose (the store's ``_csc`` slot) cold, or pre-built by
#: ``engine.preplan`` as a registered serving graph arrives.
MATRIX_LAYOUTS = ("csr", "bitmap", "csr+AT", "bitmap+AT")


def in_layout(m, layout: str):
    """Pin ``m`` to ``layout``'s format; a ``+AT`` suffix also warms the
    cached transpose.  Returns ``m``."""
    fmt, _, warm = layout.partition("+")
    m.set_format(fmt)
    if warm:
        engine.preplan(m)
        assert m._S()._csc is not None
    return m


def store_bytes(owners) -> int:
    """Σ raw-store ``nbytes()`` over ``owners`` (staged writes never
    flushed)."""
    return sum(o._store.nbytes() for o in owners)


def oracle_build(keys, values, dtype, dup_op):
    """Reference tuple build: sort, then fold each duplicate into its run
    with one ``dup_op`` call, tuple by tuple in input order.  Returns
    ``(keys, values)``; ``from_coo`` must match it bit for bit."""
    keys = np.asarray(keys, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    sv = np.asarray(values)[order].astype(dtype, copy=False)
    dup = np.zeros(sk.size, dtype=bool)
    if sk.size:
        np.equal(sk[1:], sk[:-1], out=dup[1:])
    if dup.any():
        if dup_op is None:
            raise ValueError("duplicate keys without dup_op")
        starts = np.flatnonzero(~dup)
        out_vals = sv[starts].copy()
        rest = np.flatnonzero(dup)
        group = np.searchsorted(starts, rest, side="right") - 1
        with np.errstate(all="ignore"):
            for pos, g in zip(rest, group):
                out_vals[g] = dup_op(out_vals[g], sv[pos])
        sk = sk[starts]
        sv = out_vals.astype(dtype, copy=False)
    return sk, sv


# ---------------------------------------------------------------------------
# ratio guards
# ---------------------------------------------------------------------------

def ab_ratio(fast, slow, reps: int = 1) -> float:
    """How many times longer ``slow()`` takes than ``fast()``, in process.

    The two arms alternate call by call, so a shift in machine speed lands
    on both; a round is ``reps`` calls of each, every arm keeps its best of
    5 rounds, and only the ratio of the two is returned — the one wall-clock
    quantity stable enough to assert on any runner.  Warm both arms (and
    check they agree) before calling; size ``reps`` so a round takes tens of
    milliseconds."""
    arms = (fast, slow)
    best = [np.inf, np.inf]
    for _ in range(5):
        spent = [0.0, 0.0]
        for _ in range(reps):
            for arm, fn in enumerate(arms):
                t0 = perf_counter()
                fn()
                spent[arm] += perf_counter() - t0
        best = [min(b, s) for b, s in zip(best, spent)]
    return best[1] / best[0]

