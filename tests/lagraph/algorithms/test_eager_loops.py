"""The parents-BFS level loop: each GraphBLAS call runs when it is made.

A level (Alg. 1 / Alg. 2) is one ``vxm``/``mxv`` and one ``update``.
Every level dispatches exactly its two calls, and the push-only and
direction-optimising parents BFS produce the same tree, one that
:func:`repro.gap.verify.verify_bfs_parent` accepts.
"""

import pytest
from hypothesis import given, settings

from helpers import random_graph_np, random_graphs
from repro import lagraph as lg
from repro import obs
from repro.gap.verify import verify_bfs_parent

RUNS = {
    "bfs_parent_push": lambda g: lg.bfs_parent_push(g, 0),
    "bfs_parent_do": lambda g: lg.bfs_parent_do(g, 0),
}


@pytest.fixture
def graph(rng):
    g = random_graph_np(rng, n=60, p=0.06)
    g.cache_all()
    return g


@pytest.mark.parametrize("run", ["bfs_parent_push", "bfs_parent_do"])
def test_every_level_is_one_product_and_one_update(graph, run):
    _, depth = lg.bfs_level(graph, 0).to_coo()
    levels = int(depth.max()) + 1         # the last level finds no frontier
    assert levels > 3
    with obs.tracing() as trace:
        RUNS[run](graph)
    products = trace.decisions("vxm") + trace.decisions("mxv")
    updates = trace.decisions("update")
    assert len(products) == len(updates) == levels
    assert {e["rule"] for e in updates} == {"update-write"}
    if run == "bfs_parent_do":            # one push/pull choice per level
        assert len(trace.decisions("bfs_step")) == levels


def _check_parents(g):
    """Both parents BFS variants give the same tree, and it verifies: the
    trees must be identical, not merely equivalent."""
    g.cache_at()
    g.cache_row_degree()
    push = lg.bfs_parent_push(g, 0)
    assert lg.bfs_parent_do(g, 0).isequal(push)
    assert verify_bfs_parent(g, 0, push)


@given(g=random_graphs(directed=True))
@settings(max_examples=20)
def test_property_directed(g):
    _check_parents(g)


@given(g=random_graphs(directed=False))
@settings(max_examples=10)
def test_property_undirected(g):
    _check_parents(g)
