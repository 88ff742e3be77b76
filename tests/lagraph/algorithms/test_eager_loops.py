"""The BFS and PageRank loops run their GraphBLAS calls eagerly.

A parents-BFS level (Alg. 1 / Alg. 2) is one ``vxm``/``mxv`` and one
``update``; a PageRank iteration (Alg. 4) is a short call sequence.
Neither records into an expression DAG: the trace carries no ``record:``
instant, ``grb_expr_recorded_total`` does not move, and every BFS level
dispatches exactly its two calls.  Inside a caller's own
``grb.deferred()`` scope the same loops record, and the parents BFS
trees stay identical to the eager ones.
"""

import pytest
from hypothesis import given, settings

from helpers import random_graph_np, random_graphs
from repro import grb
from repro import lagraph as lg
from repro import obs
from repro.obs import metrics

RUNS = {
    "bfs_parent_push": lambda g: lg.bfs_parent_push(g, 0),
    "bfs_parent_do": lambda g: lg.bfs_parent_do(g, 0),
    "pagerank_gap": lg.pagerank_gap,
    "pagerank_gx": lg.pagerank_gx,
}


def _recorded() -> int:
    family = metrics.REGISTRY.get("grb_expr_recorded_total")
    return sum(child.value for _, child in family.samples())


@pytest.fixture
def graph(rng):
    g = random_graph_np(rng, n=60, p=0.06)
    g.cache_all()
    return g


@pytest.mark.parametrize("run", sorted(RUNS))
def test_no_call_is_recorded(graph, run):
    before = _recorded()
    with obs.tracing() as trace:
        RUNS[run](graph)
    assert not trace.find("record:")
    assert _recorded() == before


def test_a_users_scope_still_records(graph):
    """The probe above can see recording: inside a caller's own
    ``deferred()`` scope the same calls record and emit instants."""
    before = _recorded()
    with obs.tracing() as trace, grb.deferred():
        lg.bfs_parent_push(graph, 0)
    assert trace.find("record:")
    assert _recorded() > before


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


def _eager_and_deferred(g):
    """Both parents BFS variants, eager and inside a caller's scope.

    In the scope each level's product and update are recorded, and the
    ``q.nvals`` test forces them; the trees must be identical, not merely
    equivalent."""
    g.cache_at()
    g.cache_row_degree()
    for bfs in (lg.bfs_parent_push, lg.bfs_parent_do):
        eager = bfs(g, 0)
        with grb.deferred():
            lazy = bfs(g, 0)
        yield eager, lazy


@given(g=random_graphs(directed=True))
@settings(max_examples=20)
def test_property_directed(g):
    for eager, lazy in _eager_and_deferred(g):
        assert lazy.isequal(eager)


@given(g=random_graphs(directed=False))
@settings(max_examples=10)
def test_property_undirected(g):
    for eager, lazy in _eager_and_deferred(g):
        assert lazy.isequal(eager)
