"""The fused level pair of the parents BFS (the Sec. VI-B fusion).

``bfs_parent_push`` and ``bfs_parent_do`` record each level's
``vxm|mxv`` + ``update`` pair into a deferred scope, where the engine's
``fused-frontier-parent`` rule runs both in one output pass.  The oracle
is the same sweep with ``cost.FUSION_ENABLED`` off — exactly the two
calls of Alg. 1 / Alg. 2 — and the trees must be identical, not merely
equivalent.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from helpers import random_graph_np, random_graphs
from repro import lagraph as lg
from repro import obs
from repro.grb.engine import cost

VARIANTS = {"push": lg.bfs_parent_push, "do": lg.bfs_parent_do}


@contextmanager
def _decomposed():
    old, cost.FUSION_ENABLED = cost.FUSION_ENABLED, False
    try:
        yield
    finally:
        cost.FUSION_ENABLED = old


def _both(bfs, g, source):
    g.cache_at()
    g.cache_row_degree()
    with obs.tracing() as trace:
        fused = bfs(g, source)
    with _decomposed():
        oracle = bfs(g, source)
    return fused, oracle, trace


@pytest.mark.parametrize("variant", VARIANTS)
class TestFusedLevelPair:
    def test_identical_parents_to_decomposed(self, rng, variant):
        g = random_graph_np(rng, n=50, p=0.08)
        fused, oracle, _ = _both(VARIANTS[variant], g, 2)
        assert fused.isequal(oracle)

    def test_every_level_is_one_fused_group(self, rng, variant):
        g = random_graph_np(rng, n=60, p=0.06)
        _, _, trace = _both(VARIANTS[variant], g, 0)
        groups = trace.decisions("multiplan")
        assert groups and all(
            e["rule"] == "fused-frontier-parent" for e in groups)
        # the pair never dispatches on its own: no update plan, and one
        # producer dispatch per fused group
        assert not trace.decisions("update")
        producers = trace.decisions("vxm") + trace.decisions("mxv")
        assert len(producers) == len(groups)


@given(g=random_graphs(directed=True))
@settings(max_examples=20)
def test_property_directed(g):
    for bfs in VARIANTS.values():
        fused, oracle, _ = _both(bfs, g, 0)
        assert fused.isequal(oracle)


@given(g=random_graphs(directed=False))
@settings(max_examples=10)
def test_property_undirected(g):
    for bfs in VARIANTS.values():
        fused, oracle, _ = _both(bfs, g, 0)
        assert fused.isequal(oracle)
