"""Derived operands cached on a Graph never outlive the adjacency.

Triangle counting, LCC, k-truss, connected components and Δ-stepping SSSP
keep the working matrices they derive from ``G.A`` on the graph
(``Graph.derived_operand``), beside ``G.AT``.
The contract is LAGraph's: whoever mutates ``A`` calls
``invalidate_properties()``, and that drops them.  Each test mutates a
graph that has already answered every query, then checks every answer
against a fresh graph built from the mutated adjacency.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from helpers import random_graph_np
from repro import grb, serve
from repro import lagraph as lg
from repro.lagraph.algorithms import tc
from repro.lagraph.experimental.ktruss import ktruss
from repro.lagraph.experimental.lcc import local_clustering_coefficient

CLIQUE = range(5)


def _answers(g) -> dict:
    """Every cached-operand entry point's answer on ``g``."""
    out = {f"basic-{m}": tc.triangle_count_basic(g, method=m)
           for m in tc.METHODS}
    if g.kind is lg.ADJACENCY_UNDIRECTED:
        g.cache_all()
        out.update({f"advanced-{m}": tc.triangle_count(g, method=m)
                    for m in tc.METHODS})
    out["lcc"] = local_clustering_coefficient(g).to_dense()
    for k in (3, 4):
        out[f"ktruss-{k}"] = np.concatenate(ktruss(g, k).to_coo())
    return out


def _assert_fresh(g, before: dict) -> None:
    after = _answers(g)
    ref = _answers(lg.Graph(g.A.dup(), g.kind))
    assert after.keys() == ref.keys() == before.keys()
    for name in ref:
        np.testing.assert_array_equal(after[name], ref[name], err_msg=name)
        # the mutation changed every answer, so a stale operand shows
        assert not np.array_equal(before[name], ref[name]), name


def _add_clique(a: grb.Matrix) -> None:
    for i in CLIQUE:
        for j in CLIQUE:
            if i != j:
                a[i, j] = True


@pytest.mark.parametrize("directed", (False, True))
class TestInvalidationDropsDerivedOperands:
    def _graph(self, directed):
        return random_graph_np(np.random.default_rng(5), n=30, p=0.12,
                               directed=directed)

    def test_registry_update(self, directed):
        g = self._graph(directed)
        registry = serve.GraphRegistry()
        registry.register("g", g)
        before = _answers(g)

        def grow(graph):
            a = graph.A.dup()
            _add_clique(a)
            graph.A = a

        registry.update("g", grow)
        _assert_fresh(g, before)

    def test_direct_write_then_invalidate(self, directed):
        g = self._graph(directed)
        before = _answers(g)
        _add_clique(g.A)
        g.invalidate_properties()
        _assert_fresh(g, before)


@pytest.mark.parametrize("directed", (False, True))
def test_cc_rebuilds_its_sample(directed):
    """Two paths 0-1-2 and 3-4-5; the edge (2, 3) joins them.  CC's sample
    (and, for a directed graph, the symmetrised pattern it is cut from)
    is built again from the mutated adjacency."""
    r, c = [0, 1, 3, 4], [1, 2, 4, 5]
    if not directed:
        r, c = r + c, c + r
    kind = lg.ADJACENCY_DIRECTED if directed else lg.ADJACENCY_UNDIRECTED
    g = lg.Graph(grb.Matrix.from_coo(r, c, np.ones(len(r), bool), 6, 6),
                 kind)
    np.testing.assert_array_equal(lg.connected_components(g).to_dense(),
                                  [0, 0, 0, 3, 3, 3])
    old = list(g.matrices())[1:]
    assert len(old) == (2 if directed else 1)
    g.A[2, 3] = True
    if not directed:
        g.A[3, 2] = True
    g.invalidate_properties()
    np.testing.assert_array_equal(lg.connected_components(g).to_dense(),
                                  [0] * 6)
    new = list(g.matrices())[1:]
    assert len(new) == len(old)
    assert not any(m is o for m in new for o in old)
    assert new[-1].get(2, 3)            # the sample holds the new edge


def test_sssp_rebuilds_its_split():
    """0→1→2 at weight 1 each beats the direct 0→2 at 5.  Re-weighting
    1→2 to 10 makes the direct edge the shortest path, and moves 1→2 from
    the light half of the Δ = 2 split to the heavy one."""
    a = grb.Matrix.from_coo([0, 1, 0], [1, 2, 2], [1.0, 1.0, 5.0], 3, 3)
    g = lg.Graph(a, lg.ADJACENCY_DIRECTED)
    d = lg.sssp_delta_stepping(g, 0, delta=2.0)
    np.testing.assert_array_equal(d.to_dense(), [0.0, 1.0, 2.0])
    old = list(g.matrices())[1:]
    assert len(old) == 2
    g.A[1, 2] = 10.0
    g.invalidate_properties()
    d = lg.sssp_delta_stepping(g, 0, delta=2.0)
    np.testing.assert_array_equal(d.to_dense(), [0.0, 1.0, 5.0])
    new = list(g.matrices())[1:]
    assert len(new) == 2
    assert not any(m is o for m in new for o in old)
    light, heavy = new
    assert light.get(1, 2) is None and heavy.get(1, 2) == 10.0
    assert light.get(0, 1) == 1.0 and heavy.get(0, 2) == 5.0


def test_racing_first_calls_share_one_operand():
    """Threads racing on a cold graph each may build the operands, but
    every one of them counts on the first value stored — so the graph
    ends up holding one set and every answer agrees."""
    g = random_graph_np(np.random.default_rng(9), n=60, p=0.15,
                        directed=True)
    expect = tc.triangle_count_basic(lg.Graph(g.A.dup(), g.kind))
    start = threading.Barrier(8)
    got = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def run():
            start.wait(timeout=30)
            got.append((tc.triangle_count_basic(g),
                        g.derived_operand(("tc", "basic"), tuple)))

        threads = [threading.Thread(target=run) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert [count for count, _ in got] == [expect] * 8
    assert len({id(ops) for _, ops in got}) == 1
