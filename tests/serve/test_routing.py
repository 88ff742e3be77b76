"""One kernel per serve query kind.

Every BFS unit runs its batched sweep, a lone query included: one
``msbfs_levels`` / ``msbfs_parents`` call, never the single-source
``bfs_level`` / ``bfs_parent_push`` (those stay the references answers are
compared with).  ``SSSP`` is never batched: each distinct source is one
``sssp_bellman_ford`` call, deduplicated and memoized like the whole-graph
kinds.  The kernels are spied on where the query classes look them up, the
``repro.lagraph`` package namespace.
"""

import threading

import pytest

from helpers import random_graph_np
from repro import lagraph as lg
from repro import serve

KERNELS = ("msbfs_levels", "msbfs_parents", "bfs_level", "bfs_parent_push",
           "sssp_bellman_ford")
#: the per-source reference of each query kind, unspied
REFERENCE = {serve.BFSLevels: lg.bfs_level,
             serve.BFSParents: lg.bfs_parent_push,
             serve.SSSP: lg.sssp_bellman_ford}


@pytest.fixture
def calls(monkeypatch):
    """Kernel name → number of calls made since the fixture was set up."""
    made = {name: 0 for name in KERNELS}
    lock = threading.Lock()

    def spy(name, real):
        def call(*args, **kwargs):
            with lock:
                made[name] += 1
            return real(*args, **kwargs)
        return call

    for name in KERNELS:
        monkeypatch.setattr(lg, name, spy(name, getattr(lg, name)))
    return made


@pytest.fixture
def service():
    svc = serve.GraphService(max_workers=2, cache_capacity=64, max_batch=16)
    yield svc
    svc.flush()
    svc.shutdown()


@pytest.fixture
def graph(rng):
    return random_graph_np(rng, n=50, p=0.1, weighted=True)


def _only(made, **expected):
    return {k: v for k, v in made.items() if v} == expected


@pytest.mark.parametrize("kind, batched", [
    (serve.BFSLevels, "msbfs_levels"),
    (serve.BFSParents, "msbfs_parents"),
])
def test_lone_bfs_query_runs_the_batched_sweep(service, graph, calls,
                                               kind, batched):
    service.register("g", graph)
    got = service.query("g", kind(7))
    assert _only(calls, **{batched: 1})
    st = service.stats()
    assert (st.kernel_calls, st.coalesced_calls,
            st.coalesced_sources) == (1, 1, 1)
    assert got.isequal(REFERENCE[kind](graph, 7))


def test_each_distinct_sssp_is_one_bellman_ford_call(service, graph, calls):
    service.register("g", graph)
    queries = [serve.SSSP(3), serve.SSSP(5), serve.SSSP(8), serve.SSSP(3)]
    got = service.query_many("g", queries)
    assert _only(calls, sssp_bellman_ford=3)
    st = service.stats()
    assert (st.kernel_calls, st.coalesced_calls,
            st.coalesced_sources, st.deduplicated) == (3, 0, 0, 1)
    for q, res in zip(queries, got):
        assert res.isequal(REFERENCE[serve.SSSP](graph, q.source))
    # memoized: a repeat is a cache hit, not a fourth call
    service.query("g", serve.SSSP(5))
    assert calls["sssp_bellman_ford"] == 3
    assert service.stats().cache_hits == 1


def test_mixed_drain_counts(service, graph, calls):
    """One drain of every single-source kind: one sweep per BFS group,
    one Bellman-Ford per distinct SSSP, and only the BFS sweeps count as
    coalesced."""
    service.register("g", graph)
    queries = [serve.BFSLevels(1), serve.BFSLevels(2), serve.BFSLevels(1),
               serve.BFSParents(4), serve.SSSP(3), serve.SSSP(5),
               serve.SSSP(8)]
    got = service.query_many("g", queries)
    assert _only(calls, msbfs_levels=1, msbfs_parents=1,
                 sssp_bellman_ford=3)
    st = service.stats()
    assert st.kernel_calls == 5
    assert st.coalesced_calls == 2
    assert st.coalesced_sources == 3       # BFSLevels 1 and 2, BFSParents 4
    assert st.deduplicated == 1
    for q, res in zip(queries, got):
        assert res.isequal(REFERENCE[type(q)](graph, q.source))
