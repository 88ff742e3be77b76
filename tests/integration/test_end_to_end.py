"""End-to-end integration tests: the full pipeline the paper evaluates.

Generate a benchmark graph → run every LAGraph kernel (Basic mode) →
verify each output with the GAP-style verifier, plus I/O round trips and
the C-convention surface, all in one flow.
"""

import numpy as np
import pytest

from repro import grb
from repro import lagraph as lg
from repro.gap import datasets, verify
from repro.lagraph import compat
from repro.lagraph.utils import binread, binwrite, mmread, mmwrite


@pytest.fixture(scope="module", params=["kron", "twitter", "road"])
def suite_graph(request):
    return request.param, datasets.build(request.param, "tiny")


class TestFullPipeline:
    def test_bfs(self, suite_graph):
        name, g = suite_graph
        src = int(np.flatnonzero(np.diff(g.A.indptr) > 0)[0])
        p, lv = lg.bfs(g, src, parent=True, level=True)
        verify.verify_bfs_parent(g, src, p)
        verify.verify_bfs_level(g, src, lv)

    def test_pagerank(self, suite_graph):
        _, g = suite_graph
        rank, iters = lg.pagerank(g)
        verify.verify_pr(g, rank, tol=1e-4)
        assert 0 < iters <= 100

    def test_bc(self, suite_graph):
        _, g = suite_graph
        sources = [1, 2, 3, 4]
        cent = lg.betweenness_centrality(g, sources=sources)
        verify.verify_bc(g, sources, cent, tol=1e-6)

    def test_sssp(self, suite_graph):
        name, g = suite_graph
        gw = datasets.build(name, "tiny", weighted=True)
        src = int(np.flatnonzero(np.diff(gw.A.indptr) > 0)[0])
        dist = lg.sssp(gw, src)
        verify.verify_sssp(gw, src, dist)

    def test_tc(self, suite_graph):
        _, g = suite_graph
        count = lg.triangle_count_basic(g)
        verify.verify_tc(g, count)

    def test_cc(self, suite_graph):
        _, g = suite_graph
        comp = lg.connected_components(g)
        verify.verify_cc(g, comp)


class TestIORoundTrips:
    def test_graph_survives_matrix_market(self, tmp_path):
        g = datasets.build("kron", "tiny", weighted=True)
        path = tmp_path / "kron.mtx"
        mmwrite(g.A, path)
        g2 = lg.Graph(mmread(path), lg.ADJACENCY_UNDIRECTED)
        assert g2.A.isequal(g.A)
        # algorithms give identical answers on the round-tripped graph
        assert lg.triangle_count_basic(g2) == lg.triangle_count_basic(g)

    def test_graph_survives_binary(self, tmp_path):
        g = datasets.build("road", "tiny")
        path = tmp_path / "road.npz"
        binwrite(g.A, path)
        g2 = lg.Graph(binread(path), lg.ADJACENCY_DIRECTED)
        assert g2.A.isequal(g.A)
        p1, _ = lg.bfs(g, 0)
        p2, _ = lg.bfs(g2, 0)
        np.testing.assert_array_equal(p1.indices, p2.indices)


class TestCConventionPipeline:
    def test_c_style_full_run(self):
        """The paper's Listing-1 usage pattern, end to end."""
        g_src = datasets.build("web", "tiny")
        box = [g_src.A]
        msg = lg.MsgBuffer()
        status, g = compat.LAGraph_New(box, lg.ADJACENCY_DIRECTED, msg=msg)
        compat.lagraph_try(status, msg=msg)
        assert box[0] is None

        compat.lagraph_try(compat.LAGraph_Property_AT(g, msg=msg)[0], msg=msg)
        compat.lagraph_try(compat.LAGraph_Property_RowDegree(g, msg=msg)[0],
                           msg=msg)
        compat.lagraph_try(compat.LAGraph_CheckGraph(g, msg=msg)[0], msg=msg)

        status, level, parent = compat.LAGraph_BreadthFirstSearch(g, 0,
                                                                  msg=msg)
        compat.lagraph_try(status, msg=msg)
        assert parent.get(0) == 0

        status, rank, _ = compat.LAGraph_PageRank(g, msg=msg)
        compat.lagraph_try(status, msg=msg)
        assert rank.size == g.n

        status, comp = compat.LAGraph_ConnectedComponents(g, msg=msg)
        compat.lagraph_try(status, msg=msg)
        verify.verify_cc(g, comp)


class TestConsistencyAcrossModes:
    def test_basic_and_advanced_agree(self):
        g = datasets.build("urand", "tiny")
        # Basic caches, Advanced then runs on the same cached properties
        p_basic, _ = lg.bfs(g, 5)
        assert lg.bfs_parent_do(g, 5).isequal(p_basic)

    def test_property_caching_is_idempotent_for_results(self):
        g = datasets.build("kron", "tiny")
        r1, _ = lg.pagerank(g)         # caches AT + row_degree
        r2, _ = lg.pagerank(g)         # reuses them
        np.testing.assert_allclose(r1.to_dense(), r2.to_dense())
        g.check()                       # caches still consistent
