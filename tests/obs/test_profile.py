"""Deep profiling + the engine trace acceptance path.

The headline test here is the ISSUE's acceptance criterion: one traced
``triangle_count`` run yields a span tree containing plan-choose, kernel
and epilogue spans, and that tree round-trips through the Chrome
trace-event exporter intact.
"""

import json

import numpy as np
import pytest

from helpers import random_graph_np
from repro import grb, obs
from repro import lagraph as lg
from repro.grb.engine import cost
from repro.obs import profile


@pytest.fixture(autouse=True)
def fresh_tables():
    profile.reset()
    yield
    profile.reset()


@pytest.fixture
def tc_graph(rng):
    g = random_graph_np(rng, n=80, p=0.08, directed=False)
    g.cache_ndiag()
    g.cache_row_degree()
    return g


class TestProfiledDecorator:
    def test_off_by_default(self):
        assert not obs.deep_active()
        calls = []

        @obs.profiled("t_noop")
        def kern(x):
            calls.append(1)
            return x
        arr = np.arange(4)
        assert kern(arr) is arr
        assert calls == [1]
        assert "t_noop" not in profile.kernel_table()

    def test_records_when_active(self):
        @obs.profiled("t_kern")
        def kern(x):
            return x * 2, x
        arr = np.arange(8, dtype=np.int64)
        with obs.profiling():
            kern(arr)
            kern(arr)
        row = profile.kernel_table()["t_kern"]
        assert row["calls"] == 2
        assert row["nnz_in"] == 16        # one array argument, twice
        assert row["nnz_out"] == 32       # tuple output counted per array
        assert row["bytes"] == 2 * arr.nbytes
        assert row["wall_s"] >= 0 and row["cpu_s"] >= 0

    def test_context_local(self):
        import threading
        seen = []

        def worker():
            seen.append(obs.deep_active())
        with obs.profiling():
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert obs.deep_active()
        assert seen == [False]


class TestEngineProfiling:
    def test_tc_populates_kernel_and_rule_tables(self, tc_graph):
        with obs.profiling():
            lg.triangle_count(tc_graph, presort=None)
        rules = profile.rule_table()
        assert any(key.startswith("mxm/") for key in rules)
        (rule_row,) = [v for k, v in rules.items() if k.startswith("mxm/")]
        assert rule_row["calls"] >= 1 and rule_row["nnz_in"] > 0
        assert profile.kernel_table()   # hot primitives reported too

    @pytest.mark.parametrize("probe_cost, rule, unit", [
        (0.0, "mxm-masked-dot", "dot_probes"),
        (float("inf"), "mxm-scipy", "expand_flops"),
    ])
    def test_rule_table_sums_priced_units(self, tc_graph, monkeypatch,
                                          probe_cost, rule, unit):
        """A dot claim counts its exact probes, a declined dot the exact
        flops of the fallback; a memo hit re-uses the probe work and
        adds none, while its call and wall time still count."""
        monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)
        monkeypatch.setattr(cost, "DOT_PROBE_COST", probe_cost)
        with obs.tracing() as tr, obs.profiling():
            lg.triangle_count(tc_graph, presort=None)
            lg.triangle_count(tc_graph, presort=None)
        first, again = tr.decisions("mxm")
        assert first["rule"] == again["rule"] == rule
        assert again["plan_cache"] == "hit"
        row = profile.rule_table()["mxm/" + rule]
        assert row["calls"] == 2
        assert row["units"] == first[unit] > 0
        assert 0 < row["s_per_unit"] * row["units"] <= row["wall_s"]

    def test_either_sink_opens_the_decision_gate(self):
        # one predicate: a trace sink or deep profiling consumes decision
        # records; the exact-count fields ride on deep profiling alone
        assert not obs.deciding()
        with obs.profiling():
            assert obs.deciding() and obs.deep_active()
        with obs.tracing():
            assert obs.deciding() and not obs.deep_active()
        assert not obs.deciding()

    def test_chooser_decisions_judged(self, tc_graph, monkeypatch):
        monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)
        with obs.profiling():
            lg.triangle_count(tc_graph, presort=None)
        decisions = profile.decision_table()
        judged = sum(row["judged"] for row in decisions.values())
        assert judged >= 1      # the masked-mxm chooser was re-judged
        for row in decisions.values():
            assert 0.0 <= row["misprediction_rate"] <= 1.0

    def test_collector_and_profiler_see_the_same_records(self, tc_graph):
        with obs.tracing() as tr, obs.profiling():
            lg.triangle_count(tc_graph, presort=None)
        records = tr.decisions()
        assert records and all(isinstance(e["rule"], str) for e in records)
        table = profile.decision_table()
        assert sum(row["calls"] for row in table.values()) == len(records)
        assert set(table) == {f"{e['op']}/{e['rule']}" for e in records}
        # each record hangs under the plan-choose span that made it
        chooses = {r["span_id"] for r in tr.find("plan-choose")}
        parents = {r["parent_id"] for r in tr.find("decision")}
        assert parents <= chooses


class TestTraceAcceptance:
    """ISSUE 6 acceptance: TC trace → span tree → Chrome round trip."""

    def _span_names(self, node, out):
        out.append(node["record"]["name"])
        for ch in node["children"]:
            self._span_names(ch, out)

    def test_tc_span_tree_and_chrome_round_trip(self, tc_graph):
        with obs.tracing() as tr:
            expected = lg.triangle_count(tc_graph, presort=None)
        names = set(tr.names())
        assert "plan-choose" in names
        assert any(n.startswith("kernel:") for n in names)
        assert any(n.startswith("epilogue:") for n in names)

        # the tree is rooted at plan spans; plan-choose/kernel/epilogue
        # all hang beneath one plan:mxm root
        roots = tr.span_tree()
        plan_roots = [r for r in roots
                      if r["record"]["name"].startswith("plan:")]
        assert plan_roots
        flat = []
        self._span_names(plan_roots[0], flat)
        assert "plan-choose" in flat
        assert any(n.startswith("kernel:") for n in flat)
        assert any(n.startswith("epilogue:") for n in flat)

        # Chrome round trip preserves every span and the parent links
        doc = json.loads(tr.to_chrome_json())
        events = {e["args"]["span_id"]: e for e in doc["traceEvents"]}
        assert len(events) == len(tr.records())
        for rec in tr.records():
            ev = events[rec["span_id"]]
            assert ev["name"] == rec["name"]
            assert ev["args"].get("parent_id") == (
                rec["parent_id"] if rec["parent_id"] is not None else None)

        # and tracing never changed the answer
        assert lg.triangle_count(tc_graph, presort=None) == expected

    def test_epilogue_span_covers_fused_and_decomposed(self, tc_graph,
                                                       monkeypatch):
        monkeypatch.setattr(cost, "FUSION_ENABLED", False)
        with obs.tracing() as tr:
            lg.triangle_count(tc_graph, presort=None)
        eps = tr.find("epilogue:")
        assert eps and all(r["args"]["fused"] is False for r in eps)


class TestTcFusedReduction:
    """The TC refactor: masked multiply + scalar reduce as one fused plan."""

    def test_methods_agree_with_reference(self, tc_graph, monkeypatch):
        expected = {m: lg.triangle_count(tc_graph, method=m, presort=None)
                    for m in lg.algorithms.tc.METHODS}
        # decomposed (fusion off) is the bit-identity reference
        monkeypatch.setattr(cost, "FUSION_ENABLED", False)
        for m, want in expected.items():
            assert lg.triangle_count(tc_graph, method=m, presort=None) == want

    def test_single_dispatch_carries_reduce_epilogue(self, tc_graph):
        with obs.tracing() as tr:
            lg.triangle_count(tc_graph, presort=None)
        mxm = tr.decisions("mxm")
        # describe() reports the epilogue-chain length as ``fused``: the
        # TC multiply now carries its scalar reduction as an epilogue
        assert mxm and any(e["fused"] >= 1 for e in mxm)
