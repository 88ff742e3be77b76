"""repro.obs.trace: span structure, context isolation, export formats."""

import json
import threading

from repro import obs
from repro.obs import trace


class TestSpanStructure:
    def test_no_sink_returns_shared_null_span(self):
        a = obs.span("x")
        b = obs.span("y")
        assert a is b                 # the fast path allocates nothing
        with a as sp:
            assert sp.set(k=1) is sp  # attribute setting is a no-op

    def test_parent_child_ids(self):
        with obs.tracing() as tr:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        by_name = {r["name"]: r for r in tr.records()}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None

    def test_span_tree_nesting(self):
        with obs.tracing() as tr:
            with obs.span("a"):
                with obs.span("b"):
                    obs.instant("mark")
                with obs.span("c"):
                    pass
        roots = tr.span_tree()
        assert [r["record"]["name"] for r in roots] == ["a"]
        names = sorted(ch["record"]["name"] for ch in roots[0]["children"])
        assert names == ["b", "c"]
        b = next(ch for ch in roots[0]["children"]
                 if ch["record"]["name"] == "b")
        assert b["children"][0]["record"]["name"] == "mark"

    def test_attrs_and_error_recorded(self):
        with obs.tracing() as tr:
            try:
                with obs.span("boom", cat="test", op="mxm") as sp:
                    sp.set(rows=3)
                    raise ValueError("x")
            except ValueError:
                pass
        (rec,) = tr.records()
        assert rec["args"] == {"op": "mxm", "rows": 3}
        assert rec["error"] == "ValueError"
        assert rec["dur"] >= 0

    def test_nested_tracing_restores_outer_sink(self):
        with obs.tracing() as outer:
            with obs.tracing() as inner:
                with obs.span("in-inner"):
                    pass
            with obs.span("in-outer"):
                pass
        assert inner.names() == ["in-inner"]
        assert outer.names() == ["in-outer"]


class TestThreadIsolation:
    def test_plain_thread_has_no_sink(self):
        seen = []

        def worker():
            seen.append(trace.active())
        with obs.tracing():
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen == [False]

    def test_propagate_carries_sink(self):
        with obs.tracing() as tr:
            t = threading.Thread(target=obs.propagate(
                lambda: obs.instant("from-thread")))
            t.start()
            t.join()
        assert tr.names() == ["from-thread"]


class TestChromeExport:
    def _validate(self, doc):
        """The Chrome trace-event schema subset we emit."""
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "i")
            assert isinstance(ev["name"], str) and ev["name"]
            assert isinstance(ev["cat"], str)
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
            assert isinstance(ev["args"], dict)
            assert isinstance(ev["args"]["span_id"], int)
            if ev["ph"] == "X":
                assert isinstance(ev["dur"], (int, float)) and ev["dur"] >= 0
            else:
                assert ev["s"] == "t"

    def test_chrome_trace_schema(self):
        with obs.tracing() as tr:
            with obs.span("outer", cat="plan", op="mxm"):
                with obs.span("inner", cat="kernel"):
                    pass
                obs.instant("note", detail="x")
        doc = tr.to_chrome_trace()
        self._validate(doc)
        # round-trips through JSON text
        doc2 = json.loads(tr.to_chrome_json())
        self._validate(doc2)
        # parent/child structure survives in args
        by_name = {e["name"]: e for e in doc2["traceEvents"]}
        assert (by_name["inner"]["args"]["parent_id"]
                == by_name["outer"]["args"]["span_id"])

    def test_jsonl_round_trip(self):
        with obs.tracing() as tr:
            with obs.span("a"):
                obs.instant("b")
        lines = tr.to_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert {r["name"] for r in records} == {"a", "b"}
        assert {r["type"] for r in records} == {"span", "instant"}


class TestInstantOverrides:
    def test_explicit_sink_and_parent(self):
        tr = trace.TraceCollector()
        with obs.tracing(tr):
            with obs.span("root"):
                parent = trace.current_span_id()
        # no sink installed here — explicit delivery still lands
        obs.instant("late", sink=tr, parent_id=parent, outcome="done")
        by_name = {r["name"]: r for r in tr.records()}
        assert by_name["late"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["late"]["args"]["outcome"] == "done"
