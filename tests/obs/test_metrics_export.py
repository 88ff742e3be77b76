"""repro.obs.metrics + export: registry semantics and exposition formats."""

import json
from unittest import mock

import pytest

from helpers import ab_ratio
from repro import obs, serve
from repro import lagraph as lg
from repro.gap.harness import _sources
from repro.obs import metrics


@pytest.fixture
def registry():
    return metrics.Registry()


class TestCounters:
    def test_inc_and_value(self, registry):
        c = registry.counter("t_ops_total", "ops")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_labels_children_independent(self, registry):
        c = registry.counter("t_by_rule_total", labels=("rule",))
        c.labels("dot").inc()
        c.labels("dot").inc()
        c.labels("expand").inc()
        assert c.labels("dot").value == 2
        assert c.labels("expand").value == 1

    def test_label_arity_checked(self, registry):
        c = registry.counter("t_l_total", labels=("a", "b"))
        with pytest.raises(ValueError):
            c.labels("only-one")

    def test_get_or_create_returns_same(self, registry):
        a = registry.counter("t_same_total")
        b = registry.counter("t_same_total")
        assert a is b

    def test_kind_collision_rejected(self, registry):
        registry.counter("t_kind_total")
        with pytest.raises(ValueError):
            registry.gauge("t_kind_total")

    def test_reset_zeroes_but_keeps_registration(self, registry):
        c = registry.counter("t_reset_total", labels=("k",))
        c.labels("x").inc(5)
        registry.reset()
        assert c.labels("x").value == 0
        assert registry.get("t_reset_total") is c

    def test_reset_keeps_a_held_child_registered(self):
        # a call site that bound its child once (each engine rule holds
        # its grb_dispatch_total child) keeps counting into the registry
        child = metrics.counter("t_held_total", labels=("k",)).labels("x")
        child.inc(5)
        obs.reset()
        child.inc()
        assert 't_held_total{k="x"} 1\n' in obs.prometheus_text()


class TestGaugeHistogram:
    def test_gauge_set_inc_dec(self, registry):
        g = registry.gauge("t_depth")
        g.set(7)
        g.inc()
        g.dec(3)
        assert g.value == 5

    def test_histogram_buckets(self, registry):
        h = registry.histogram("t_lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        snap = h.labels().snapshot()
        assert snap["count"] == 4
        assert snap["counts"] == [1, 2, 1]   # ≤0.1, ≤1.0, +Inf
        assert snap["sum"] == pytest.approx(6.05)


class TestKillSwitch:
    def test_disabled_bumps_are_noops(self, registry, monkeypatch):
        c = registry.counter("t_off_total")
        h = registry.histogram("t_off_lat")
        g = registry.gauge("t_off_depth")
        monkeypatch.setattr(metrics, "ENABLED", False)
        c.inc()
        h.observe(1.0)
        g.set(9)
        assert c.value == 0
        assert h.labels().snapshot()["count"] == 0
        assert g.value == 0

    @pytest.mark.parametrize("layer", ("engine", "serve", "road"))
    def test_always_on_tier_holds_parity(self, layer, kron_small, road_small):
        """Ratio guard on the no-subscriber cost contract: a workload of
        each instrumented layer as shipped (counters live, no trace sink,
        no profiling) against itself with the switch thrown, where every
        site is its bare guard.  kron-small triangle counting and a
        32-source serve burst (measured cost 1 % and 3 %; asserted: under
        a fifth), and road-small delta-stepping SSSP, hundreds of
        near-empty levels where per-dispatch and per-write cost is all
        there is (measured cost 1–4 %; asserted: under a tenth)."""
        g = kron_small
        burst = [serve.BFSLevels(int(s)) for s in _sources(g, 32)]

        with serve.GraphService(max_workers=2, cache_capacity=0) as svc:
            svc.register("kron", g)
            work, reps, floor = {
                "engine": (lambda: lg.triangle_count(g, presort=None), 3,
                           1 / 1.2),
                "serve": (lambda: svc.query_many("kron", burst), 1, 1 / 1.2),
                "road": (lambda: lg.sssp_delta_stepping(road_small, 0), 4,
                         1 / 1.1),
            }[layer]
            killed = mock.patch.object(metrics, "ENABLED", False)(work)
            work()
            killed()
            assert ab_ratio(work, killed, reps) >= floor


class TestPrometheusText:
    def test_counter_and_labels(self, registry):
        c = registry.counter("t_req_total", "requests", labels=("op",))
        c.labels("mxm").inc(2)
        text = obs.prometheus_text(registry)
        assert "# HELP t_req_total requests" in text
        assert "# TYPE t_req_total counter" in text
        assert 't_req_total{op="mxm"} 2' in text

    def test_histogram_series_cumulative(self, registry):
        h = registry.histogram("t_sec", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = obs.prometheus_text(registry)
        assert 't_sec_bucket{le="0.1"} 1' in text
        assert 't_sec_bucket{le="1.0"} 2' in text
        assert 't_sec_bucket{le="+Inf"} 2' in text
        assert "t_sec_count 2" in text

    def test_histogram_label_merge(self, registry):
        h = registry.histogram("t_lbl_sec", labels=("k",), buckets=(1.0,))
        h.labels("a").observe(0.5)
        text = obs.prometheus_text(registry)
        assert 't_lbl_sec_bucket{k="a", le="1.0"} 1' in text


class TestJsonSnapshot:
    def test_snapshot_is_json_serialisable(self, registry):
        registry.counter("t_js_total", labels=("x",)).labels("v").inc()
        registry.histogram("t_js_sec").observe(0.2)
        snap = obs.json_snapshot(registry)
        text = json.dumps(snap)
        back = json.loads(text)
        assert back["metrics"]["t_js_total"]["kind"] == "counter"
        sample = back["metrics"]["t_js_total"]["samples"][0]
        assert sample == {"labels": {"x": "v"}, "value": 1}

    def test_snapshot_includes_plan_cache(self):
        # the engine is imported by the suite; global snapshot carries it
        snap = obs.json_snapshot()
        assert "plan_cache" in snap
        assert set(snap["plan_cache"]) >= {"hits", "misses", "invalidations"}


class TestGlobalRegistryWiring:
    def test_engine_dispatch_counter_registered(self):
        # importing the engine registers the always-on dispatch counter
        import repro.grb  # noqa: F401
        assert metrics.REGISTRY.get("grb_dispatch_total") is not None
        assert metrics.REGISTRY.get("grb_plan_cache_total") is not None

    def test_dispatch_bumps_counter(self, rng):
        import numpy as np

        from repro import grb
        c = metrics.REGISTRY.get("grb_dispatch_total")
        before = sum(ch.value for _, ch in c.samples())
        v = grb.Vector.from_coo([0, 2], np.array([1.0, 2.0]), 5)
        w = grb.Vector(grb.FP64, 5)
        grb.ewise_add(w, v, v, grb.binary.PLUS)
        after = sum(ch.value for _, ch in c.samples())
        assert after > before

    def test_report_returns_text(self):
        text = obs.report(file=False)
        assert text.startswith("== repro.obs report ==")
