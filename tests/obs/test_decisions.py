"""Planner decision records: one channel, one gate, context-local sinks.

The contract (docs/OBSERVABILITY.md): every planner decision — a
dispatch's claiming rule, a ``choose_direction`` call — is one dict handed to :func:`repro.obs.decision`, built only while
:func:`repro.obs.deciding` holds, and readable from the installed
``TraceCollector``.  ``TestContract`` walks every registered rule; the
isolation cases pin that sinks are context-local — a plain thread sees
none, ``obs.propagate`` and serve drain workers carry the submitter's.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import grb, obs
from repro.grb import engine
from repro.grb.engine import cost, plancache
from repro.grb.engine.plan import Plan
from repro.grb.engine.rules import _REGISTRY

N = 24
PLUS_TIMES = grb.semiring_by_name("plus.times")
MIN_PLUS = grb.semiring_by_name("min.plus")
PLUS_PAIR = grb.semiring_by_name("plus.pair")


def _matrix(seed=0, density=0.3):
    rng = np.random.default_rng(seed)
    dense = (rng.random((N, N)) < density) * rng.integers(1, 5, (N, N))
    r, c = np.nonzero(dense)
    return grb.Matrix.from_coo(r, c, dense[r, c].astype(np.float64), N, N)


def _vector(seed=1, density=0.9):
    rng = np.random.default_rng(seed)
    idx = np.flatnonzero(rng.random(N) < density)
    return grb.Vector.from_coo(idx, rng.integers(1, 5, idx.size)
                               .astype(np.float64), N)


# ---------------------------------------------------------------------------
# one driver per (op, rule): a callable making exactly one dispatch that the
# named rule claims.  mxm is routed through the cost constants, the way the
# parity suite steers it; every other kind is pinned with force_rule.  ``_matrix()`` holds more entries than it
# has columns, so as a left operand it sits above ``mxm-small-expand``'s
# O(1) gate and the rules behind it still own the product; that rule's own
# driver multiplies by a one-entry left operand instead.
# ---------------------------------------------------------------------------

def _mxm(sr, *, mask=None, left=None, **costs):
    def drive(mp):
        for name, value in costs.items():
            mp.setattr(cost, name, value)
        b = _matrix()
        a = b if left is None else left()
        assert (a.nvals > b.ncols) == (left is None)
        c = grb.Matrix(grb.FP64, N, N)
        return lambda: grb.mxm(c, a, b, sr,
                               mask=None if mask is None else mask(b))
    return drive


_DOT = dict(MASKED_MIN_NNZ=0, DOT_PROBE_COST=0.0)


def _forced(op, rule, call):
    def drive(mp):
        def run():
            with engine.force_rule(op, rule):
                call()
        return run
    return drive


def _mxv_fused_dense_accum():
    w = grb.Vector.from_dense(np.ones(N))
    grb.mxv(w, _matrix(), grb.Vector.from_dense(np.ones(N)),
            grb.semiring_by_name("plus.second"), accum=grb.binary.PLUS)


def _ewise(fn, fmt):
    a, b = _matrix(0).set_format(fmt), _matrix(1).set_format(fmt)
    fn(grb.Matrix(grb.FP64, N, N), a, b, grb.binary.PLUS)


DRIVERS = {
    ("mxm", "mxm-small-expand"): _mxm(
        PLUS_TIMES, left=lambda: grb.Matrix.from_coo([0], [0], [2.0], N, N)),
    ("mxm", "mxm-masked-dot"): _mxm(PLUS_PAIR, mask=grb.structure, **_DOT),
    ("mxm", "mxm-scipy"): _mxm(PLUS_TIMES),
    ("mxm", "mxm-expand"): _mxm(MIN_PLUS),
    ("mxv", "mxv-fused-dense-accum"): _forced(
        "mxv", "mxv-fused-dense-accum", _mxv_fused_dense_accum),
    ("mxv", "mxv-gather"): _forced(
        "mxv", "mxv-gather",
        lambda: grb.mxv(grb.Vector(grb.FP64, N), _matrix(), _vector(),
                        MIN_PLUS)),
    ("vxm", "vxm-sparse-push"): _forced(
        "vxm", "vxm-sparse-push",
        lambda: grb.vxm(grb.Vector(grb.FP64, N), _vector(), _matrix(),
                        MIN_PLUS)),
    ("ewise_add", "ewise-union"): _forced(
        "ewise_add", "ewise-union",
        lambda: _ewise(grb.ewise_add, "bitmap")),
    ("ewise_mult", "ewise-intersect"): _forced(
        "ewise_mult", "ewise-intersect",
        lambda: grb.ewise_mult(grb.Matrix(grb.FP64, N, N), _matrix(0),
                               _matrix(1).set_format("bitmap"),
                               grb.binary.PLUS)),
    ("apply", "apply-entrywise"): _forced(
        "apply", "apply-entrywise",
        lambda: grb.apply(grb.Vector(grb.FP64, N), _vector(),
                          grb.unary.AINV)),
    ("select", "select-entrywise"): _forced(
        "select", "select-entrywise",
        lambda: grb.select(grb.Matrix(grb.FP64, N, N), _matrix(),
                           grb.selectops.TRIL, 0)),
    ("update", "update-write"): _forced(
        "update", "update-write",
        lambda: grb.update(grb.Vector(grb.FP64, N), _vector())),
    ("assign", "assign-region"): _forced(
        "assign", "assign-region",
        lambda: grb.assign(grb.Vector(grb.FP64, N), _vector())),
    ("assign_scalar", "assign-scalar-region"): _forced(
        "assign_scalar", "assign-scalar-region",
        lambda: grb.assign_scalar(grb.Vector(grb.FP64, N), 1.0)),
}


@pytest.fixture
def poisoned(monkeypatch):
    """With no sink, building a record (or delivering one) is a bug."""
    def boom(*a, **k):
        raise AssertionError("decision record built with no sink installed")
    monkeypatch.setattr(Plan, "describe", boom)
    monkeypatch.setattr(obs.profile, "decision", boom)


class TestContract:
    def test_every_registered_rule_has_a_driver(self):
        registered = {(op, r.name) for op, rules in _REGISTRY.items()
                      for r in rules}
        assert registered == set(DRIVERS)

    @pytest.mark.parametrize("op,rule", sorted(DRIVERS))
    def test_one_dispatch_one_record(self, op, rule, monkeypatch):
        run = DRIVERS[op, rule](monkeypatch)
        plancache.clear()
        outcomes = []
        for _ in range(2):
            with obs.tracing() as trace:
                run()
            (e,) = trace.decisions()
            assert e["op"] == op and e["rule"] == rule
            outcomes.append(e.get("plan_cache"))
        # only the masked-dot analysis is memoized (on the mask), so only
        # its records say whether the memo served it
        analysed = rule == "mxm-masked-dot"
        assert outcomes == (["miss", "hit"] if analysed else [None, None])

    @pytest.mark.parametrize("op,rule", sorted(DRIVERS))
    def test_no_sink_no_record(self, op, rule, monkeypatch, poisoned):
        DRIVERS[op, rule](monkeypatch)()

    def test_choose_direction_one_record(self):
        with obs.tracing() as trace:
            assert engine.choose_direction(1.0, 1e9, 1, 1000) == "push"
            assert engine.choose_direction(1e9, 1.0, 999, 1000) == "pull"
        push, pull = trace.decisions()
        assert push["op"] == pull["op"] == "bfs_step"
        assert (push["rule"], push["direction"]) == ("bfs-push", "push")
        assert (pull["rule"], pull["direction"]) == ("bfs-pull", "pull")

    def test_choose_direction_no_sink_no_record(self, poisoned):
        assert engine.choose_direction(1.0, 1e9, 1, 1000) == "push"


# ---------------------------------------------------------------------------
# isolation: sinks are context-local
# ---------------------------------------------------------------------------

def _work():
    a = grb.Matrix.from_coo([0, 1], [1, 0], [1.0, 1.0], 2, 2)
    u = grb.Vector.from_coo([0], [1.0], 2)
    w = grb.Vector(grb.FP64, 2)
    grb.mxv(w, a, u, PLUS_TIMES)
    return w


def _in_thread(target):
    t = threading.Thread(target=target)
    t.start()
    t.join(30)
    assert not t.is_alive()


class TestIsolation:
    def test_plain_thread_has_no_sink_by_design(self):
        seen = []

        def worker():
            seen.append(obs.deciding())
            obs.decision({"op": "stray"})      # must go nowhere
            _work()

        with obs.tracing() as trace:
            _in_thread(worker)
            obs.decision({"op": "mine"})
        assert seen == [False]
        assert trace.decisions() == [{"op": "mine"}]

    def test_propagate_carries_the_sink(self):
        with obs.tracing() as trace:
            _in_thread(obs.propagate(_work))
        assert trace.decisions("mxv")

    def test_snapshot_taken_at_wrap_time(self):
        """The snapshot is the *wrapping* context: installing a sink after
        wrapping does not leak into the propagated callable."""
        wrapped = obs.propagate(_work)         # no sink active here
        with obs.tracing() as trace:
            _in_thread(wrapped)
        assert trace.decisions() == []

    def test_concurrent_invocations_do_not_contend(self):
        """Each call runs under its own copy of the snapshot — a shared
        ``Context`` object would raise ``cannot enter context`` here."""
        errors = []
        with obs.tracing() as trace:
            wrapped = obs.propagate(_work)

        def call():
            try:
                wrapped()
            except Exception as exc:           # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert errors == [] and not any(t.is_alive() for t in threads)
        assert len(trace.decisions("mxv")) == 4        # all four delivered

    def test_sinks_installed_inside_do_not_leak_out(self):
        inner = obs.TraceCollector()

        def work():
            obs.trace._sink_var.set(inner)     # never reset: the copy dies
            _work()

        obs.propagate(work)()
        assert inner.decisions("mxv")
        assert not obs.deciding()              # wrapper context was a copy

    def test_force_rule_pins_propagate_too(self):
        """propagate carries every context-local of the package — a pinned
        planner rule included."""
        seen = []

        def work():
            with obs.tracing() as trace:
                _work()
            seen.extend(e["rule"] for e in trace.decisions("mxv"))

        with engine.force_rule("mxv", "mxv-gather"):
            _in_thread(obs.propagate(work))
        assert seen == ["mxv-gather"]
        np.testing.assert_array_equal(_work().to_dense(), [0.0, 1.0])

    def test_serve_submissions_see_only_their_own_records(self):
        """Two concurrent submitters with different collectors each
        observe exactly their own query's planner decisions: the drain
        worker runs each kernel under its submitter's context."""
        from repro.gap import datasets
        from repro.serve import GraphService, PageRank

        g = datasets.build("kron", "tiny")
        svc = GraphService(cache_capacity=0, max_workers=2)
        svc.register("g", g)
        out = {}
        barrier = threading.Barrier(2)

        def submit(tag, itermax):
            with obs.tracing() as trace:
                barrier.wait(30)
                svc.submit("g", PageRank(itermax=itermax)).result(60)
            out[tag] = trace.decisions()

        t1 = threading.Thread(target=submit, args=("a", 3))
        t2 = threading.Thread(target=submit, args=("b", 5))
        t1.start(), t2.start()
        t1.join(90), t2.join(90)
        svc.shutdown()
        assert not (t1.is_alive() or t2.is_alive())
        # each submitter saw decisions (its kernel ran under its context)
        # and the two streams never interleaved: every record belongs to
        # exactly one collector
        assert out["a"] and out["b"]
        assert not ({id(e) for e in out["a"]} & {id(e) for e in out["b"]})
