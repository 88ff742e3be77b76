"""Serve-layer resilience: deadlines, admission control, validation,
circuit breaking, and degraded serving.

The chaos suite (``tests/chaos``) drives these defenses through injected
faults end to end; this module pins down each primitive's *unit*
semantics — token arithmetic, policy arithmetic, breaker state machine —
plus the service-level contracts that don't need fault injection
(deadline expiry, flush timeout, validation rejection).
"""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from helpers import random_graph_np
from repro import grb
from repro import serve
from repro.grb import cancel
from repro.serve import resilience


@pytest.fixture
def service():
    svc = serve.GraphService(max_workers=2, cache_capacity=64, max_batch=16)
    yield svc
    svc.shutdown()


@pytest.fixture
def graph(rng):
    return random_graph_np(rng, n=40, p=0.1)


# ---------------------------------------------------------------------------
# cancellation tokens
# ---------------------------------------------------------------------------
class TestCancelToken:
    def test_unscoped_checkpoint_is_a_noop(self):
        cancel.checkpoint()     # no token installed: must not raise
        assert cancel.current_token() is None

    def test_expired_deadline_raises(self):
        tok = cancel.CancelToken(deadline=time.monotonic() - 0.1)
        assert tok.expired()
        with cancel.cancel_scope(tok):
            with pytest.raises(cancel.DeadlineExceeded):
                cancel.checkpoint()

    def test_live_deadline_passes(self):
        tok = cancel.CancelToken(deadline=time.monotonic() + 60)
        with cancel.cancel_scope(tok):
            cancel.checkpoint()
            assert cancel.current_token() is tok
        assert cancel.current_token() is None

    def test_explicit_cancel(self):
        tok = cancel.CancelToken()
        tok.cancel()
        with cancel.cancel_scope(tok):
            with pytest.raises(cancel.Cancelled):
                cancel.checkpoint()

    def test_cancel_with_custom_exception(self):
        tok = cancel.CancelToken()
        tok.cancel(RuntimeError("registry torn down"))
        with pytest.raises(RuntimeError, match="registry torn down"):
            tok.check()

    def test_scope_restores_on_exception(self):
        tok = cancel.CancelToken()
        with pytest.raises(ValueError):
            with cancel.cancel_scope(tok):
                raise ValueError("body failed")
        assert cancel.current_token() is None

    def test_none_scope_is_noop(self):
        with cancel.cancel_scope(None):
            cancel.checkpoint()

    def test_remaining(self):
        tok = cancel.CancelToken(deadline=time.monotonic() + 60)
        assert 59 < tok.remaining() <= 60
        assert cancel.CancelToken().remaining() is None

    def test_deadline_exceeded_is_timeout_error(self):
        # callers with generic timeout handling catch the deadline too
        assert issubclass(cancel.DeadlineExceeded, TimeoutError)


class TestKernelCancellation:
    def test_expired_token_aborts_kernels(self, graph):
        """Every instrumented kernel family hits a checkpoint."""
        from repro import lagraph as lg
        tok = cancel.CancelToken(deadline=time.monotonic() - 1.0)
        with cancel.cancel_scope(tok):
            for call in (
                lambda: lg.bfs_level(graph, 0),
                lambda: lg.bfs_parent_push(graph, 0),
                lambda: lg.msbfs_levels(graph, np.array([0, 1])),
                lambda: lg.sssp_bellman_ford(graph, 0),
            ):
                with pytest.raises(cancel.DeadlineExceeded):
                    call()

    def test_pagerank_checkpoint(self, graph):
        from repro import lagraph as lg
        graph.cache_at()
        graph.cache_row_degree()
        tok = cancel.CancelToken(deadline=time.monotonic() - 1.0)
        with cancel.cancel_scope(tok):
            with pytest.raises(cancel.DeadlineExceeded):
                lg.pagerank(graph, variant="gap")


def _poll_stat(svc, field, expect, timeout=5.0):
    """Wait for a stats counter bumped by a future's done-callback (which
    can run a beat after ``result()`` returns on the waiting thread)."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        got = getattr(svc.stats(), field)
        if got == expect:
            return got
        time.sleep(0.005)
    return getattr(svc.stats(), field)


# ---------------------------------------------------------------------------
# service deadlines
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_generous_deadline_succeeds(self, service, graph):
        service.register("g", graph)
        fut = service.submit("g", serve.BFSLevels(0), deadline=30.0)
        assert fut.result(timeout=30) is not None
        assert service.stats().deadline_expired == 0

    def test_expired_deadline_resolves_with_deadline_exceeded(
            self, service, graph):
        service.register("g", graph)
        # hold the drain pool hostage so the deadline lapses in-queue
        gate = threading.Event()
        for _ in range(2):      # max_workers=2
            service._executor.submit(gate.wait)
        try:
            fut = service.submit("g", serve.BFSLevels(1), deadline=0.03)
            with pytest.raises(serve.DeadlineExceeded):
                fut.result(timeout=30)
        finally:
            gate.set()
        assert _poll_stat(service, "deadline_expired", 1) == 1

    def test_default_deadline_applies(self, graph):
        svc = serve.GraphService(max_workers=1, default_deadline=0.02)
        try:
            svc.register("g", graph)
            gate = threading.Event()
            svc._executor.submit(gate.wait)
            try:
                fut = svc.submit("g", serve.BFSLevels(0))
                with pytest.raises(serve.DeadlineExceeded):
                    fut.result(timeout=30)
            finally:
                gate.set()
        finally:
            svc.shutdown()

    def test_mixed_deadlines_do_not_starve_unbounded_waiters(
            self, service, graph):
        """A batch member with no deadline keeps the kernel uncancelled."""
        service.register("g", graph)
        futs = service.submit_many(
            "g", [serve.BFSLevels(s) for s in range(4)])
        more = service.submit_many(
            "g", [serve.BFSLevels(s) for s in range(4, 8)], deadline=30.0)
        for f in futs + more:
            assert f.result(timeout=30) is not None


# ---------------------------------------------------------------------------
# flush timeout
# ---------------------------------------------------------------------------
class TestFlushTimeout:
    def test_flush_timeout_raises(self, service, graph):
        service.register("g", graph)
        gate = threading.Event()
        for _ in range(2):
            service._executor.submit(gate.wait)
        try:
            service.submit("g", serve.BFSLevels(0))
            with pytest.raises(TimeoutError, match="still unresolved"):
                service.flush(timeout=0.05)
        finally:
            gate.set()
        service.flush(timeout=30)   # and a later flush completes normally

    def test_flush_without_timeout_waits(self, service, graph):
        service.register("g", graph)
        service.submit_many("g", [serve.BFSLevels(s) for s in range(6)])
        service.flush(timeout=30)
        assert service.stats().queue_depth == 0


# ---------------------------------------------------------------------------
# validation hardening
# ---------------------------------------------------------------------------
class TestValidation:
    def _bad_graph(self, value):
        from repro import lagraph as lg
        A = grb.Matrix.from_coo([0, 1], [1, 2], [1.0, value], 3, 3)
        return lg.Graph(A, lg.ADJACENCY_DIRECTED)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_register_rejects_non_finite_weights(self, service, bad):
        with pytest.raises(serve.GraphValidationError, match="non-finite"):
            service.register("bad", self._bad_graph(bad))
        assert "bad" not in service.registry

    def test_register_can_skip_validation(self, service):
        service.register("raw", self._bad_graph(np.nan), validate=False)
        assert "raw" in service.registry

    def test_lazy_register_validates(self, service):
        with pytest.raises(serve.GraphValidationError):
            service.submit("lazy", serve.TriangleCount(),
                           graph=self._bad_graph(np.inf))

    def test_boolean_graph_passes(self, service, graph):
        service.register("g", graph)    # unweighted: finite by definition

    def test_unknown_pagerank_variant(self, service, graph):
        service.register("g", graph)
        fut = service.submit("g", serve.PageRank(variant="eigentrust"))
        with pytest.raises(serve.UnknownKernel, match="eigentrust"):
            fut.result(timeout=30)

    def test_unknown_tc_method(self, service, graph):
        service.register("g", graph)
        fut = service.submit("g", serve.TriangleCount(method="nonexistent"))
        with pytest.raises(serve.UnknownKernel, match="nonexistent"):
            fut.result(timeout=30)

    @pytest.mark.parametrize("kw", [
        {"damping": 0.0}, {"damping": 1.5}, {"tol": 0.0}, {"itermax": 0},
    ])
    def test_pagerank_parameter_validation(self, service, graph, kw):
        service.register("g", graph)
        fut = service.submit("g", serve.PageRank(**kw))
        with pytest.raises(serve.GraphValidationError):
            fut.result(timeout=30)

    def test_invalid_query_fails_alone_in_batch(self, service, graph):
        """Validation failure must not poison batch siblings."""
        service.register("g", graph)
        futs = service.submit_many("g", [
            serve.BFSLevels(0),
            serve.BFSLevels(graph.n + 7),   # out of range
            serve.BFSLevels(1),
        ])
        assert futs[0].result(timeout=30) is not None
        with pytest.raises(grb.IndexOutOfBounds):
            futs[1].result(timeout=30)
        assert futs[2].result(timeout=30) is not None


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def _held_service(self, graph, **kw):
        """A service whose drain pool is blocked so the queue fills."""
        svc = serve.GraphService(max_workers=1, **kw)
        svc.register("g", graph)
        gate = threading.Event()
        svc._executor.submit(gate.wait)
        return svc, gate

    def test_reject_policy(self, graph):
        svc, gate = self._held_service(
            graph, max_queue=2, admission_policy="reject")
        try:
            ok = [svc.submit("g", serve.BFSLevels(s)) for s in range(2)]
            shed = svc.submit("g", serve.BFSLevels(2))
            with pytest.raises(serve.ServiceOverloaded):
                shed.result(timeout=30)
            gate.set()
            for f in ok:
                assert f.result(timeout=30) is not None
            assert svc.stats().shed == 1
        finally:
            gate.set()
            svc.shutdown()

    def test_drop_oldest_policy(self, graph):
        svc, gate = self._held_service(
            graph, max_queue=2, admission_policy="drop-oldest")
        try:
            first = svc.submit("g", serve.BFSLevels(0))
            second = svc.submit("g", serve.BFSLevels(1))
            third = svc.submit("g", serve.BFSLevels(2))   # evicts `first`
            with pytest.raises(serve.ServiceOverloaded, match="drop-oldest"):
                first.result(timeout=30)
            gate.set()
            assert second.result(timeout=30) is not None
            assert third.result(timeout=30) is not None
            assert svc.stats().shed == 1
        finally:
            gate.set()
            svc.shutdown()

    def test_block_policy_backpressures(self, graph):
        svc, gate = self._held_service(
            graph, max_queue=1, admission_policy="block")
        try:
            svc.submit("g", serve.BFSLevels(0))
            landed = []

            def blocked_submit():
                landed.append(svc.submit("g", serve.BFSLevels(1)))

            t = threading.Thread(target=blocked_submit)
            t.start()
            t.join(timeout=0.1)
            assert t.is_alive()         # producer is parked on the bound
            gate.set()                  # drain frees a slot
            t.join(timeout=30)
            assert not t.is_alive()
            assert landed[0].result(timeout=30) is not None
        finally:
            gate.set()
            svc.shutdown()

    def test_block_policy_times_out_at_deadline(self, graph):
        svc, gate = self._held_service(
            graph, max_queue=1, admission_policy="block")
        try:
            svc.submit("g", serve.BFSLevels(0))
            fut = svc.submit("g", serve.BFSLevels(1), deadline=0.05)
            with pytest.raises(serve.ServiceOverloaded):
                fut.result(timeout=30)
        finally:
            gate.set()
            svc.shutdown()

    def test_unbounded_queue_never_sheds(self, service, graph):
        service.register("g", graph)
        futs = service.submit_many(
            "g", [serve.BFSLevels(s % graph.n) for s in range(200)])
        for f in futs:
            assert f.result(timeout=60) is not None
        assert service.stats().shed == 0

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            serve.GraphService(max_queue=4, admission_policy="backoff")

    def test_healthz_reports_overload_after_shedding(self, graph):
        svc, gate = self._held_service(
            graph, max_queue=1, admission_policy="reject")
        try:
            svc.submit("g", serve.BFSLevels(0))
            shed = svc.submit("g", serve.BFSLevels(1))
            with pytest.raises(serve.ServiceOverloaded):
                shed.result(timeout=30)
            ok, payload = svc._healthz()
            assert not ok
            assert payload["status"] == "overloaded"
            assert payload["reason"] == "shedding"
        finally:
            gate.set()
            svc.shutdown()

    def test_healthz_ok_when_quiet(self, service, graph):
        service.register("g", graph)
        service.query("g", serve.BFSLevels(0))
        ok, payload = service._healthz()
        assert ok and payload["status"] == "ok"


# ---------------------------------------------------------------------------
# retry policy unit semantics
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_transient_faults_are_retryable(self):
        from repro.testing import faults
        pol = resilience.RetryPolicy()
        assert pol.retryable(faults.TransientFault("x"))
        assert not pol.retryable(faults.FaultInjected("x"))

    def test_deadlines_never_retryable(self):
        pol = resilience.RetryPolicy()
        assert not pol.retryable(cancel.DeadlineExceeded("x"))
        assert not pol.retryable(cancel.Cancelled("x"))
        # even though DeadlineExceeded subclasses TimeoutError
        assert pol.retryable(TimeoutError("socket"))

    def test_backoff_caps_and_jitters(self):
        pol = resilience.RetryPolicy(base=0.1, cap=0.3, jitter_frac=0.5,
                                     seed=42)
        delays = [pol.backoff(k) for k in (1, 2, 3, 4)]
        assert 0.1 <= delays[0] <= 0.15
        assert 0.2 <= delays[1] <= 0.3
        assert 0.3 <= delays[2] <= 0.45      # capped at 0.3 before jitter
        assert 0.3 <= delays[3] <= 0.45

    def test_seeded_jitter_replays(self):
        a = resilience.RetryPolicy(seed=7)
        b = resilience.RetryPolicy(seed=7)
        assert [a.backoff(k) for k in (1, 2, 3)] == \
            [b.backoff(k) for k in (1, 2, 3)]

    def test_custom_classifier_wins(self):
        pol = resilience.RetryPolicy(
            classify=lambda exc: isinstance(exc, KeyError))
        assert pol.retryable(KeyError("x"))
        assert not pol.retryable(ConnectionError("x"))

    def test_attempts_validated(self):
        with pytest.raises(ValueError):
            resilience.RetryPolicy(attempts=0)


# ---------------------------------------------------------------------------
# circuit breaker state machine
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, threshold=3, reset=10.0):
        clock = [0.0]
        br = resilience.CircuitBreaker(threshold, reset,
                                       clock=lambda: clock[0])
        return br, clock

    def test_opens_after_consecutive_failures(self):
        br, _ = self._breaker(threshold=3)
        for _ in range(2):
            br.record_failure()
        assert br.state == resilience.BREAKER_CLOSED and br.allow()
        br.record_failure()
        assert br.state == resilience.BREAKER_OPEN and not br.allow()

    def test_success_resets_the_streak(self):
        br, _ = self._breaker(threshold=3)
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state == resilience.BREAKER_CLOSED

    def test_half_open_single_trial(self):
        br, clock = self._breaker(threshold=1, reset=10.0)
        br.record_failure()
        assert not br.allow()
        clock[0] = 10.0
        assert br.state == resilience.BREAKER_HALF_OPEN
        assert br.allow()           # the one trial
        assert not br.allow()       # concurrent units wait for its verdict

    def test_trial_success_closes(self):
        br, clock = self._breaker(threshold=1, reset=10.0)
        br.record_failure()
        clock[0] = 10.0
        assert br.allow()
        br.record_success()
        assert br.state == resilience.BREAKER_CLOSED and br.allow()

    def test_trial_failure_reopens_for_full_timeout(self):
        br, clock = self._breaker(threshold=1, reset=10.0)
        br.record_failure()
        clock[0] = 10.0
        assert br.allow()
        br.record_failure()
        assert br.state == resilience.BREAKER_OPEN
        clock[0] = 19.0             # < 10s since the re-open
        assert not br.allow()
        clock[0] = 20.0
        assert br.state == resilience.BREAKER_HALF_OPEN

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            resilience.CircuitBreaker(0)


# ---------------------------------------------------------------------------
# degraded serving
# ---------------------------------------------------------------------------
class TestDegradedServing:
    def test_stale_get_prefers_freshest_entry(self):
        cache = serve.LRUCache(8)
        q = serve.TriangleCount()
        cache.put(("g", 0, 1, q), 10)
        cache.put(("g", 0, 3, q), 30)
        cache.put(("g", 0, 2, q), 20)
        cache.put(("other", 0, 9, q), 99)
        assert cache.stale_get("g", q) == (30, 0, 3)
        assert cache.stale_get("g", serve.PageRank()) is None
        assert cache.stale_get("missing", q) is None

    def test_open_breaker_serves_degraded_stale_result(self, graph):
        svc = serve.GraphService(max_workers=2, breaker_threshold=1,
                                 breaker_reset_timeout=3600.0)
        try:
            svc.register("g", graph)
            fresh = svc.query("g", serve.TriangleCount())
            svc.invalidate("g")     # stale-ify the memo entry
            # trip the breaker: poison every TriangleCount kernel unit
            from repro.testing import faults
            with faults.installed(faults.raise_when(
                    "serve-kernel",
                    lambda info: info.get("kernel") == "TriangleCount",
                    exc=faults.FaultInjected)):
                with pytest.raises(faults.FaultInjected):
                    svc.query("g", serve.TriangleCount())
                assert svc.stats().breaker_states["g/TriangleCount"] \
                    == resilience.BREAKER_OPEN
                # breaker now open: the service must answer WITHOUT running
                # the kernel (the injector would raise again if it did)
                got = svc.query("g", serve.TriangleCount())
            assert isinstance(got, serve.DegradedResult)
            assert got.value == fresh
            assert svc.stats().degraded == 1
        finally:
            svc.shutdown()

    def test_open_breaker_fails_fast_without_stale_entry(self, graph):
        svc = serve.GraphService(max_workers=2, breaker_threshold=1,
                                 breaker_reset_timeout=3600.0)
        try:
            svc.register("g", graph)
            from repro.testing import faults
            with faults.installed(faults.raise_when(
                    "serve-kernel",
                    lambda info: info.get("kernel") == "TriangleCount",
                    exc=faults.FaultInjected)):
                with pytest.raises(faults.FaultInjected):
                    svc.query("g", serve.TriangleCount())
                with pytest.raises(serve.CircuitOpen):
                    svc.query("g", serve.TriangleCount())
        finally:
            svc.shutdown()

    def test_degraded_serving_can_be_disabled(self, graph):
        svc = serve.GraphService(max_workers=2, breaker_threshold=1,
                                 breaker_reset_timeout=3600.0,
                                 degraded_serving=False)
        try:
            svc.register("g", graph)
            svc.query("g", serve.TriangleCount())
            svc.invalidate("g")
            from repro.testing import faults
            with faults.installed(faults.raise_when(
                    "serve-kernel",
                    lambda info: info.get("kernel") == "TriangleCount",
                    exc=faults.FaultInjected)):
                with pytest.raises(faults.FaultInjected):
                    svc.query("g", serve.TriangleCount())
                with pytest.raises(serve.CircuitOpen):
                    svc.query("g", serve.TriangleCount())
        finally:
            svc.shutdown()

    def test_breakers_can_be_disabled(self, graph):
        svc = serve.GraphService(max_workers=2, breaker_threshold=None)
        try:
            svc.register("g", graph)
            svc.query("g", serve.BFSLevels(0))
            assert svc.stats().breaker_states == {}
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# stats surface
# ---------------------------------------------------------------------------
class TestStatsSurface:
    def test_new_counters_in_to_dict(self, service, graph):
        service.register("g", graph)
        service.query("g", serve.BFSLevels(0))
        d = service.stats().to_dict()
        for key in ("shed", "retries", "deadline_expired", "quarantined",
                    "degraded", "breaker_states"):
            assert key in d
        assert d["breaker_states"]["g/bfs_levels"] \
            == resilience.BREAKER_CLOSED

    def test_exactly_once_under_deadline_and_worker_race(self, service,
                                                         graph):
        """The reaper and a drain worker racing to resolve one future must
        produce exactly one resolution (Progress guarantee)."""
        service.register("g", graph)
        futs = service.submit_many(
            "g", [serve.BFSLevels(s % graph.n) for s in range(48)],
            deadline=0.02)
        outcomes = []
        for f in futs:
            try:
                outcomes.append(("ok", f.result(timeout=30)))
            except Exception as exc:
                outcomes.append(("err", type(exc).__name__))
        assert len(outcomes) == len(futs)       # nothing hung
        assert all(f.done() for f in futs)

    def test_resolve_is_idempotent(self):
        fut = Future()
        serve.GraphService._resolve(fut, True, 1)
        serve.GraphService._resolve(fut, True, 2)
        serve.GraphService._resolve(fut, False, RuntimeError("late"))
        assert fut.result() == 1
