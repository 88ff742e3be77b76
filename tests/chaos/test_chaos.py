"""The chaos suite: seeded faults driven through the full serving stack.

Every test follows the same shape — install a seeded injector at a real
hook site (kernel dispatch, storage build, drain worker, serve kernel
unit), fire a realistic workload, and assert the three resilience
contracts:

1. **Progress** — every submitted future resolves (result or definite
   error) within the timeout; nothing hangs.
2. **Isolation** — a poisoned query fails alone; its batch siblings get
   correct answers.
3. **Identity for survivors** — whatever completes matches the direct
   ``repro.lagraph`` call bit for bit, faults notwithstanding.

Knobs (read once at import, for the CI matrix):

``REPRO_CHAOS_SEED``
    Seed for every seeded injector and retry-jitter RNG in the run
    (default 0).  Same seed → same fault schedule → same outcome.
``REPRO_CHAOS_DISABLE_ISOLATION=1``
    Builds services with ``isolation=False`` (no bisection).  The
    isolation tests then FAIL — CI runs this configuration expecting a
    non-zero exit, proving the suite actually detects broken isolation
    (same pattern as ``bench.compare --selftest``).
"""

import os
import time

import numpy as np
import pytest

from helpers import random_graph_np
from repro import lagraph as lg
from repro import serve
from repro.serve import resilience
from repro.testing import faults

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
ISOLATION = os.environ.get("REPRO_CHAOS_DISABLE_ISOLATION", "") != "1"


@pytest.fixture(autouse=True)
def _no_leaks():
    yield
    faults.clear()
    assert not faults.ACTIVE


@pytest.fixture
def graph():
    return random_graph_np(np.random.default_rng(SEED), n=40, p=0.1)


def _service(**kw):
    kw.setdefault("max_workers", 4)
    kw.setdefault("isolation", ISOLATION)
    kw.setdefault("retry_policy", resilience.RetryPolicy(seed=SEED))
    return serve.GraphService(**kw)


def _collect(futs, timeout=30):
    """Every future must resolve within ``timeout`` — the no-hung-futures
    assertion lives here."""
    outcomes = []
    for f in futs:
        try:
            outcomes.append(("ok", f.result(timeout=timeout)))
        except Exception as exc:
            outcomes.append(("err", exc))
    assert all(f.done() for f in futs), "chaos run left unresolved futures"
    return outcomes


# ---------------------------------------------------------------------------
# transient faults: retries clear them
# ---------------------------------------------------------------------------
class TestTransientFaults:
    def test_single_transient_fault_is_retried_to_success(self, graph):
        svc = _service()
        try:
            svc.register("g", graph)
            inj = faults.raise_on_nth("serve-kernel", 1)
            with faults.installed(inj):
                fut = svc.submit("g", serve.BFSLevels(0))
                [(kind, got)] = _collect([fut])
            assert inj.fired == 1
            assert kind == "ok" and got.isequal(lg.bfs_level(graph, 0))
            assert svc.stats().retries == 1
        finally:
            svc.shutdown()

    def test_seeded_fault_storm_every_future_resolves(self, graph):
        """20% of serve kernel units fail transiently; retries and
        bisection keep every future live, and survivors are exact."""
        svc = _service()
        try:
            svc.register("g", graph)
            inj = faults.seeded_faults("serve-kernel", seed=SEED, rate=0.2)
            with faults.installed(inj):
                futs = svc.submit_many(
                    "g", [serve.BFSLevels(s % graph.n) for s in range(48)])
                outcomes = _collect(futs, timeout=60)
            assert len(outcomes) == 48
            for (kind, got), s in zip(outcomes, range(48)):
                if kind == "ok":
                    assert got.isequal(lg.bfs_level(graph, s % graph.n))
                else:
                    assert isinstance(got, faults.TransientFault)
        finally:
            svc.shutdown()

    def test_same_seed_same_fault_schedule(self, graph):
        """The whole chaos run replays: same seed, same per-future
        outcome kinds."""
        def run():
            svc = _service(max_workers=1)
            try:
                svc.register("g", graph)
                inj = faults.seeded_faults("serve-kernel", seed=SEED,
                                           rate=0.3)
                with faults.installed(inj):
                    futs = svc.submit_many(
                        "g", [serve.BFSLevels(s % graph.n)
                              for s in range(24)])
                    return [kind for kind, _ in _collect(futs, timeout=60)]
            finally:
                svc.shutdown()

        assert run() == run()

    def test_kernel_site_transients_inside_engine(self, graph):
        """Faults at the engine dispatch site (inside the kernel, below
        the serve layer) still resolve every future."""
        svc = _service()
        try:
            svc.register("g", graph)
            inj = faults.seeded_faults("kernel", seed=SEED, rate=0.05)
            with faults.installed(inj):
                futs = svc.submit_many(
                    "g", [serve.BFSLevels(s % graph.n) for s in range(16)])
                outcomes = _collect(futs, timeout=60)
            for (kind, got), s in zip(outcomes, range(16)):
                if kind == "ok":
                    assert got.isequal(lg.bfs_level(graph, s % graph.n))
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# failure isolation (the CI self-check flips ISOLATION off and expects
# these to fail)
# ---------------------------------------------------------------------------
class TestIsolation:
    POISON = 13

    def _poison(self):
        """Permanent fault for any serve kernel unit containing the
        poisoned source — batched, bisected halves, or singleton."""
        return faults.raise_when(
            "serve-kernel",
            lambda info: any(getattr(q, "source", None) == self.POISON
                             for q in info.get("queries", ())),
            exc=faults.FaultInjected)

    def test_poisoned_query_fails_alone(self, graph):
        svc = _service()
        try:
            svc.register("g", graph)
            sources = [3, 7, self.POISON, 21, 28, 35, 5, 11]
            with faults.installed(self._poison()):
                futs = svc.submit_many(
                    "g", [serve.BFSLevels(s) for s in sources])
                outcomes = _collect(futs, timeout=60)
            for (kind, got), s in zip(outcomes, sources):
                if s == self.POISON:
                    assert kind == "err", \
                        "poisoned query must fail"
                    assert isinstance(got, faults.FaultInjected)
                else:
                    assert kind == "ok", \
                        f"innocent sibling {s} caught the poison"
                    assert got.isequal(lg.bfs_level(graph, s))
            assert svc.stats().quarantined == 1
        finally:
            svc.shutdown()

    def test_poison_quarantined_across_waves(self, graph):
        """Repeated batches with the poison present: siblings keep
        answering every wave (memo cache off-path via invalidate)."""
        svc = _service()
        try:
            svc.register("g", graph)
            with faults.installed(self._poison()):
                for _wave in range(3):
                    svc.invalidate("g")
                    futs = svc.submit_many(
                        "g", [serve.BFSLevels(s)
                              for s in (2, self.POISON, 31)])
                    outcomes = _collect(futs, timeout=60)
                    kinds = [k for k, _ in outcomes]
                    assert kinds == ["ok", "err", "ok"]
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# deadlines under latency chaos
# ---------------------------------------------------------------------------
class TestDeadlineChaos:
    def test_slow_kernels_expire_cleanly(self, graph):
        """100ms injected kernel latency against 30ms budgets: requests
        resolve with DeadlineExceeded on time, nothing hangs."""
        svc = _service(max_workers=2)
        try:
            svc.register("g", graph)
            with faults.installed(
                    faults.latency("serve-kernel", 0.1)):
                futs = svc.submit_many(
                    "g", [serve.BFSLevels(s) for s in range(8)],
                    deadline=0.03)
                t0 = time.monotonic()
                outcomes = _collect(futs, timeout=30)
                elapsed = time.monotonic() - t0
            assert any(kind == "err" and
                       isinstance(got, serve.DeadlineExceeded)
                       for kind, got in outcomes)
            # the reaper honoured the budgets: nowhere near 8 × 100ms
            assert elapsed < 5.0
        finally:
            svc.shutdown()

    def test_generous_deadlines_survive_latency(self, graph):
        svc = _service(max_workers=2)
        try:
            svc.register("g", graph)
            with faults.installed(
                    faults.latency("serve-kernel", 0.02)):
                futs = svc.submit_many(
                    "g", [serve.BFSLevels(s) for s in range(6)],
                    deadline=30.0)
                outcomes = _collect(futs, timeout=60)
            for (kind, got), s in zip(outcomes, range(6)):
                assert kind == "ok"
                assert got.isequal(lg.bfs_level(graph, s))
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# circuit breaker under sustained failure
# ---------------------------------------------------------------------------
class TestBreakerChaos:
    def test_breaker_opens_then_recovers(self, graph):
        svc = _service(breaker_threshold=2, breaker_reset_timeout=0.2,
                       isolation=True)
        try:
            svc.register("g", graph)
            permafault = faults.raise_when(
                "serve-kernel",
                lambda info: info.get("kernel") == "TriangleCount",
                exc=faults.FaultInjected)
            with faults.installed(permafault):
                for _ in range(2):
                    svc.invalidate("g")
                    with pytest.raises(faults.FaultInjected):
                        svc.query("g", serve.TriangleCount())
                assert svc.stats().breaker_states["g/TriangleCount"] \
                    == resilience.BREAKER_OPEN
                # open: fail fast, no kernel run (no stale entry yet)
                svc.invalidate("g")
                with pytest.raises(serve.CircuitOpen):
                    svc.query("g", serve.TriangleCount())
            # fault gone; after the reset timeout the half-open trial
            # succeeds and the breaker closes
            time.sleep(0.25)
            got = svc.query("g", serve.TriangleCount())
            assert got == lg.triangle_count_basic(graph)
            assert svc.stats().breaker_states["g/TriangleCount"] \
                == resilience.BREAKER_CLOSED
        finally:
            svc.shutdown()

    def test_healthy_kernels_unaffected_by_open_breaker(self, graph):
        """Breakers are per-(graph, kernel): TriangleCount being fused
        off must not block BFS."""
        svc = _service(breaker_threshold=1, breaker_reset_timeout=3600.0)
        try:
            svc.register("g", graph)
            with faults.installed(faults.raise_when(
                    "serve-kernel",
                    lambda info: info.get("kernel") == "TriangleCount",
                    exc=faults.FaultInjected)):
                with pytest.raises(faults.FaultInjected):
                    svc.query("g", serve.TriangleCount())
                got = svc.query("g", serve.BFSLevels(0))
            assert got.isequal(lg.bfs_level(graph, 0))
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# admission shedding under load
# ---------------------------------------------------------------------------
class TestSheddingChaos:
    def test_overload_sheds_and_recovers(self, graph):
        """Slow kernels + a tiny queue: the service sheds instead of
        queueing unboundedly, flags /healthz, and every future resolves."""
        svc = _service(max_workers=1, max_queue=4,
                       admission_policy="reject")
        try:
            svc.register("g", graph)
            with faults.installed(faults.latency("serve-kernel", 0.03)):
                futs = [svc.submit("g", serve.BFSLevels(s % graph.n))
                        for s in range(32)]
                outcomes = _collect(futs, timeout=60)
            kinds = [k for k, _ in outcomes]
            assert "err" in kinds       # something was shed...
            assert "ok" in kinds        # ...but the service kept serving
            for kind, got in outcomes:
                if kind == "err":
                    assert isinstance(got, serve.ServiceOverloaded)
            assert svc.stats().shed == kinds.count("err")
            ok, payload = svc._healthz()
            assert not ok and payload["reason"] == "shedding"
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# storage / drain / memory-pressure sites
# ---------------------------------------------------------------------------
class TestOtherSites:
    def test_storage_fault_does_not_hang(self, rng):
        svc = _service()
        try:
            g = random_graph_np(rng, n=40, p=0.1, weighted=True)
            svc.register("w", g)
            inj = faults.seeded_faults("storage", seed=SEED, rate=0.1)
            with faults.installed(inj):
                futs = svc.submit_many(
                    "w", [serve.SSSP(s % g.n) for s in range(12)])
                outcomes = _collect(futs, timeout=60)
            for (kind, got), s in zip(outcomes, range(12)):
                if kind == "ok":
                    assert got.isequal(lg.sssp_bellman_ford(g, s % g.n))
        finally:
            svc.shutdown()

    def test_drain_fault_fails_whole_batch_with_definite_error(self, graph):
        """A drain-infrastructure fault has no per-query blame: the batch
        fails together — but resolves together, too."""
        svc = _service(retry_policy=None)
        try:
            svc.register("g", graph)
            inj = faults.raise_when("drain", lambda info: True,
                                    exc=faults.FaultInjected)
            with faults.installed(inj):
                futs = svc.submit_many(
                    "g", [serve.BFSLevels(s) for s in range(6)])
                outcomes = _collect(futs, timeout=30)
            for kind, got in outcomes:
                assert kind == "err"
                assert isinstance(got, faults.FaultInjected)
        finally:
            svc.shutdown()

    def test_memory_pressure_leaves_results_exact(self, graph):
        svc = _service()
        try:
            svc.register("g", graph)
            inj = faults.memory_pressure("serve-kernel", 4 << 20)
            with faults.installed(inj):
                futs = svc.submit_many(
                    "g", [serve.BFSLevels(s) for s in range(6)])
                outcomes = _collect(futs, timeout=60)
            assert inj.fired >= 1
            for (kind, got), s in zip(outcomes, range(6)):
                assert kind == "ok"
                assert got.isequal(lg.bfs_level(graph, s))
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# the no-fault overhead contract
# ---------------------------------------------------------------------------
class TestNoFaultOverhead:
    def test_disabled_harness_never_enters_fire(self, graph, monkeypatch):
        """With no injector installed, hook sites must not even call
        ``faults.fire`` — the disabled path is one module-global bool
        read, which is how the ≤2% no-fault overhead budget is kept."""
        assert not faults.ACTIVE

        def tripwire(site, **info):     # pragma: no cover - must not run
            raise AssertionError(
                f"faults.fire({site!r}) called with no injector installed")

        monkeypatch.setattr(faults, "fire", tripwire)
        svc = serve.GraphService(max_workers=2)
        try:
            svc.register("g", graph)
            got = svc.query("g", serve.BFSLevels(0))
            assert got.isequal(lg.bfs_level(graph, 0))
        finally:
            svc.shutdown()

    def test_unscoped_checkpoint_cost_is_bounded(self):
        """The cancellation checkpoint with no token is a ContextVar read
        plus a None check — cheap enough for per-iteration use.  Bound it
        loosely (100 ns × 10⁵ calls ≪ 1 s even on a loaded CI box)."""
        from repro.grb import cancel
        t0 = time.perf_counter()
        for _ in range(100_000):
            cancel.checkpoint()
        assert time.perf_counter() - t0 < 1.0

