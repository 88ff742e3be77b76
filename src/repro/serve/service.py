"""`GraphService` — the concurrent graph-analytics serving engine.

Request lifecycle::

    submit(name, query, deadline=...)
      ├─ memo-cache hit?  → future resolved immediately
      ├─ admission control (bounded queue; reject / drop-oldest / block)
      └─ miss → CoalescingQueue → drain task on the pool
                  ├─ plan_batches(): group by (graph, coalesce-tag),
                  │   dedupe identical queries, chunk to max_batch
                  └─ per batch: re-check cache, breaker, then one
                      kernel unit (msbfs for a BFS group, however many
                      sources it holds; the query's direct lagraph call
                      otherwise) with retry + bisect isolation,
                      fan results out to every waiting future

Three guarantees:

* **Identity** — every answer is bit-identical to the direct
  :mod:`repro.lagraph` call the query documents (batched rows are
  bit-identical to per-source sweeps; see
  :mod:`repro.lagraph.algorithms.msbfs`).  Degraded answers — stale memo
  entries served while a circuit breaker is open — are the one marked
  exception: they arrive wrapped in
  :class:`~repro.serve.resilience.DegradedResult`.
* **Freshness** — results are computed against, and cached under, the
  graph's ``(epoch, version)`` snapshot taken at execution time, so a
  ``invalidate()``/``update()`` can never be answered with stale entries
  (the version bump changes the cache key).
* **Progress** — every submitted future is eventually resolved with a
  result or an exception: a kernel failure is bisected down to the
  offending query (innocent batch siblings are retried), an expired
  deadline resolves with :class:`DeadlineExceeded` (the reaper thread
  enforces this even while the kernel is still running), and a shed
  request resolves with :class:`ServiceOverloaded`.  Nothing ever hangs.

The resilience vocabulary (deadlines, admission policies, retry policy,
circuit breakers, fault injection) is documented in
``docs/RESILIENCE.md``; the primitives live in
:mod:`repro.serve.resilience` and :mod:`repro.grb.cancel`.

Throughput notes: batching is the dominant win (one interpreter-level
kernel drive for dozens of traversals); the thread pool additionally
overlaps the NumPy/SciPy sections that release the GIL.  Submissions made
while a drain is in flight simply land in the next drain — callers never
block on each other (except under the ``block`` admission policy, which
is backpressure by design).
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait as _wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..grb import engine
from ..grb.cancel import CancelToken, Cancelled, DeadlineExceeded, \
    cancel_scope
from ..lagraph.graph import Graph
from ..obs import http as _obshttp
from ..obs import identity as _identity
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..testing import faults as _faults
from .cache import LRUCache
from .coalesce import Batch, CoalescingQueue, PendingRequest, plan_batches
from .registry import GraphRegistry
from .requests import Query
from . import resilience
from .resilience import (
    CircuitBreaker,
    CircuitOpen,
    DegradedResult,
    GraphValidationError,
    RetryPolicy,
    ServiceOverloaded,
)

__all__ = ["GraphService", "ServiceStats"]

# always-on serve metrics (the registry-level twins of ServiceStats)
_REQUESTS = _metrics.counter(
    "serve_requests_total", "Requests by outcome event",
    labels=("event",))
_BATCH_SIZE = _metrics.histogram(
    "serve_batch_size", "Queries answered per executed batch",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128))
#: Serve latency buckets — finer at the low end than the kernel-latency
#: defaults, because memo hits resolve in tens of microseconds.
SERVE_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)
_LATENCY = _metrics.histogram(
    "serve_request_latency_seconds", "Submit-to-resolution latency",
    buckets=SERVE_LATENCY_BUCKETS)

#: Latency samples kept per service for the percentile snapshot (a plain
#: bounded reservoir: old samples age out FIFO — recent behaviour is what
#: p99 is for).
_LATENCY_WINDOW = 4096

#: Deadline-reaper wakeup interval: the reaper thread only runs while
#: deadline-carrying requests are in flight, and resolves expired futures
#: within roughly this bound even when the kernel is mid-iteration.
_REAPER_INTERVAL = 0.01

#: ``/healthz`` reports overloaded for this long after a shed — "sustained
#: overload" smoothing so a load balancer sees more than a one-poll blip.
_OVERLOAD_WINDOW = 5.0


def _percentile(sorted_samples: List[float], q: float) -> float:
    if not sorted_samples:
        return 0.0
    i = min(len(sorted_samples) - 1,
            max(0, round(q * (len(sorted_samples) - 1))))
    return sorted_samples[i]


@dataclass
class ServiceStats:
    """Aggregate counters for one service instance.

    The monotonic counters are maintained under the service lock; the
    rest are snapshot-time derivations :meth:`GraphService.stats` fills
    in — queue state, the batch-size histogram, request-latency
    percentiles over the recent window, and the process-global counters
    of the masked-dot analysis memo (:mod:`repro.grb.engine.plancache`).
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cache_hits: int = 0          # fast-path + drain-time hits
    batches: int = 0             # kernel-level units of work executed
    kernel_calls: int = 0        # actual algorithm invocations (all kinds)
    coalesced_calls: int = 0     # kernel calls that served a coalescible group
    coalesced_sources: int = 0   # sources answered through those calls
    deduplicated: int = 0        # futures resolved by sharing another's result
    shed: int = 0                # requests refused/dropped by admission control
    retries: int = 0             # kernel-unit retry attempts
    deadline_expired: int = 0    # futures resolved with DeadlineExceeded
    quarantined: int = 0         # queries isolated as batch-poisoning failures
    degraded: int = 0            # stale answers served while a breaker was open
    queue_depth: int = 0         # pending requests right now
    queue_depth_peak: int = 0    # highest depth ever seen at enqueue
    batch_size_hist: Dict[int, int] = field(default_factory=dict)
    latency_count: int = 0       # samples in the percentile window
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    breaker_states: Dict[str, str] = field(default_factory=dict)
    plan_cache: Optional[object] = None   # engine PlanCacheStats snapshot

    @property
    def kernel_calls_saved(self) -> int:
        """BFS sweeps avoided by batching (queries that are never
        batched — SSSP and the whole-graph kinds — are excluded from both
        sides)."""
        return self.coalesced_sources - self.coalesced_calls

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of submissions answered from the memo cache."""
        return self.cache_hits / self.submitted if self.submitted else 0.0

    @property
    def coalescing_ratio(self) -> float:
        """Sources answered per coalesced kernel call (1.0 = no batching
        win; the msbfs ideal approaches the batch width)."""
        return (self.coalesced_sources / self.coalesced_calls
                if self.coalesced_calls else 0.0)

    def to_dict(self) -> dict:
        """JSON-serialisable form (the ``/stats`` telemetry route)."""
        pc = self.plan_cache
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "batches": self.batches,
            "kernel_calls": self.kernel_calls,
            "coalesced_calls": self.coalesced_calls,
            "coalesced_sources": self.coalesced_sources,
            "deduplicated": self.deduplicated,
            "shed": self.shed,
            "retries": self.retries,
            "deadline_expired": self.deadline_expired,
            "quarantined": self.quarantined,
            "degraded": self.degraded,
            "queue_depth": self.queue_depth,
            "queue_depth_peak": self.queue_depth_peak,
            "batch_size_hist": {str(k): v for k, v
                                in sorted(self.batch_size_hist.items())},
            "latency_count": self.latency_count,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "kernel_calls_saved": self.kernel_calls_saved,
            "memo_hit_rate": self.memo_hit_rate,
            "coalescing_ratio": self.coalescing_ratio,
            "breaker_states": dict(self.breaker_states),
            "plan_cache": ({
                "hits": pc.hits, "misses": pc.misses,
                "entries": pc.entries, "feed_bytes": pc.feed_bytes,
                "hit_rate": pc.hit_rate,
            } if pc is not None else None),
        }


def _copy_result(value):
    """A private copy for each caller: the memo cache keeps the master.

    Vectors/matrices are non-opaque (callers can write their arrays), so
    handing out the cached object would let one caller poison every later
    hit."""
    if hasattr(value, "dup"):
        return value.dup()
    if isinstance(value, tuple):
        return tuple(_copy_result(v) for v in value)
    return value


class GraphService:
    """Serve analytics queries over registered graphs, batching and
    memoizing aggressively.

    Parameters
    ----------
    registry:
        A :class:`GraphRegistry` to serve from (one is created if omitted).
    max_workers:
        Thread-pool width for drain tasks.
    cache_capacity:
        LRU memo capacity in entries (``0`` disables memoization).
    max_batch:
        Maximum sources per multi-source kernel call.
    max_queue:
        Bound on the coalescing queue (``None`` = unbounded, the seed
        behaviour).  Over the bound, ``admission_policy`` applies.
    admission_policy:
        ``"reject"`` (fail the new request with
        :class:`ServiceOverloaded`), ``"drop-oldest"`` (shed the oldest
        queued request), or ``"block"`` (backpressure the submitter).
    default_deadline:
        Relative seconds applied to every submission that does not pass
        its own ``deadline=`` (``None`` = no default budget).
    retry_policy:
        A :class:`~repro.serve.resilience.RetryPolicy`; ``None`` installs
        the default (3 attempts, capped exponential backoff with seeded
        jitter).  Pass ``RetryPolicy(attempts=1)`` to disable retries.
    breaker_threshold / breaker_reset_timeout:
        Per-(graph, kernel) circuit breaker: ``breaker_threshold``
        consecutive kernel-unit failures open it for
        ``breaker_reset_timeout`` seconds.  ``breaker_threshold=None``
        disables breakers entirely.
    isolation:
        When ``True`` (default), a failing coalesced batch is bisected so
        only the offending query fails; ``False`` restores the seed
        fail-the-whole-batch behaviour (the chaos suite's CI self-check
        flips this to prove the suite notices).
    degraded_serving:
        While a breaker is open, serve stale memo entries wrapped in
        :class:`DegradedResult` instead of failing with
        :class:`CircuitOpen` (only when a stale entry exists).
    """

    def __init__(self, registry: Optional[GraphRegistry] = None, *,
                 max_workers: int = 4, cache_capacity: int = 1024,
                 max_batch: int = 64,
                 max_queue: Optional[int] = None,
                 admission_policy: str = resilience.POLICY_REJECT,
                 default_deadline: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 breaker_threshold: Optional[int] = 5,
                 breaker_reset_timeout: float = 30.0,
                 isolation: bool = True,
                 degraded_serving: bool = True):
        self.registry = registry if registry is not None else GraphRegistry()
        self.cache = LRUCache(cache_capacity)
        self.max_batch = int(max_batch)
        self.default_deadline = default_deadline
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_timeout = float(breaker_reset_timeout)
        self.isolation = bool(isolation)
        self.degraded_serving = bool(degraded_serving)
        self._queue = CoalescingQueue(max_queue, admission_policy)
        self._executor = ThreadPoolExecutor(max_workers=max_workers,
                                            thread_name_prefix="graphserve")
        self._lock = threading.Lock()
        self._stats = ServiceStats()
        self._inflight: "set[Future]" = set()
        self._latencies: List[float] = []     # bounded FIFO window
        self._batch_hist: Dict[int, int] = {}
        self._depth_peak = 0
        self._closed = False
        self._breakers: Dict[tuple, CircuitBreaker] = {}
        self._deadlined: Dict[Future, float] = {}   # future → abs deadline
        self._reaper: Optional[threading.Thread] = None
        self._last_shed = 0.0                 # monotonic instant, 0 = never
        self._telemetry_server = None         # obs.http exporter, if started
        self._trace_ring = None               # recent-span ring for /trace
        self._queue_depth_limit: Optional[int] = None   # /healthz threshold

    # ------------------------------------------------------------------
    # registry conveniences
    # ------------------------------------------------------------------
    #: Valid values for ``register(warm=)`` besides the booleans.
    WARM_PROFILES = ("default", "msbfs")

    def register(self, name: str, graph: Graph, *,
                 warm=False, validate: bool = True) -> "GraphService":
        """Bind ``name`` to ``graph``, optionally pre-warming it.

        ``validate=True`` (default) rejects adjacencies with non-finite
        edge weights (NaN/±inf) with a :class:`GraphValidationError` at
        registration time — the alternative is a deep kernel traceback
        (or a silently poisoned distance vector) on the first SSSP that
        touches the bad edge.  Dimension checks (square adjacency)
        already happened in the :class:`~repro.lagraph.graph.Graph`
        constructor.

        ``warm`` selects how much machinery to build at registration time,
        so the first query pays no one-off conversions inside its latency
        budget:

        * ``True`` / ``"default"`` — the pull machinery: cached transpose /
          CSC view and row degrees.  The store's cached CSC view is what
          pull-direction kernels and the masked-SpGEMM engine's ``Bᵀ``
          feed read, so neither pays a conversion on the first query.
        * ``"msbfs"`` — default, plus the all-ones pattern operands the
          batched-frontier ``plus.pair`` multiplies read are pre-built
          (they are cached per store version, see
          :meth:`repro.grb.Matrix.pattern_operand`).  Frontier matrices
          are per-query operands (CSR or bitmap, by density), so the
          adjacency-side operands are what registration can usefully
          pre-build.

        Beyond operand state, a masked product's analysis is memoized on
        its mask (:mod:`repro.grb.engine.plancache`): the first query pays
        the probe counting and the dot kernel's probe stage, and a repeat
        that reads the same operands — the adjacency, or the derived
        operands cached on the graph — re-uses them (see
        :meth:`plan_cache_stats`).
        """
        if validate:
            self._validate_graph(name, graph)
        self.registry.register(name, graph)
        # attribution: memory reports name the graph that holds an
        # operand (repro.obs.identity)
        _identity.register(graph, name)
        if warm:
            self._warm_graph(graph, warm)
        return self

    @staticmethod
    def _validate_graph(name: str, graph: Graph) -> None:
        """Reject graphs no kernel can answer correctly — today that is
        non-finite edge weights (the square/type checks live in the Graph
        constructor)."""
        if not graph.A.values_all_finite():
            raise GraphValidationError(
                f"graph {name!r}: adjacency contains non-finite edge "
                f"weights (NaN/inf); weighted kernels would return "
                f"poisoned distances")

    @staticmethod
    def _warm_graph(graph: Graph, profile) -> None:
        if profile is True:
            profile = "default"
        if profile not in GraphService.WARM_PROFILES:
            raise ValueError(
                f"unknown warm profile {profile!r}; one of "
                f"{GraphService.WARM_PROFILES} (or True/False)")
        graph.cache_at()
        graph.cache_row_degree()
        # pre-plan: build the operand state the engine's preferred rules
        # read (canonical CSR, the CSC/transpose feed of the dot and pull
        # kernels, pattern operands under "msbfs"), so the first query
        # pays no one-off conversions inside its latency budget
        engine.preplan(graph.A, profile=profile)

    def invalidate(self, name: str) -> int:
        """Declare a registered graph mutated (bumps its version)."""
        return self.registry.invalidate(name)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, name: str, query: Query, *,
               graph: Optional[Graph] = None, warm=False,
               deadline: Optional[float] = None) -> Future:
        """Enqueue one query; returns a future for its result.

        ``deadline`` is a relative budget in seconds (default: the
        service's ``default_deadline``); once it passes, the future
        resolves with :class:`DeadlineExceeded` — kernels abort
        cooperatively at their next iteration boundary, and the reaper
        thread resolves the future on time even if they don't.

        ``graph`` enables *lazy registration*: when ``name`` is not yet
        registered, it is bound (and warmed per ``warm`` — same profiles as
        :meth:`register`) before the query is enqueued.  An already
        registered name ignores both arguments, so racing lazy submitters
        agree on whichever binding landed first.
        """
        self._maybe_register(name, graph, warm)
        fut = self._enqueue(name, query, deadline)
        self._kick()
        return fut

    def submit_many(self, name: str, queries: Sequence[Query], *,
                    graph: Optional[Graph] = None, warm=False,
                    deadline: Optional[float] = None) -> List[Future]:
        """Enqueue a whole burst, then schedule a single drain — the
        batching-friendly entry point for bulk workloads.  ``graph`` /
        ``warm`` lazily register as in :meth:`submit`; ``deadline``
        applies to each request individually."""
        self._maybe_register(name, graph, warm)
        futs = [self._enqueue(name, q, deadline) for q in queries]
        self._kick()
        return futs

    def _maybe_register(self, name: str, graph: Optional[Graph],
                        warm) -> None:
        if graph is None or name in self.registry:
            return
        self._validate_graph(name, graph)
        # warm BEFORE publishing: once the name is bound, concurrent
        # queries may execute against the graph, and they must never race
        # the in-place format pin / cache builds (a racing loser warms its
        # own unpublished graph — wasted work, never a hazard)
        if warm:
            self._warm_graph(graph, warm)
        # atomic check-and-bind: racing lazy submitters can both reach
        # here, but only one binding lands
        self.registry.register_if_absent(name, graph)
        _identity.register(graph, name)

    def query(self, name: str, query: Query, *,
              deadline: Optional[float] = None):
        """Synchronous convenience: ``submit(...).result()``."""
        return self.submit(name, query, deadline=deadline).result()

    def query_many(self, name: str, queries: Sequence[Query]) -> list:
        return [f.result() for f in self.submit_many(name, queries)]

    def _enqueue(self, name: str, query: Query,
                 deadline: Optional[float] = None) -> Future:
        if self._closed:
            raise RuntimeError("service is shut down")
        if not isinstance(query, Query):
            raise TypeError(f"expected a serve.Query, got {type(query)!r}")
        t0 = time.perf_counter()
        cached = self.cache.get(self.registry.key(name, query), _SENTINEL)
        with self._lock:
            self._stats.submitted += 1
        if _metrics.ENABLED:
            _REQUESTS.labels("submitted").inc()
        fut: Future = Future()
        if cached is not _SENTINEL:
            with self._lock:
                self._stats.cache_hits += 1
                self._stats.completed += 1
            if _metrics.ENABLED:
                _REQUESTS.labels("memo_hit").inc()
                _REQUESTS.labels("completed").inc()
            if _trace.active():
                _trace.instant("serve:memo-hit", cat="serve", graph=name,
                               query=type(query).__name__)
            fut.set_result(_copy_result(cached))
            return fut
        if deadline is None:
            deadline = self.default_deadline
        abs_deadline = (time.monotonic() + deadline
                        if deadline is not None else None)
        req = PendingRequest(name, query, fut, contextvars.copy_context(),
                             abs_deadline)
        self._track(fut, name, query, t0)
        try:
            # under "block" the submitter waits for queue space at most
            # until its own deadline (forever when it has none)
            depth, dropped = self._queue.put(req, timeout=deadline)
        except ServiceOverloaded as exc:
            self._note_shed(1)
            self._resolve(fut, False, exc)
            return fut
        if dropped:     # drop-oldest made room by shedding these
            self._note_shed(len(dropped))
            exc = ServiceOverloaded(
                "request shed by drop-oldest admission control")
            for old in dropped:
                self._resolve(old.future, False, exc)
        if abs_deadline is not None:
            self._watch_deadline(fut, abs_deadline)
        with self._lock:
            if depth > self._depth_peak:
                self._depth_peak = depth
        if _trace.active():
            _trace.instant("serve:enqueue", cat="serve", graph=name,
                           query=type(query).__name__, depth=depth)
        return fut

    def _note_shed(self, n: int) -> None:
        self._last_shed = time.monotonic()
        with self._lock:
            self._stats.shed += n
        resilience.count_shed(self._queue.policy, n)
        if _metrics.ENABLED:
            _REQUESTS.labels("shed").inc(n)

    @staticmethod
    def _resolve(fut: Future, ok: bool, val) -> None:
        """Resolve ``fut`` exactly once: the reaper, drain workers, and
        admission control race each other, and whoever loses must be a
        silent no-op."""
        if fut.done():
            return
        try:
            (fut.set_result if ok else fut.set_exception)(val)
        except Exception:       # InvalidStateError: someone else won
            pass

    def _track(self, fut: Future, name: str, query: Query,
               t0: float) -> None:
        with self._lock:
            self._inflight.add(fut)
        # the submitter's trace identity, captured now: the done callback
        # runs on whatever thread resolves the future, outside the
        # submitting request's context
        sink = _trace.current_sink()
        parent = _trace.current_span_id() if sink is not None else None

        def _done(f: Future):
            latency = time.perf_counter() - t0
            exc = f.exception()
            failed = exc is not None
            with self._lock:
                self._inflight.discard(f)
                self._deadlined.pop(f, None)
                self._stats.completed += 1
                if failed:
                    self._stats.failed += 1
                    if isinstance(exc, DeadlineExceeded):
                        self._stats.deadline_expired += 1
                self._latencies.append(latency)
                if len(self._latencies) > _LATENCY_WINDOW:
                    del self._latencies[:len(self._latencies)
                                        - _LATENCY_WINDOW]
            if _metrics.ENABLED:
                _LATENCY.observe(latency)
                _REQUESTS.labels("failed" if failed else "completed").inc()
                if isinstance(exc, DeadlineExceeded):
                    _REQUESTS.labels("deadline_exceeded").inc()
            if sink is not None:
                # obs: gated-by-caller (sink is captured at submit time
                # only while the submitter's tracing was active)
                _trace.instant("serve:answer", cat="serve", sink=sink,
                               parent_id=parent, graph=name,
                               query=type(query).__name__,
                               latency_s=latency, failed=failed)
        fut.add_done_callback(_done)

    # ------------------------------------------------------------------
    # deadline reaper
    # ------------------------------------------------------------------
    def _watch_deadline(self, fut: Future, abs_deadline: float) -> None:
        with self._lock:
            self._deadlined[fut] = abs_deadline
            if self._reaper is None:
                self._reaper = threading.Thread(
                    target=self._reap_loop, name="graphserve-reaper",
                    daemon=True)
                self._reaper.start()

    def _reap_loop(self) -> None:
        """Resolve deadline-carrying futures the moment their budget ends.

        Cooperative kernel cancellation (:mod:`repro.grb.cancel`) stops
        the wasted compute; this thread is what makes the *latency*
        contract unconditional — a kernel stuck inside one long numpy
        call cannot delay the future's DeadlineExceeded beyond one reaper
        interval.  Exits once the service is closed and no deadlines
        remain (it only exists while deadline requests are in flight).
        """
        while True:
            time.sleep(_REAPER_INTERVAL)
            now = time.monotonic()
            with self._lock:
                expired = [f for f, dl in self._deadlined.items()
                           if now >= dl or f.done()]
                for f in expired:
                    del self._deadlined[f]
                idle = not self._deadlined
                if idle:
                    # retire under the lock: _watch_deadline either sees
                    # None here and spawns a fresh reaper, or added its
                    # entry before this check (then idle is False)
                    self._reaper = None
            for f in expired:
                # outside the lock: resolution runs done-callbacks that
                # take the service lock themselves
                self._resolve(f, False, DeadlineExceeded(
                    "request deadline expired before a result was ready"))
            if idle:
                return

    def _kick(self) -> None:
        if len(self._queue):
            try:
                self._executor.submit(self._drain)
            except RuntimeError:
                # pool already shutting down: drain on this thread so no
                # enqueued future is ever abandoned (Progress guarantee)
                self._drain()

    # ------------------------------------------------------------------
    # draining / execution
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        requests = self._queue.drain()
        if not requests:
            return
        batches = plan_batches(requests, self.max_batch)
        if len(batches) == 1:
            self._run_batch(batches[0])
            return
        for batch in batches:
            try:
                self._executor.submit(self._run_batch, batch)
            except RuntimeError:    # shutdown raced the drain: run inline
                self._run_batch(batch)

    def _run_batch(self, batch: Batch) -> None:
        # the registry read lock keeps update()/invalidate() from rewriting
        # the adjacency mid-kernel; the snapshot inside it is therefore
        # consistent with every array the kernels read.  Futures are
        # resolved only AFTER the lock is released: set_result runs caller
        # callbacks synchronously, and a callback taking the write side
        # (e.g. svc.invalidate) would deadlock against this thread's read.
        resolutions: List[tuple] = []
        try:
            if _faults.ACTIVE:
                _faults.fire("drain", graph=batch.graph_name,
                             queries=len(batch.requests_by_query))
            with self.registry.reading():
                g, epoch, version = self.registry.snapshot(batch.graph_name)
                self._answer(batch, g, epoch, version, resolutions)
        except Exception as exc:
            # apply what was decided before the failure (cached answers,
            # per-query validation errors), then fail only the remainder.
            # Kernel failures never reach here — _answer isolates them —
            # so this is registry/snapshot/drain-infrastructure failure,
            # where per-query blame does not exist.
            self._apply(resolutions)
            self._fail_batch(batch, exc)
            return
        self._apply(resolutions)

    @classmethod
    def _apply(cls, resolutions: List[tuple]) -> None:
        for fut, ok, val in resolutions:
            cls._resolve(fut, ok, val)

    def _answer(self, batch: Batch, g: Graph, epoch: int, version: int,
                resolutions: List[tuple]) -> None:
        """Compute the batch's answers, appending deferred future
        resolutions ``(future, ok, value-or-exception)`` to ``resolutions``
        for the caller to apply outside the registry read lock (appending
        in place lets already-decided outcomes survive a later
        infrastructure failure)."""
        name = batch.graph_name
        results: Dict[Query, object] = {}
        failures: Dict[Query, BaseException] = {}
        missing: List[Query] = []
        now = time.monotonic()
        for q in batch.queries:
            reqs = batch.requests_by_query[q]
            # a query none of whose submitters can still receive an
            # answer — every future resolved (reaper) or past deadline —
            # must not cost a kernel row
            live = [r for r in reqs if not r.future.done()
                    and (r.deadline is None or r.deadline > now)]
            if not live:
                exc = DeadlineExceeded(
                    "request deadline expired before execution")
                for r in reqs:
                    resolutions.append((r.future, False, exc))
                continue
            key = (name, epoch, version, q)
            cached = self.cache.get(key, _SENTINEL)
            if cached is not _SENTINEL:
                results[q] = cached
                with self._lock:
                    self._stats.cache_hits += 1
                continue
            try:
                q.validate(g)
            except Exception as exc:
                # an invalid query fails alone, not its whole batch
                for req in reqs:
                    resolutions.append((req.future, False, exc))
                continue
            missing.append(q)

        if missing:
            kernel_key = batch.group or type(missing[0]).__name__
            breaker = self._breaker_for(name, kernel_key)
            if breaker is not None and not breaker.allow():
                self._answer_degraded(batch, name, kernel_key, missing,
                                      resolutions)
            else:
                self._run_unit(batch, g, name, kernel_key, missing,
                               results, failures, breaker)
                if _metrics.ENABLED:
                    _REQUESTS.labels("kernel_miss").inc(len(missing))
                for q in missing:
                    if q in results:
                        self.cache.put((name, epoch, version, q),
                                       results[q])

        shared = 0
        for q, reqs in batch.requests_by_query.items():
            if q in results:
                shared += len(reqs) - 1
                for req in reqs:
                    resolutions.append((req.future, True,
                                        _copy_result(results[q])))
            elif q in failures:
                for req in reqs:
                    resolutions.append((req.future, False, failures[q]))
            # else: validation failure / expiry, already appended above
        n_queries = len(batch.queries)
        with self._lock:
            self._stats.batches += 1
            self._stats.deduplicated += shared
            self._batch_hist[n_queries] = \
                self._batch_hist.get(n_queries, 0) + 1
        if _metrics.ENABLED:
            _BATCH_SIZE.observe(n_queries)

    def _breaker_for(self, name: str,
                     kernel_key: str) -> Optional[CircuitBreaker]:
        if self.breaker_threshold is None:
            return None
        key = (name, kernel_key)
        with self._lock:
            br = self._breakers.get(key)
            if br is None:
                br = self._breakers[key] = CircuitBreaker(
                    self.breaker_threshold, self.breaker_reset_timeout,
                    graph=name, kernel=kernel_key)
            return br

    def _answer_degraded(self, batch: Batch, name: str, kernel_key: str,
                         missing: List[Query],
                         resolutions: List[tuple]) -> None:
        """Breaker open: serve stale memo entries marked degraded, or
        fail fast — never run the kernel."""
        degraded = 0
        for q in missing:
            stale = (self.cache.stale_get(name, q)
                     if self.degraded_serving else None)
            if stale is not None:
                value, s_epoch, s_version = stale
                degraded += 1
                for req in batch.requests_by_query[q]:
                    resolutions.append((req.future, True, DegradedResult(
                        _copy_result(value), s_epoch, s_version)))
            else:
                exc = CircuitOpen(
                    f"circuit breaker open for {name!r}/{kernel_key!r}; "
                    f"no stale result available")
                for req in batch.requests_by_query[q]:
                    resolutions.append((req.future, False, exc))
        with self._lock:
            self._stats.degraded += degraded
        if _metrics.ENABLED:
            _REQUESTS.labels("degraded").inc(degraded)
            _REQUESTS.labels("breaker_fastfail").inc(
                len(missing) - degraded)

    def _run_unit(self, batch: Batch, g: Graph, name: str, kernel_key: str,
                  qs: List[Query], results: Dict[Query, object],
                  failures: Dict[Query, BaseException],
                  breaker: Optional[CircuitBreaker],
                  attempt: int = 0) -> None:
        """One kernel-level unit of work: one batched multi-source call
        for a coalescible group, however many queries it holds, or the
        direct call of a non-coalescible batch's one query.  With the
        failure ladder:

        1. retry — a retryable fault re-runs the whole unit (capped
           exponential backoff + seeded jitter) up to the policy budget;
        2. bisect — a batched unit that still fails splits in half and
           each half re-runs, recursively, until the offending quer(ies)
           stand alone (innocent siblings succeed in their halves);
        3. quarantine — a single query that still fails gets the
           exception as its answer; the breaker records the failure.

        Deadline/cancellation raises skip the ladder entirely: they are
        caller-induced, not kernel failures.
        """
        token = self._unit_token(batch, qs)
        try:
            if _faults.ACTIVE:
                _faults.fire("serve-kernel", graph=name, kernel=kernel_key,
                             queries=tuple(qs))
            if batch.group is not None:
                sources = [int(q.source) for q in qs]  # type: ignore[attr-defined]
                kernel = type(qs[0]).run_batch  # type: ignore[attr-defined]
                out = self._in_request_ctx(
                    batch, qs[0], kernel, g, sources, token=token,
                    span_attrs={"graph": name, "coalesced": True,
                                "sources": len(sources),
                                "query": type(qs[0]).__name__})
                for row, q in enumerate(qs):
                    results[q] = out.extract_row(row)
                with self._lock:
                    self._stats.kernel_calls += 1
                    self._stats.coalesced_calls += 1
                    self._stats.coalesced_sources += len(sources)
            else:
                (q,) = qs   # a non-coalescible batch holds one query
                results[q] = self._in_request_ctx(
                    batch, q, q.run_direct, g, token=token,
                    span_attrs={"graph": name, "coalesced": False,
                                "query": type(q).__name__})
                with self._lock:
                    self._stats.kernel_calls += 1
        except (DeadlineExceeded, Cancelled) as exc:
            # every waiter's budget ended (the unit token is only armed
            # when ALL member requests carry deadlines); the reaper has
            # resolved or will resolve the futures — record for the
            # fan-out, don't retry, don't blame the kernel
            for q in qs:
                failures[q] = exc
        except Exception as exc:
            policy = self.retry_policy
            if (policy is not None and attempt + 1 < policy.attempts
                    and policy.retryable(exc)):
                with self._lock:
                    self._stats.retries += 1
                resilience.count_retry()
                if _trace.active():
                    _trace.instant("serve:retry", cat="serve", graph=name,
                                   kernel=kernel_key, attempt=attempt + 1)
                time.sleep(policy.backoff(attempt + 1))
                self._run_unit(batch, g, name, kernel_key, qs, results,
                               failures, breaker, attempt=attempt + 1)
                return
            if len(qs) > 1 and self.isolation:
                # bisect: innocent siblings answer in their half, the
                # poison converges to a singleton unit
                mid = len(qs) // 2
                self._run_unit(batch, g, name, kernel_key, qs[:mid],
                               results, failures, breaker)
                self._run_unit(batch, g, name, kernel_key, qs[mid:],
                               results, failures, breaker)
                return
            for q in qs:
                failures[q] = exc
            with self._lock:
                self._stats.quarantined += len(qs)
            if _metrics.ENABLED:
                _REQUESTS.labels("quarantined").inc(len(qs))
            if breaker is not None:
                breaker.record_failure()
        else:
            if breaker is not None:
                breaker.record_success()

    @staticmethod
    def _unit_token(batch: Batch, qs: List[Query]) -> Optional[CancelToken]:
        """The cooperative-cancellation token for one kernel unit.

        Armed with the *latest* member deadline, and only when every
        member request carries one: as long as any waiter has an
        unbounded budget the kernel must run to completion for it, and
        individual early deadlines are enforced by the reaper on the
        future side."""
        deadlines: List[float] = []
        for q in qs:
            for r in batch.requests_by_query[q]:
                if r.deadline is None:
                    return None
                deadlines.append(r.deadline)
        if not deadlines:
            return None
        return CancelToken(deadline=max(deadlines))

    def _in_request_ctx(self, batch: Batch, q, fn, *args, span_attrs=None,
                        token: Optional[CancelToken] = None):
        """Run ``fn(*args)`` under the context snapshot of the first
        pending request for query ``q`` (each request carries its own
        ``copy_context()``, so a context is never entered twice), with
        ``token`` installed as the cancellation scope.

        Because the snapshot carries the submitter's trace sink, the
        ``serve:batch`` span — and every engine span the kernel opens
        beneath it — lands in the *submitting request's* trace, giving
        concurrent traced submitters disjoint span trees for free.

        When :meth:`serve_telemetry` is live and the submitter did *not*
        trace, the batch runs under a service-owned collector instead and
        the finished span tree lands in the ``/trace`` ring — recent
        request traces are scrapable without any caller opting in.
        """
        if token is not None:
            base_fn = fn

            def fn(*a, _base=base_fn, _tok=token):
                with cancel_scope(_tok):
                    return _base(*a)
        reqs = batch.requests_by_query.get(q)
        ctx = reqs[0].ctx if reqs else None
        if ctx is None:
            return fn(*args)
        if span_attrs is None:
            return ctx.run(fn, *args)
        ring = self._trace_ring

        def run():
            # obs: gated-by-caller (span cost only when the submitter's
            # sink is active or the telemetry ring opted the service in)
            if _trace.active():
                with _trace.span("serve:batch", cat="serve", **span_attrs):
                    return fn(*args)
            if ring is not None:
                with _trace.tracing() as coll:
                    with _trace.span("serve:batch", cat="serve",
                                     **span_attrs):
                        out = fn(*args)
                ring.push(coll.records())
                return out
            return fn(*args)
        return ctx.run(run)

    def _fail_batch(self, batch: Batch, exc: Exception) -> None:
        for req in batch.requests:
            self._resolve(req.future, False, exc)

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every request submitted so far is resolved.

        Raises :class:`TimeoutError` if ``timeout`` seconds pass with
        futures still unresolved (naming how many) — a silent return
        would let a caller proceed believing the backlog is gone.  The
        still-pending futures are untouched: they resolve normally when
        their drains complete, and ``flush`` may simply be called again.
        """
        self._kick()
        with self._lock:
            outstanding = list(self._inflight)
        if outstanding:
            done, not_done = _wait(outstanding, timeout=timeout)
            if not_done:
                raise TimeoutError(
                    f"flush timed out after {timeout}s with "
                    f"{len(not_done)} request(s) still unresolved")

    def stats(self) -> ServiceStats:
        """A consistent snapshot of everything the service observes.

        Counters are copied under the service lock (drain workers mutate
        them concurrently); latency percentiles come from the recent
        sample window; ``plan_cache`` is the engine's process-global
        counter snapshot (see :meth:`plan_cache_stats`).
        """
        with self._lock:
            s = self._stats
            snap = ServiceStats(s.submitted, s.completed, s.failed,
                                s.cache_hits, s.batches, s.kernel_calls,
                                s.coalesced_calls, s.coalesced_sources,
                                s.deduplicated,
                                shed=s.shed, retries=s.retries,
                                deadline_expired=s.deadline_expired,
                                quarantined=s.quarantined,
                                degraded=s.degraded,
                                queue_depth_peak=self._depth_peak,
                                batch_size_hist=dict(self._batch_hist))
            lat = sorted(self._latencies)
            breakers = {f"{g}/{k}": br.state
                        for (g, k), br in self._breakers.items()}
        # queue / percentile / plan-cache reads take other locks — outside
        # ours (one-way lock ordering, no nesting)
        snap.queue_depth = len(self._queue)
        snap.latency_count = len(lat)
        snap.latency_p50 = _percentile(lat, 0.50)
        snap.latency_p95 = _percentile(lat, 0.95)
        snap.latency_p99 = _percentile(lat, 0.99)
        snap.breaker_states = breakers
        snap.plan_cache = engine.plancache.stats()
        return snap

    # ------------------------------------------------------------------
    # telemetry endpoint
    # ------------------------------------------------------------------
    def serve_telemetry(self, port: int = 0, host: str = "127.0.0.1", *,
                        trace_capacity: int = 64,
                        queue_depth_limit: Optional[int] = None):
        """Start the telemetry HTTP exporter for this service (idempotent).

        Binds ``host:port`` (``port=0`` → ephemeral; read ``server.port``)
        on a daemon thread serving:

        * ``/metrics`` — the process metric registry, Prometheus text;
        * ``/healthz`` — 200 while the drain pool is live, queue depth is
          within ``queue_depth_limit`` (when set; the admission bound is
          used otherwise), and no admission shedding happened within the
          last overload window — else 503 (see ``docs/RESILIENCE.md``);
        * ``/stats`` — :meth:`stats` as JSON;
        * ``/trace`` — the last ``trace_capacity`` request span trees as
          Chrome trace JSON (batches run under a service-owned collector
          whenever the submitter wasn't already tracing).

        Returns the live :class:`repro.obs.http.TelemetryServer`; stopped
        automatically by :meth:`shutdown`.
        """
        if self._telemetry_server is not None:
            return self._telemetry_server
        self._trace_ring = _obshttp.TraceRing(trace_capacity)
        self._queue_depth_limit = queue_depth_limit
        self._telemetry_server = _obshttp.start_server(
            host, port,
            healthz=self._healthz,
            stats=lambda: self.stats().to_dict(),
            trace_ring=self._trace_ring)
        return self._telemetry_server

    def _healthz(self):
        """``(ok, payload)`` for the ``/healthz`` route."""
        depth = len(self._queue)
        limit = self._queue_depth_limit
        if limit is None:
            limit = self._queue.maxsize
        if self._closed or getattr(self._executor, "_shutdown", False):
            return False, {"status": "shutdown", "queue_depth": depth}
        since_shed = time.monotonic() - self._last_shed
        if self._last_shed and since_shed < _OVERLOAD_WINDOW:
            return False, {"status": "overloaded", "queue_depth": depth,
                           "reason": "shedding",
                           "last_shed_s_ago": round(since_shed, 3)}
        if limit is not None and depth > limit:
            return False, {"status": "overloaded", "queue_depth": depth,
                           "queue_depth_limit": limit}
        payload = {"status": "ok", "queue_depth": depth}
        if limit is not None:
            payload["queue_depth_limit"] = limit
        return True, payload

    @staticmethod
    def plan_cache_stats():
        """Hit/miss counters of the masked-dot analysis memo, and what
        the live memos hold.

        The counters are engine-global (every drain worker's dispatches
        feed them), so this is a process-wide snapshot, not a per-service
        one — the serving analogue of ``stats()`` for planner decisions.
        The same outcome rides on the planner's decision records (the
        ``plan_cache`` field — see :func:`repro.obs.decision`).
        """
        return engine.plancache.stats()

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._executor.shutdown(wait=wait)
        # anything still queued lost its drain (e.g. an enqueue racing the
        # close): resolve, never abandon (Progress guarantee).  drain()
        # also wakes submitters blocked under the "block" policy.
        for req in self._queue.drain():
            self._resolve(req.future, False,
                          RuntimeError("service is shut down"))
        server = self._telemetry_server
        if server is not None:
            self._telemetry_server = None
            server.stop()

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, *exc) -> None:
        self.flush()
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (f"GraphService(graphs={self.registry.names()}, "
                f"submitted={s.submitted}, batches={s.batches}, "
                f"cache_hits={s.cache_hits})")


_SENTINEL = object()
