"""Request coalescing: turning a stream of queries into batched kernel work.

The queue collects pending requests from any number of submitting threads;
a drain empties it atomically and plans the work:

* requests for the same ``(graph, coalesce-group)`` collapse into one
  *batch* answered by a single multi-source kernel call (split into chunks
  of ``max_batch`` sources);
* duplicate queries inside a batch share one kernel row — every duplicate
  future is fanned the same result;
* non-coalescible queries become singleton batches (deduplicated too).

Planning is pure bookkeeping over immutable query objects, so it is
trivially testable without a service or an executor.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..obs import metrics as _metrics
from .requests import Query, _SingleSource
from .resilience import (
    ADMISSION_POLICIES,
    POLICY_BLOCK,
    POLICY_DROP_OLDEST,
    POLICY_REJECT,
    ServiceOverloaded,
)

__all__ = ["PendingRequest", "Batch", "CoalescingQueue", "plan_batches"]

#: Always-on gauge tracking the accumulation buffer's depth — process-wide
#: (services share the metric; per-service peaks live in
#: :class:`repro.serve.service.ServiceStats`).
_QUEUE_DEPTH = _metrics.gauge(
    "serve_queue_depth", "Requests waiting in the coalescing queue")


@dataclass
class PendingRequest:
    """One submitted query waiting for a result.

    ``ctx`` is the submitter's :mod:`contextvars` snapshot: drain workers
    execute kernels under it, so context-local state — in particular the
    :mod:`repro.obs` trace sink — follows the request onto the pool
    instead of leaking between concurrent submissions.
    """

    graph_name: str
    query: Query
    future: Future = field(default_factory=Future)
    ctx: Optional[contextvars.Context] = None
    #: Absolute :func:`time.monotonic` deadline, or ``None`` (no budget).
    #: The service's reaper resolves the future with ``DeadlineExceeded``
    #: once this passes; drain workers skip already-expired requests.
    deadline: Optional[float] = None


@dataclass
class Batch:
    """A unit of kernel work: one graph, one coalesce group (or a single
    non-coalescible query), plus the requests it will answer.

    ``requests_by_query`` preserves submission order of first appearance;
    duplicates of a query ride along in its request list.
    """

    graph_name: str
    group: Optional[str]                       # None → not coalescible
    requests_by_query: "Dict[Query, List[PendingRequest]]"

    @property
    def queries(self) -> List[Query]:
        return list(self.requests_by_query)

    @property
    def requests(self) -> List[PendingRequest]:
        return [r for rs in self.requests_by_query.values() for r in rs]

    @property
    def sources(self) -> List[int]:
        """Distinct source vertices, in first-appearance order."""
        return [int(q.source) for q in self.requests_by_query
                if isinstance(q, _SingleSource)]


def plan_batches(requests: List[PendingRequest],
                 max_batch: int = 64) -> List[Batch]:
    """Group drained requests into batches of at most ``max_batch`` queries.

    Coalescible queries group by ``(graph, COALESCE)``; everything else
    gets a singleton batch per *distinct* query (duplicates still share).
    """
    grouped: "Dict[Tuple, Dict[Query, List[PendingRequest]]]" = {}
    order: List[Tuple] = []
    for req in requests:
        tag = req.query.COALESCE
        if tag is None:
            gkey = (req.graph_name, None, req.query)
        else:
            gkey = (req.graph_name, tag)
        bucket = grouped.get(gkey)
        if bucket is None:
            bucket = grouped[gkey] = {}
            order.append(gkey)
        bucket.setdefault(req.query, []).append(req)

    batches: List[Batch] = []
    for gkey in order:
        name, tag = gkey[0], gkey[1]
        bucket = grouped[gkey]
        if tag is None:
            batches.append(Batch(name, None, bucket))
            continue
        items = list(bucket.items())
        for lo in range(0, len(items), max_batch):
            batches.append(Batch(name, tag, dict(items[lo:lo + max_batch])))
    return batches


class CoalescingQueue:
    """A thread-safe accumulation buffer for pending requests.

    With ``maxsize=None`` (the default) the buffer is unbounded and
    :meth:`put` always succeeds — the seed behaviour.  A bounded queue
    applies one of three admission policies when full:

    * ``"reject"`` — :meth:`put` raises :class:`ServiceOverloaded`; the
      service resolves the *new* request's future with it.
    * ``"drop-oldest"`` — the oldest queued request is shed (returned to
      the caller, who resolves its future with :class:`ServiceOverloaded`)
      and the new one is admitted.
    * ``"block"`` — :meth:`put` waits for a drain to make space, up to
      ``timeout`` seconds, then raises :class:`ServiceOverloaded`.
    """

    def __init__(self, maxsize: Optional[int] = None,
                 policy: str = POLICY_REJECT):
        if policy not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy {policy!r}; "
                             f"one of {ADMISSION_POLICIES}")
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be >= 1 (or None for unbounded)")
        self.maxsize = maxsize
        self.policy = policy
        self._cond = threading.Condition()
        self._pending: List[PendingRequest] = []

    def put(self, request: PendingRequest, *,
            timeout: Optional[float] = None
            ) -> "Tuple[int, List[PendingRequest]]":
        """Admit ``request``; returns ``(depth, shed)``.

        ``depth`` is the queue depth after insertion; ``shed`` is the
        list of requests dropped to make room (non-empty only under the
        ``drop-oldest`` policy).  Raises :class:`ServiceOverloaded` when
        admission is denied (``reject`` at capacity, ``block`` timeout).
        """
        shed: List[PendingRequest] = []
        with self._cond:
            if self.maxsize is not None and len(self._pending) >= self.maxsize:
                if self.policy == POLICY_REJECT:
                    raise ServiceOverloaded(
                        f"queue full ({len(self._pending)}/{self.maxsize}); "
                        f"request rejected")
                if self.policy == POLICY_DROP_OLDEST:
                    while len(self._pending) >= self.maxsize:
                        shed.append(self._pending.pop(0))
                elif self.policy == POLICY_BLOCK:
                    ok = self._cond.wait_for(
                        lambda: len(self._pending) < self.maxsize,
                        timeout=timeout)
                    if not ok:
                        raise ServiceOverloaded(
                            f"queue full ({self.maxsize}); timed out after "
                            f"{timeout}s waiting for space")
            self._pending.append(request)
            depth = len(self._pending)
        if _metrics.ENABLED:
            _QUEUE_DEPTH.set(depth)
        return depth, shed

    def drain(self) -> List[PendingRequest]:
        """Atomically take everything currently queued (FIFO order)."""
        with self._cond:
            out, self._pending = self._pending, []
            if out:
                self._cond.notify_all()
        if _metrics.ENABLED and out:
            _QUEUE_DEPTH.set(0)
        return out

    def __len__(self) -> int:
        with self._cond:
            return len(self._pending)
