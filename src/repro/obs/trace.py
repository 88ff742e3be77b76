"""Context-local span tracing for the plan and serve lifecycles.

A *span* is a named, timed interval with a parent: together they form the
tree of one request's execution — ``plan:mxm`` → ``plan-choose`` →
``kernel:mxm-masked-dot`` → ``epilogue:reduce_scalar`` → ``write``.  The
current sink and the current span are both :mod:`contextvars`
context-locals: with no sink installed, :func:`span` returns a shared
no-op object and the hot path pays one ``ContextVar`` read; with one
installed, spans record into a thread-safe :class:`TraceCollector` whose
records export as Chrome trace-event JSON (load the file in Perfetto /
``chrome://tracing``) or JSONL.  Planner decision records
(:func:`repro.obs.decision`) land in the same collector, parented to the
span that was open when the decision was made — ``plan-choose`` for a
dispatch — and read back with
:meth:`TraceCollector.decisions`.

Context locality gives serve isolation for free: drain workers execute
kernels under the submitting request's ``copy_context()`` snapshot
(:mod:`repro.serve.service`), so two concurrent traced submitters each
collect exactly their own span tree.

Usage::

    from repro import obs

    with obs.tracing() as trace:
        triangle_count(g)
    trace.to_chrome_trace()          # dict — json.dump it for Perfetto
    roots = trace.span_tree()        # nested {record, children} dicts
    trace.decisions()                # the planner's decision dicts, in order
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, List, Optional

__all__ = ["TraceCollector", "Span", "span", "instant", "decision",
           "tracing", "propagate", "active", "current_sink",
           "current_span_id"]

_ids = itertools.count(1)

#: Record name (and category) of a planner decision in a collector.
DECISION = "decision"

_sink_var: ContextVar[Optional["TraceCollector"]] = ContextVar(
    "repro_obs_trace_sink", default=None)
_span_var: ContextVar[Optional["Span"]] = ContextVar(
    "repro_obs_trace_span", default=None)


def active() -> bool:
    """Whether a trace sink is installed in this context (call sites gate
    attribute computation on this)."""
    return _sink_var.get() is not None


def current_sink() -> Optional["TraceCollector"]:
    """This context's collector, if any — capture it before handing work
    to a thread that must report into the same trace."""
    return _sink_var.get()


def current_span_id() -> Optional[int]:
    """The id of the innermost open span in this context, if any."""
    cur = _span_var.get()
    return cur.span_id if cur is not None else None


class TraceCollector:
    """A thread-safe append-only list of span/instant records."""

    def __init__(self):
        self._lock = threading.Lock()
        self._records: List[dict] = []

    def add(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)

    def records(self) -> List[dict]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def span_tree(self) -> List[dict]:
        """Roots of the span forest as nested ``{record, children}`` dicts.

        Instants attach as leaves under their parent span."""
        records = self.records()
        nodes = {r["span_id"]: {"record": r, "children": []} for r in records}
        roots = []
        for r in records:
            node = nodes[r["span_id"]]
            parent = nodes.get(r.get("parent_id"))
            (parent["children"] if parent is not None else roots).append(node)
        return roots

    def names(self) -> List[str]:
        return [r["name"] for r in self.records()]

    def find(self, prefix: str) -> List[dict]:
        """All records whose name starts with ``prefix``."""
        return [r for r in self.records() if r["name"].startswith(prefix)]

    def decisions(self, op: Optional[str] = None) -> List[dict]:
        """The planner decision dicts delivered to this collector, in
        delivery order (optionally only those of operation kind ``op``)."""
        return [r["args"] for r in self.records()
                if r["name"] == DECISION
                and (op is None or r["args"].get("op") == op)]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """The Chrome trace-event JSON object (Perfetto-loadable).

        Spans become complete events (``ph: "X"``, microsecond ``ts`` /
        ``dur``); instants become ``ph: "i"`` thread-scoped events.  Span
        ids ride in ``args`` so the parent/child structure survives the
        round trip (Chrome's own nesting is per-thread stack-based).
        """
        pid = os.getpid()
        events = []
        for r in self.records():
            args = dict(r.get("args") or {})
            args["span_id"] = r["span_id"]
            if r.get("parent_id") is not None:
                args["parent_id"] = r["parent_id"]
            ev = {
                "name": r["name"],
                "cat": r.get("cat", "repro"),
                "pid": pid,
                "tid": r.get("tid", 0),
                "ts": r["ts"] * 1e6,
                "args": args,
            }
            if r["type"] == "span":
                ev["ph"] = "X"
                ev["dur"] = r["dur"] * 1e6
            else:
                ev["ph"] = "i"
                ev["s"] = "t"
            events.append(ev)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome_json(self) -> str:
        return json.dumps(self.to_chrome_trace(), default=str)

    def to_jsonl(self) -> str:
        """One JSON object per record, newline-delimited."""
        return "\n".join(json.dumps(r, default=str)
                         for r in self.records())


class Span:
    """One open interval; use as a context manager.

    ``set(**attrs)`` adds attributes after entry (kernel output sizes,
    chosen methods) — they land in the record's ``args``.
    """

    __slots__ = ("name", "cat", "args", "_sink", "span_id", "parent_id",
                 "_t0", "_token")

    def __init__(self, sink: TraceCollector, name: str, cat: str,
                 args: dict):
        self.name = name
        self.cat = cat
        self.args = args
        self._sink = sink

    def set(self, **attrs) -> "Span":
        self.args.update(attrs)
        return self

    def __enter__(self) -> "Span":
        parent = _span_var.get()
        self.parent_id = parent.span_id if parent is not None else None
        self.span_id = next(_ids)
        self._token = _span_var.set(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dur = time.perf_counter() - self._t0
        _span_var.reset(self._token)
        record = {
            "type": "span",
            "name": self.name,
            "cat": self.cat,
            "ts": self._t0,
            "dur": dur,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "tid": threading.get_ident(),
            "args": self.args,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self._sink.add(record)
        return False


class _NullSpan:
    """Shared no-op returned when no sink is installed (the fast path)."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, cat: str = "engine", **attrs):
    """A span recording into this context's sink — or a shared no-op."""
    sink = _sink_var.get()
    if sink is None:
        return _NULL_SPAN
    return Span(sink, name, cat, attrs)


def _add_instant(sink: TraceCollector, parent_id, name: str, cat: str,
                 args: dict) -> None:
    sink.add({
        "type": "instant",
        "name": name,
        "cat": cat,
        "ts": time.perf_counter(),
        "span_id": next(_ids),
        "parent_id": parent_id,
        "tid": threading.get_ident(),
        "args": args,
    })


def instant(name: str, cat: str = "engine", *, sink=None, parent_id=None,
            **attrs) -> None:
    """Record a zero-duration marker under the current span.

    ``sink``/``parent_id`` override the context-local resolution: the
    serve answer path captures both at submit time and reports the
    completion from whatever thread resolves the future.
    """
    if sink is None:
        sink = _sink_var.get()
        if sink is None:
            return
        if parent_id is None:
            parent_id = current_span_id()
    _add_instant(sink, parent_id, name, cat, attrs)


def decision(record: dict) -> None:
    """Attach one planner decision dict to the innermost open span of this
    context's collector (nothing happens without one).  Call sites go
    through :func:`repro.obs.decision`, which also feeds the profiler."""
    sink = _sink_var.get()
    if sink is not None:
        _add_instant(sink, current_span_id(), DECISION, DECISION, record)


@contextmanager
def tracing(collector: Optional[TraceCollector] = None):
    """Install a trace sink for the block; yields the collector."""
    coll = collector if collector is not None else TraceCollector()
    token = _sink_var.set(coll)
    try:
        yield coll
    finally:
        _sink_var.reset(token)


def propagate(fn: Callable) -> Callable:
    """Wrap ``fn`` to run under a snapshot of the *caller's* context.

    A plain ``threading.Thread`` starts with a fresh :mod:`contextvars`
    context — no trace sink, by design — while serve drain workers run
    each kernel under the submitting request's context snapshot.
    ``propagate`` gives user-managed threads the same opt-in: the snapshot
    is taken here, at wrapping time (i.e. on the submitting thread), and
    every invocation of the wrapper runs under its own *copy* of that
    snapshot, so concurrent calls never contend for one context (a
    ``contextvars.Context`` cannot be entered twice) and sinks installed
    inside ``fn`` never leak back out.

    Usage::

        with obs.tracing() as trace:
            t = threading.Thread(target=obs.propagate(work))
            t.start()          # work() reports into ``trace``

    Works for any context-local state this package keeps — the trace
    sink, deep profiling and :func:`repro.grb.engine.force_rule` pins
    alike.
    """
    snapshot = contextvars.copy_context()

    @functools.wraps(fn)
    def runner(*args, **kwargs):
        ctx = snapshot.run(contextvars.copy_context)  # fresh copy per call
        return ctx.run(fn, *args, **kwargs)

    return runner
