"""`repro.obs` — metrics, span tracing, and kernel profiling.

Three observation tiers, cheapest first, all safe under the concurrent
serving engine (span/profiling state is context-local, metric bumps are
locked):

* **Metrics** (:mod:`repro.obs.metrics`) — always-on counters / gauges /
  histograms with labels; export via :func:`prometheus_text` or
  :func:`json_snapshot`.
* **Span tracing** (:mod:`repro.obs.trace`) — opt-in per context::

      with obs.tracing() as trace:
          triangle_count(g)
      json.dump(trace.to_chrome_trace(), open("tc.json", "w"))

  covering record → plan-choose → kernel → epilogue → write and the
  serve request lifecycle.
* **Deep profiling** (:mod:`repro.obs.profile`) — opt-in per context::

      with obs.profiling():
          triangle_count(g)
      obs.report()

  exact wall/CPU/nnz/bytes per kernel and per rule, plus chooser
  misprediction rates judged from the planner's decision records.

Planner decisions have one channel: sites gated on :func:`deciding` hand
one dict per decision to :func:`decision`; read them back with
``trace.decisions()`` or, aggregated, ``profile.decision_table()``.

This package is standalone: it never imports :mod:`repro.grb` at module
level (the engine imports *it*), so it is importable from any layer
without cycles.  See ``docs/OBSERVABILITY.md`` for the full schema
and cost model.
"""

from __future__ import annotations

from . import export, http, identity, memory, metrics, profile, trace
from .export import json_snapshot, prometheus_text
from .http import TraceRing, start_server
from .profile import (deciding, decision, deep_active, memory_active,
                      profiled, profiling)
from .report import report
from .trace import TraceCollector, instant, propagate, span, tracing

__all__ = [
    "metrics", "trace", "profile", "export", "identity", "memory", "http",
    "span", "instant", "tracing", "propagate", "TraceCollector",
    "profiling", "profiled", "deep_active", "memory_active",
    "deciding", "decision",
    "prometheus_text", "json_snapshot",
    "TraceRing", "start_server",
    "report", "reset",
]


def reset() -> None:
    """Zero the metric registry and the deep-profiling tables (labels,
    metric registrations and children held by call sites survive; traces
    are per-collector and unaffected).  The store-footprint gauges need no
    rebuild: they are recomputed from the live stores whenever read."""
    metrics.reset()
    profile.reset()
