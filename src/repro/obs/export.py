"""Exposition formats for the metrics registry.

Two shapes, no client-library dependency:

* :func:`prometheus_text` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, one sample line per labelled child,
  cumulative ``_bucket``/``_sum``/``_count`` series for histograms).
* :func:`json_snapshot` — a plain-dict snapshot (the default body of
  the telemetry endpoint's ``/stats`` route).

Trace export (Chrome trace-event JSON, JSONL) lives on
:class:`repro.obs.trace.TraceCollector` itself — a trace belongs to one
collector, not to the global registry.
"""

from __future__ import annotations

from typing import Optional

from . import memory as _memory
from . import metrics as _metrics
from . import profile as _profile

__all__ = ["prometheus_text", "json_snapshot"]


def _escape_label_value(v: str) -> str:
    # exposition format: backslash, double-quote and newline are escaped
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(s: str) -> str:
    # HELP text escapes backslash and newline (quotes are legal verbatim)
    return s.replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(labelnames, labelvalues) -> str:
    if not labelnames:
        return ""
    pairs = ", ".join(f'{k}="{_escape_label_value(v)}"'
                      for k, v in zip(labelnames, labelvalues))
    return "{" + pairs + "}"


def _merge_labels(base: str, extra: str) -> str:
    if not base:
        return "{" + extra + "}"
    return base[:-1] + ", " + extra + "}"


def prometheus_text(registry: Optional[_metrics.Registry] = None) -> str:
    """The registry in Prometheus text exposition format."""
    reg = registry if registry is not None else _metrics.REGISTRY
    _memory.snapshot()      # the footprint gauges are computed when read
    lines = []
    for metric in reg.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for labelvalues, child in metric.samples():
            labels = _label_str(metric.labelnames, labelvalues)
            if metric.kind == "histogram":
                snap = child.snapshot()
                cum = 0
                for bound, count in zip(snap["buckets"], snap["counts"]):
                    cum += count
                    le = 'le="%s"' % bound
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_merge_labels(labels, le)} {cum}")
                cum += snap["counts"][-1]
                le = 'le="+Inf"'
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_merge_labels(labels, le)} {cum}")
                lines.append(f"{metric.name}_sum{labels} {snap['sum']}")
                lines.append(f"{metric.name}_count{labels} {snap['count']}")
            else:
                lines.append(f"{metric.name}{labels} {child.value}")
    return "\n".join(lines) + "\n"


def json_snapshot(registry: Optional[_metrics.Registry] = None) -> dict:
    """Everything observable, as one JSON-serialisable dict.

    Includes the metric registry, the deep-profiling tables (empty unless
    a :func:`repro.obs.profile.profiling` block ran), and the masked-dot
    memo counters (``plan_cache``) when the engine is importable.
    """
    reg = registry if registry is not None else _metrics.REGISTRY
    stores = _memory.snapshot()    # publishes the footprint gauges
    out = {"metrics": {}}
    for metric in reg.collect():
        samples = []
        for labelvalues, child in metric.samples():
            labels = dict(zip(metric.labelnames, labelvalues))
            if metric.kind == "histogram":
                samples.append({"labels": labels, **child.snapshot()})
            else:
                samples.append({"labels": labels, "value": child.value})
        out["metrics"][metric.name] = {"kind": metric.kind,
                                       "help": metric.help,
                                       "samples": samples}
    out["kernels"] = _profile.kernel_table()
    out["rules"] = _profile.rule_table()
    out["decisions"] = _profile.decision_table()
    out["memory"] = {"stores": stores,
                     "live_owners": sum(s["count"] for s in stores.values())}
    try:  # the engine may not be imported (obs is standalone)
        import sys
        engine = sys.modules.get("repro.grb.engine")
        if engine is not None:
            pc = engine.plancache.stats()
            out["plan_cache"] = {
                "hits": pc.hits, "misses": pc.misses,
                "entries": pc.entries, "feed_bytes": pc.feed_bytes,
                "hit_rate": pc.hit_rate}
    except Exception:
        pass
    return out
