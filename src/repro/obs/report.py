"""``obs.report()`` — one pretty-printed summary of everything observable.

Sections, each omitted when empty:

* non-zero counters and gauges (grouped by metric, one line per child),
* histogram summaries (count / mean / per-bucket distribution),
* the plan cache counters (when the engine has been imported),
* deep-profiling kernel / rule / decision tables (when a
  :func:`repro.obs.profile.profiling` block ran).

Plain text on purpose — this is the thing a benchmark session or a REPL
prints, not an API (machine consumers use
:func:`repro.obs.export.json_snapshot`).
"""

from __future__ import annotations

import sys
from typing import List, Optional

from . import memory as _memory
from . import metrics as _metrics
from . import profile as _profile

__all__ = ["report"]


def _fmt_labels(names, values) -> str:
    if not names:
        return ""
    return "{" + ", ".join(f"{k}={v}" for k, v in zip(names, values)) + "}"


def _metric_lines(reg) -> List[str]:
    lines: List[str] = []
    for metric in reg.collect():
        rows = []
        for labelvalues, child in metric.samples():
            tag = _fmt_labels(metric.labelnames, labelvalues)
            if metric.kind == "histogram":
                snap = child.snapshot()
                if not snap["count"]:
                    continue
                mean = snap["sum"] / snap["count"]
                rows.append(f"  {metric.name}{tag}  count={snap['count']}"
                            f"  mean={mean:.6g}")
            elif child.value:
                rows.append(f"  {metric.name}{tag}  {child.value}")
        lines.extend(rows)
    return lines


def _table_lines(title: str, table: dict) -> List[str]:
    if not table:
        return []
    lines = [title]
    for name, row in table.items():
        cells = "  ".join(f"{k}={v:.6g}" if isinstance(v, float)
                          else f"{k}={v}" for k, v in row.items())
        lines.append(f"  {name}  {cells}")
    return lines


def report(*, registry: Optional[_metrics.Registry] = None,
           file=None) -> str:
    """Build (and print, unless ``file=False``) the summary text."""
    reg = registry if registry is not None else _metrics.REGISTRY
    lines: List[str] = ["== repro.obs report =="]

    mem = _memory.snapshot()     # publishes the footprint gauges
    metric_lines = _metric_lines(reg)
    if metric_lines:
        lines.append("-- metrics --")
        lines.extend(metric_lines)

    engine = sys.modules.get("repro.grb.engine")
    if engine is not None:
        pc = engine.plancache.stats()
        if pc.hits or pc.misses:
            lines.append("-- plan cache --")
            lines.append(f"  hits={pc.hits}  misses={pc.misses}"
                         f"  invalidations={pc.invalidations}"
                         f"  entries={pc.entries}"
                         f"  hit_rate={pc.hit_rate:.3f}")

    if mem:
        lines.append("-- memory (store footprint) --")
        for fmt, d in sorted(mem.items()):
            lines.append(f"  {fmt}  bytes={d['bytes']}  count={d['count']}")
        for row in _memory.top_stores(5):
            shape = "x".join(str(s) for s in row["shape"])
            graph = f"  graph={row['graph']}" if row["graph"] else ""
            lines.append(
                f"  top: {row['kind']} {shape} {row['format']}"
                f"  nvals={row['nvals']}  bytes={row['nbytes']}"
                f"  cache={row['cache_nbytes']}{graph}")
        audit = [r for r in _memory.format_audit() if r["savings_bytes"]]
        for row in audit[:5]:
            shape = "x".join(str(s) for s in row["shape"])
            lines.append(
                f"  audit: {row['kind']} {shape} {row['format']}"
                f" -> {row['best']} would save {row['savings_bytes']}B")

    lines.extend(_table_lines("-- kernels (deep profiling) --",
                              _profile.kernel_table()))
    lines.extend(_table_lines("-- rules (deep profiling) --",
                              _profile.rule_table()))
    lines.extend(_table_lines("-- decisions --",
                              _profile.decision_table()))

    text = "\n".join(lines)
    if file is not False:
        print(text, file=file)
    return text
