"""Deep kernel profiling: wall + CPU time, nnz, chooser mispredictions.

Two cost tiers:

* **Off** (default): every :func:`profiled` kernel pays one ``ContextVar``
  read; nothing else happens.
* **On** (inside a :func:`profiling` block, context-local like the trace
  sink): kernel wrappers measure wall (``perf_counter``) and CPU
  (``process_time``) time plus input/output nnz and bytes, rule dispatches
  report per-rule timings, and planner decision records arrive through
  :func:`decision` — chooser decisions carrying exact work counts are
  re-judged against the cost model, so the aggregate tables report a
  **misprediction rate** per rule, not just call counts.

Decision records have one channel and one gate: a call site builds its
dict only under :func:`deciding` (a trace sink *or* deep profiling is
installed in this context) and hands it to :func:`decision`, which
attaches it to the collector and folds it into the decision table.  The
exact-count fields some records carry (``expand_flops``) cost O(nnz) and
are gated on :func:`deep_active` alone — only the profiler re-judges.

Aggregation is process-global and locked: concurrent profiled requests
merge into one set of tables, read via :func:`kernel_table`,
:func:`rule_table` and :func:`decision_table` (or the combined
``obs.report()``).

This module must stay importable before :mod:`repro.grb` exists — the
engine imports it — so the cost model is imported lazily, inside the one
function that needs it.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Optional

from . import trace as _trace

__all__ = ["deep_active", "memory_active", "deciding", "decision",
           "profiling", "profiled", "record_kernel", "record_rule",
           "kernel_table", "rule_table", "decision_table", "reset"]

_deep_var: ContextVar[bool] = ContextVar("repro_obs_deep", default=False)
_mem_var: ContextVar[bool] = ContextVar("repro_obs_deep_mem", default=False)


def deep_active() -> bool:
    """Whether deep profiling is on in this context (kernel wrappers and
    expensive-field computation gate on this)."""
    return _deep_var.get()


def deciding() -> bool:
    """Whether anything in this context consumes planner decision records
    (a trace sink or deep profiling) — the one predicate every site that
    builds a record for :func:`decision` gates on."""
    return _trace.active() or _deep_var.get()


def memory_active() -> bool:
    """Whether the tracemalloc memory tier is armed in this context."""
    return _mem_var.get()


@contextmanager
def profiling(memory: bool = False):
    """Enable deep profiling for the block (context-local).

    ``memory=True`` additionally arms :mod:`tracemalloc` for the block:
    every profiled kernel then records its allocation delta and peak
    working set (the ``mem_alloc`` / ``mem_peak`` columns of
    :func:`kernel_table`) and emits a ``memory:<kernel>`` instant when a
    trace collector is active.  Tracemalloc costs ~2-4× on allocation-
    heavy code, which is why it is a separate opt-in inside an opt-in;
    it is started only if not already tracing and stopped on exit only
    if this block started it.
    """
    token = _deep_var.set(True)
    mem_token = None
    started_tracing = False
    if memory:
        mem_token = _mem_var.set(True)
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            started_tracing = True
    try:
        yield
    finally:
        _deep_var.reset(token)
        if mem_token is not None:
            _mem_var.reset(mem_token)
            if started_tracing:
                tracemalloc.stop()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

class _Stat:
    __slots__ = ("calls", "wall", "cpu", "nnz_in", "nnz_out", "bytes",
                 "mem_alloc", "mem_peak", "units", "unit_wall")

    def __init__(self):
        self.calls = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.nnz_in = 0
        self.nnz_out = 0
        self.bytes = 0
        self.mem_alloc = 0      # summed allocation delta (may be negative)
        self.mem_peak = 0       # max per-call peak working set
        self.units = 0          # rules: summed priced units (probes/flops)
        self.unit_wall = 0.0    # rules: wall time of the calls that had them

    def add(self, wall, cpu, nnz_in, nnz_out, nbytes,
            mem_alloc=0, mem_peak=0):
        self.calls += 1
        self.wall += wall
        self.cpu += cpu
        self.nnz_in += nnz_in
        self.nnz_out += nnz_out
        self.bytes += nbytes
        self.mem_alloc += mem_alloc
        if mem_peak > self.mem_peak:
            self.mem_peak = mem_peak

    def row(self) -> dict:
        return {"calls": self.calls, "wall_s": self.wall, "cpu_s": self.cpu,
                "nnz_in": self.nnz_in, "nnz_out": self.nnz_out,
                "bytes": self.bytes, "mem_alloc": self.mem_alloc,
                "mem_peak": self.mem_peak}


class _Decision:
    __slots__ = ("calls", "judged", "mispredicted")

    def __init__(self):
        self.calls = 0
        self.judged = 0
        self.mispredicted = 0

    def row(self) -> dict:
        rate = self.mispredicted / self.judged if self.judged else 0.0
        return {"calls": self.calls, "judged": self.judged,
                "mispredicted": self.mispredicted,
                "misprediction_rate": rate}


_lock = threading.Lock()
_kernels: Dict[str, _Stat] = {}
_rules: Dict[tuple, _Stat] = {}
_decisions: Dict[tuple, _Decision] = {}


def record_kernel(name: str, wall: float, cpu: float, nnz_in: int = 0,
                  nnz_out: int = 0, nbytes: int = 0, mem_alloc: int = 0,
                  mem_peak: int = 0) -> None:
    with _lock:
        stat = _kernels.get(name)
        if stat is None:
            stat = _kernels[name] = _Stat()
        stat.add(wall, cpu, nnz_in, nnz_out, nbytes, mem_alloc, mem_peak)


def record_rule(op: str, rule: str, wall: float, cpu: float,
                nnz_in: int = 0, nnz_out: int = 0,
                units: Optional[int] = None) -> None:
    """Fold one rule execution into the rule table.  ``units`` is the work
    the cost model priced the call at (``None`` when nothing priced it)."""
    with _lock:
        stat = _rules.get((op, rule))
        if stat is None:
            stat = _rules[(op, rule)] = _Stat()
        stat.add(wall, cpu, nnz_in, nnz_out, 0)
        if units is not None:
            stat.units += units
            stat.unit_wall += wall


def kernel_table() -> Dict[str, dict]:
    with _lock:
        return {k: s.row() for k, s in sorted(_kernels.items())}


def rule_table() -> Dict[str, dict]:
    """Per-rule rows: the kernel columns plus ``units`` (summed priced
    units: dot probes, or the exact flops of a declined dot) and
    ``s_per_unit`` (wall time of the priced calls over their units,
    ``None`` until a call was priced) — the measured side of the cost
    model's per-unit constants."""
    with _lock:
        return {f"{op}/{rule}": {
                    **s.row(), "units": s.units,
                    "s_per_unit": s.unit_wall / s.units if s.units else None}
                for (op, rule), s in sorted(_rules.items())}


def decision_table() -> Dict[str, dict]:
    with _lock:
        return {f"{op}/{rule}": d.row()
                for (op, rule), d in sorted(_decisions.items())}


def reset() -> None:
    with _lock:
        _kernels.clear()
        _rules.clear()
        _decisions.clear()


# ---------------------------------------------------------------------------
# decision records
# ---------------------------------------------------------------------------

def decision(event: dict) -> None:
    """Deliver one planner decision record: attached to the open span of
    this context's trace collector, and — under deep profiling — folded
    into the decision table.  Callers gate on :func:`deciding`.

    ``mxm`` chooser records carrying exact work counts are re-judged: the
    cost model is re-run on the recorded counts, and a decision whose
    chosen method differs from the judged ideal counts as a misprediction
    (``decision_table()["misprediction_rate"]``, checked in
    ``tests/obs/test_profile.py``).
    """
    _trace.decision(event)
    rule = event.get("rule")
    if rule is None or not _deep_var.get():
        return
    op = event.get("op", "?")
    verdict: Optional[bool] = None
    if op == "mxm" and "dot_probes" in event and "expand_flops" in event:
        from ..grb.engine import cost  # lazy: obs must import before grb
        ideal = cost.choose_masked_method(
            event["dot_probes"], event["expand_flops"],
            scipy_path=event.get("scipy_path", False),
            mask_nvals=event.get("mask_nvals", 0),
            est_out_nnz=event.get("est_out_nnz", 0.0))
        verdict = event.get("method") != ideal
    with _lock:
        d = _decisions.get((op, rule))
        if d is None:
            d = _decisions[(op, rule)] = _Decision()
        d.calls += 1
        if verdict is not None:
            d.judged += 1
            if verdict:
                d.mispredicted += 1


# ---------------------------------------------------------------------------
# kernel wrapper
# ---------------------------------------------------------------------------

def _nnz_of(args) -> int:
    total = 0
    for a in args:
        size = getattr(a, "size", None)
        if size is not None and getattr(a, "ndim", None) is not None:
            total += int(size)
    return total


def _nbytes_of(args) -> int:
    total = 0
    for a in args:
        nb = getattr(a, "nbytes", 0)
        if callable(nb):     # a storage object (nbytes is a method there)
            try:
                nb = nb()
            except Exception:
                nb = 0
        total += int(nb)
    return total


def _out_nnz(out) -> int:
    if isinstance(out, tuple):
        return _nnz_of(out)
    size = getattr(out, "size", None)
    if size is not None and getattr(out, "ndim", None) is not None:
        return int(size)
    return 0


def profiled(name: str):
    """Decorate a ``_kernels`` primitive with deep-profiling measurement.

    Inactive cost is one ``ContextVar`` read; active cost adds two clock
    pairs and the nnz/bytes scans of the positional array arguments —
    exact per-call input/output work, gated exactly like the decision
    records' exact-count fields.
    """
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _deep_var.get():
                return fn(*args, **kwargs)
            nnz_in = _nnz_of(args)
            nbytes = _nbytes_of(args)
            mem = _mem_var.get() and tracemalloc.is_tracing()
            if mem:
                tracemalloc.reset_peak()
                cur0 = tracemalloc.get_traced_memory()[0]
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            mem_alloc = mem_peak = 0
            if mem:
                cur1, peak1 = tracemalloc.get_traced_memory()
                mem_alloc = cur1 - cur0
                mem_peak = max(0, peak1 - cur0)
                if _trace.current_sink() is not None:
                    _trace.instant(f"memory:{name}", "memory",
                                   alloc=mem_alloc, peak=mem_peak)
            record_kernel(name, wall, cpu, nnz_in, _out_nnz(out), nbytes,
                          mem_alloc, mem_peak)
            return out
        wrapper.__wrapped__ = fn
        return wrapper
    return deco
