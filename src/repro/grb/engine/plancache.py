"""Counters of the masked-dot analysis memo: hits, misses, what it holds.

The masked-dot rule (``mxm-masked-dot``) keeps its analysis of a product
on the product's mask, the way LAGraph keeps ``G->AT`` on the graph
(paper Sec. II-B): the matrix's one memo slot, ``Matrix._dot``, holds the
allowed mask keys and coordinates, the per-entry length pairs, the exact
probe and flop counts, and the dot kernel's probe stage.  The memo is
keyed on the operands' ``(uid, store_version)``, the ``transpose_b`` bit,
the mask's structural bit and which operand values the multiply reads;
``Matrix._invalidate()`` drops it whenever the mask itself changes.  So a
stale analysis is never served, and it dies with its mask.

This module only counts: :func:`count` is called once per analysis the
rule looks up (``hit`` when the memo served it), and :func:`stats` adds
what the live memos hold, read from :mod:`repro.obs.memory`'s live owners
when asked.  The same outcome rides on the decision record as
``plan_cache: "hit" | "miss"``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ...obs import memory as _memory
from ...obs import metrics as _metrics

__all__ = ["PlanCacheStats", "count", "clear", "stats"]

#: Always-on outcome counter (hit / miss), the metric twin of
#: :func:`stats`.
_EVENTS = _metrics.counter(
    "grb_plan_cache_total", "Masked-dot analysis memo outcomes by event kind",
    labels=("event",))
_HIT = _EVENTS.labels("hit")
_MISS = _EVENTS.labels("miss")


@dataclass
class PlanCacheStats:
    hits: int = 0
    misses: int = 0
    #: live matrices holding a memo, and the bytes those memos hold
    entries: int = 0
    feed_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


_lock = threading.Lock()
_hits = 0
_misses = 0


def count(hit: bool) -> None:
    """Record one memo lookup of the masked-dot analysis."""
    global _hits, _misses
    with _lock:
        if hit:
            _hits += 1
        else:
            _misses += 1
    if _metrics.ENABLED:
        (_HIT if hit else _MISS).inc()


def clear() -> None:
    """Zero the counters (the memos live on their masks)."""
    global _hits, _misses
    with _lock:
        _hits = _misses = 0


def stats() -> PlanCacheStats:
    with _lock:
        out = PlanCacheStats(_hits, _misses)
    for owner in _memory._owners():
        memo = getattr(owner, "_dot", None)
        if memo is not None:
            out.entries += 1
            out.feed_bytes += memo.nbytes()
    return out
