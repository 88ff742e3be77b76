"""The keyed plan cache: repeated identical queries skip the chooser.

Every dispatch of a cacheable plan is keyed by its **shape** — the
operation kind, the operator, the descriptor bits (mask kind, accumulator,
replace, transposition), the epilogue chain, and a *signature* per operand
— mapped to the claiming rule, its decision detail, and the reusable
**operand feeds** the rule's analysis computed (the dot kernel's
mask-coordinate/length arrays, the fallback paths' live-row sets, the
ewise rules' bitmap views).  On a hit, dispatch jumps straight to the
claimed rule with the feeds re-attached: none of the per-call analysis —
probe counting, flop sampling, live-row scans — runs at all.

Operand signatures
------------------
An operand's signature is ``(uid, store_version)``: the uid is unique for
the process lifetime and the version bumps on every mutation, so a stale
entry can never be *served* — it simply stops matching.  Objects derived
deterministically from others (``pattern()``, ``tril``/``triu``/
``select``, ``ewise_add`` conveniences, ``extract``, the cached
transpose) additionally carry a **lineage** signature naming the
derivation and the parents' signatures; two derivations of the same
parents at the same versions are bit-identical by construction, so
repeated queries that rebuild their working matrices from a registered
graph (``A.pattern().tril(-1)`` …) still hit.

Safety
------
Planner rules are result-identical by the engine's core invariant (the
parity suite forces every rule against the reference), so even a colliding
*rule pin* could only cost performance — but the feeds are content-derived
arrays, so feed reuse is keyed exactly: every operand of the plan,
including the mask's object and the output, contributes its signature.
Version keys make invalidation implicit; an entry whose shape matches but
whose versions moved is overwritten (counted as an invalidation).

Counters (hits / misses / invalidations) are process-global and surfaced
in the decision records (:func:`repro.obs.decision`) — each cached
dispatch's record carries ``plan_cache: "hit" | "miss"``, and
invalidations emit their own ``op="plancache"`` record.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ...obs import identity as _identity
from ...obs import metrics as _metrics
from ...obs import profile as _profile
from . import cost

__all__ = ["CacheEntry", "PlanCacheStats", "shape_key", "lookup", "store",
           "clear", "stats", "set_capacity", "CACHEABLE_OPS", "FEED_KEYS"]

#: Always-on cache-outcome counter (hit / miss / invalidate), the metric
#: twin of the :func:`stats` snapshot.
_EVENTS = _metrics.counter(
    "grb_plan_cache_total", "Plan-cache outcomes by event kind",
    labels=("event",))

#: Operation kinds routed through the cache.  Only ``mxm`` qualifies: the
#: masked-SpGEMM chooser is the one analysis whose per-call cost (probe
#: counting, flop sampling, mask coordinate splits, live-row scans — all
#: O(nnz)) dwarfs a cache probe.  Every other kind's ``applies`` chain is
#: a handful of scalar checks, so keying it would cost more than it
#: saves.
CACHEABLE_OPS = frozenset({"mxm"})

#: Private ``plan.meta`` keys holding rule-computed operand feeds that are
#: safe to reuse under an exact signature match (content-derived arrays).
#: ``_dot`` / ``_rows`` come from the chooser's analysis; ``_dot_probe`` —
#: the dot kernel's structure-resolution stage — is produced by the run
#: itself and picked up by the post-run feed update.
FEED_KEYS = ("_dot", "_dot_probe", "_bitmaps", "_rows")

#: Per-entry cap on cached feed bytes (a probe feed scales with the
#: product's structural hits) and the total the cache may pin overall;
#: beyond the total, least-recently-used entries are evicted.
FEED_ENTRY_BYTES_CAP = 1 << 27  # cost: mechanism-cap (cache memory ceiling, not a chooser threshold)
FEED_TOTAL_BYTES_CAP = 1 << 28  # cost: mechanism-cap (cache memory ceiling, not a chooser threshold)


def _feed_nbytes(value) -> int:
    if isinstance(value, (tuple, list)):
        return sum(_feed_nbytes(v) for v in value)
    if isinstance(value, dict):
        return sum(_feed_nbytes(v) for v in value.values())
    return int(getattr(value, "nbytes", 0))


@dataclass
class CacheEntry:
    versions: tuple
    rule: str
    detail: dict
    feeds: dict
    nbytes: int = 0
    #: Attribution label resolved at store time from the shape's operand
    #: identities (see :mod:`repro.obs.identity`); ``None`` when no
    #: registered graph's signature appears among the operands.
    graph: Optional[str] = None


@dataclass
class PlanCacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    entries: int = 0
    feed_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


_lock = threading.Lock()
_entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
_capacity = 1024
_total_bytes = 0
_hits = 0
_misses = 0
_invalidations = 0


def _cost_fingerprint() -> tuple:
    """Everything besides the plan itself that decides which ``mxm`` rule
    claims: the cost-model constants the rules consult.

    Part of every key: a decision cached under one tuning must never be
    served under another — the parity suite *forces* paths by
    monkeypatching these, and a stale pin would silently measure the wrong
    kernel.  The deep-profiling bit rides along because cached decision
    details carry the exact-flop field only when the profiler, which
    re-judges them, was on at analysis time.
    """
    return (cost.FUSION_ENABLED, cost.DOT_PROBE_COST, cost.SCIPY_FLOP_COST,
            cost.EXPAND_FLOP_COST, cost.FLOP_SAMPLE, cost.MASKED_MIN_NNZ,
            cost.LIVE_ROW_FRACTION, cost.DOT_WRITE_COST,
            cost.FALLBACK_WRITE_COST, _profile.deep_active())


def _operand_sig(obj):
    """``(ident, version)`` — uid-based, or lineage-based when still valid."""
    sig = getattr(obj, "_plan_sig", None)
    if sig is None:
        return None
    return sig()


def shape_key(plan) -> Optional[tuple]:
    """The cache key of a plan, as ``(shape, versions)``.

    ``shape`` holds the operation kind, operator, descriptor bits,
    epilogue chain and every operand's *identity*; ``versions`` the
    matching content-version tuple — a shape hit with moved versions is an
    invalidation, not an unrelated miss.  Returns ``None`` when any
    operand cannot be signed (the plan is then simply not cached).
    Thunks are *not* part of the key: no rule's choice or feeds depend on
    them (they parameterise the result, which every rule computes
    identically).
    """
    idents = []
    versions = []
    for obj in plan.args:
        s = _operand_sig(obj)
        if s is None:
            return None
        idents.append(s[0])
        versions.append(s[1])
    m = plan.mask
    if m is not None:
        s = _operand_sig(m.obj)
        if s is None:
            return None
        idents.append(("mask", m.structural, m.complemented, s[0]))
        versions.append(s[1])
    # the output contributes nothing: no cacheable rule's ``applies``
    # reads the output at all (mxm decisions depend on the inputs and the
    # mask alone; the write-back runs fresh every dispatch), so a query's
    # fresh output object must not poison the key — and an ``out=None``
    # analysis pass (engine.preplan's decision warming) shares its entry
    # with the real dispatches.  Revisit if an op whose rules inspect
    # ``plan.out`` ever becomes cacheable (mxv's fused-dense-accum reads
    # the output's fill, for example).
    op = plan.operator
    shape = (
        plan.op,
        (type(op).__name__, getattr(op, "name", None),
         getattr(op, "uses_coords", None)) if op is not None else None,
        getattr(plan.accum, "name", None) if plan.accum is not None else None,
        plan.replace,
        plan.transpose_b,
        tuple((e.kind, getattr(e.op, "name", None), e.absolute)
              for e in plan.epilogues),
        tuple(idents),
        _cost_fingerprint(),
    )
    return shape, tuple(versions)


def lookup(key) -> Optional[CacheEntry]:
    """The entry for ``key = (shape, versions)``, or ``None``.

    A shape match with moved versions counts as an invalidation (the entry
    is dropped; the caller will re-analyse and :func:`store`)."""
    global _hits, _misses, _invalidations, _total_bytes
    shape, versions = key
    invalidated = None
    with _lock:
        entry = _entries.get(shape)
        if entry is not None and entry.versions == versions:
            _entries.move_to_end(shape)
            _hits += 1
            if _metrics.ENABLED:
                _EVENTS.labels("hit").inc()
            return entry
        if entry is not None:
            del _entries[shape]
            _total_bytes -= entry.nbytes
            _invalidations += 1
            invalidated = entry
        _misses += 1
    if _metrics.ENABLED:
        _EVENTS.labels("miss").inc()
        if invalidated is not None:
            _EVENTS.labels("invalidate").inc()
    if invalidated is not None and _profile.deciding():
        # graph/shape_key make serve-side invalidation storms attributable:
        # the graph label is the registered owner of an operand identity in
        # the shape, the shape key a stable fingerprint for correlating
        # repeated invalidations of one plan shape across records
        _profile.decision({"op": "plancache", "event": "invalidate",
                           "plan_op": shape[0], "rule": invalidated.rule,
                           "graph": invalidated.graph,
                           "shape_key": format(hash(shape) & 0xFFFFFFFFFFFF,
                                               "012x")})
    return None


def _evict_locked() -> None:
    global _total_bytes
    while len(_entries) > _capacity or _total_bytes > FEED_TOTAL_BYTES_CAP:
        if not _entries:
            break
        _, old = _entries.popitem(last=False)
        _total_bytes -= old.nbytes


def store(key, rule: str, detail: dict, feeds: dict) -> None:
    global _total_bytes
    shape, versions = key
    nbytes = _feed_nbytes(feeds)
    if nbytes > FEED_ENTRY_BYTES_CAP:
        feeds, nbytes = {}, 0       # decision still cached, feeds too large
    graph = _identity.find(shape)
    with _lock:
        old = _entries.get(shape)
        if old is not None:
            _total_bytes -= old.nbytes
        _entries[shape] = CacheEntry(versions, rule, dict(detail), feeds,
                                     nbytes, graph)
        _entries.move_to_end(shape)
        _total_bytes += nbytes
        _evict_locked()


def update_feeds(key, feeds: dict) -> None:
    """Merge run-produced feeds into an existing entry (post-run pickup).

    Only applies when the entry still matches the key's versions — a
    concurrent invalidation simply drops the update."""
    global _total_bytes
    shape, versions = key
    nbytes = _feed_nbytes(feeds)
    if nbytes > FEED_ENTRY_BYTES_CAP:
        return
    with _lock:
        entry = _entries.get(shape)
        if entry is None or entry.versions != versions:
            return
        if all(k in entry.feeds for k in feeds):
            return
        _total_bytes -= entry.nbytes
        entry.feeds = dict(feeds)
        entry.nbytes = nbytes
        _total_bytes += nbytes
        _evict_locked()


def clear() -> None:
    """Drop every entry and zero the counters."""
    global _hits, _misses, _invalidations, _total_bytes
    with _lock:
        _entries.clear()
        _hits = _misses = _invalidations = 0
        _total_bytes = 0


def set_capacity(n: int) -> None:
    global _capacity
    with _lock:
        _capacity = int(n)
        _evict_locked()


def stats() -> PlanCacheStats:
    with _lock:
        return PlanCacheStats(_hits, _misses, _invalidations, len(_entries),
                              _total_bytes)
