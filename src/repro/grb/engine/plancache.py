"""The keyed plan cache: repeated identical queries skip the chooser.

Every dispatch of a cacheable plan is keyed by its **shape** — the
operation kind, the operator, the descriptor bits (mask kind, accumulator,
replace, transposition), the epilogue chain, and each operand's uid —
mapped to the claiming rule, its decision detail, and the reusable
**operand feeds** the rule's analysis computed (the dot kernel's
mask-coordinate/length arrays and probe stage, the fallback paths'
live-row sets).  On a hit, dispatch jumps straight to the claimed rule
with the feeds re-attached: none of the per-call analysis — probe and
flop counting, live-row scans — runs at all.

Operand keys
------------
An operand's key is ``(uid, store_version)``: the uid names one object
for the process lifetime and the version bumps on every mutation, so a
stale entry can never be *served* — it simply stops matching.  The key
names an object, not how it was made: a repeated query hits when it
re-reads the *same* operands.  Algorithms that derive their working
matrices from a graph (triangle counting's degree-sorted ``L``/``U``)
keep them on the :class:`~repro.lagraph.Graph`, beside ``G.AT``, until
``invalidate_properties()`` drops them; a rebuilt operand is a new
object and a plain miss.

Safety
------
Planner rules are result-identical by the engine's core invariant (the
parity suite forces every rule against the reference), so even a colliding
*rule pin* could only cost performance — but the feeds are content-derived
arrays, so feed reuse is keyed exactly: every operand of the plan,
the mask's object included, contributes its uid and store version.
Version keys make invalidation implicit; an entry whose shape matches but
whose versions moved is overwritten (counted as an invalidation).  An
entry also dies with any of its operands: a uid is never reused, so once
an operand is collected its entries can never hit again, and the next
:func:`store` drops them (a weak reference per operand reports the death).

Counters (hits / misses / invalidations) are process-global and surfaced
in the decision records (:func:`repro.obs.decision`) — each cached
dispatch's record carries ``plan_cache: "hit" | "miss"``, and
invalidations emit their own ``op="plancache"`` record.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
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
#: and flop counting, mask coordinate splits, live-row scans — all
#: O(nnz)) dwarfs a cache probe.  Every other kind's ``applies`` chain is
#: a handful of scalar checks, so keying it would cost more than it
#: saves.
CACHEABLE_OPS = frozenset({"mxm"})

#: Private ``plan.meta`` keys holding rule-computed operand feeds that are
#: safe to reuse under an exact signature match (content-derived arrays).
#: ``_dot`` / ``_rows`` come from the chooser's analysis; ``_dot_probe`` —
#: the dot kernel's structure-resolution stage — is produced by the run
#: itself and picked up by the post-run feed update.
FEED_KEYS = ("_dot", "_dot_probe", "_rows")

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
    #: uids (see :mod:`repro.obs.identity`); ``None`` when no registered
    #: graph holds any of the operands.
    graph: Optional[str] = None
    #: Weak references to the operands, each reporting its referent's
    #: death to :data:`_dead` (they die unfired with the entry).
    refs: tuple = ()


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
#: Shapes an operand of which was collected — appended by weak-reference
#: callbacks (lock-free, like ``repro.obs.memory``'s retirement queue) and
#: dropped from the cache at the next :func:`store`.
_dead: deque = deque()


def _cost_fingerprint() -> tuple:
    """Everything besides the plan itself that decides which ``mxm`` rule
    claims: the cost-model constants the rules consult.

    Part of every key: a decision cached under one tuning must never be
    served under another — the parity suite *forces* paths by
    monkeypatching these, and a stale pin would silently measure the wrong
    kernel.
    """
    return (cost.FUSION_ENABLED, cost.DOT_PROBE_COST, cost.MASKED_MIN_NNZ,
            cost.LIVE_ROW_FRACTION)


def shape_key(plan) -> tuple:
    """The cache key of a plan, as ``(shape, versions, operands)``.

    ``shape`` holds the operation kind, operator, descriptor bits,
    epilogue chain, mask kind and, last, every operand's uid (the mask's
    last); ``versions`` the matching store-version tuple — a shape hit
    with moved versions is an invalidation, not an unrelated miss —
    and ``operands`` the objects themselves (:func:`store` watches them).
    Thunks are *not* part of the key: no rule's choice or feeds depend on
    them (they parameterise the result, which every rule computes
    identically).
    """
    m = plan.mask
    objs = plan.args if m is None else (*plan.args, m.obj)
    # the output contributes nothing: no cacheable rule's ``applies``
    # reads the output at all (mxm decisions depend on the inputs and the
    # mask alone; the write-back runs fresh every dispatch), so a query's
    # fresh output object must not poison the key.  Revisit if an op whose
    # rules inspect ``plan.out`` ever becomes cacheable (mxv's
    # fused-dense-accum reads the output's fill, for example).
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
        None if m is None else (m.structural, m.complemented),
        _cost_fingerprint(),
        tuple(obj._uid for obj in objs),    # last: read for attribution
    )
    return shape, tuple(obj.store_version for obj in objs), objs


def lookup(key) -> Optional[CacheEntry]:
    """The entry for ``key`` (from :func:`shape_key`), or ``None``.

    A shape match with moved versions counts as an invalidation (the entry
    is dropped; the caller will re-analyse and :func:`store`)."""
    global _hits, _misses, _invalidations, _total_bytes
    shape, versions, _ = key
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
        # the graph label is the registered owner of an operand in the
        # shape, the shape key a stable fingerprint for correlating
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
    shape, versions, objs = key
    nbytes = _feed_nbytes(feeds)
    if nbytes > FEED_ENTRY_BYTES_CAP:
        feeds, nbytes = {}, 0       # decision still cached, feeds too large
    graph = _identity.find(shape[-1])

    def died(_ref, shape=shape):
        _dead.append(shape)

    refs = tuple(weakref.ref(obj, died) for obj in objs)
    with _lock:
        while _dead:
            gone = _entries.pop(_dead.popleft(), None)
            if gone is not None:
                _total_bytes -= gone.nbytes
        old = _entries.get(shape)
        if old is not None:
            _total_bytes -= old.nbytes
        _entries[shape] = CacheEntry(versions, rule, dict(detail), feeds,
                                     nbytes, graph, refs)
        _entries.move_to_end(shape)
        _total_bytes += nbytes
        _evict_locked()


def update_feeds(key, feeds: dict) -> None:
    """Merge run-produced feeds into an existing entry (post-run pickup).

    Only applies when the entry still matches the key's versions — a
    concurrent invalidation simply drops the update."""
    global _total_bytes
    shape, versions, _ = key
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
        _dead.clear()
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
