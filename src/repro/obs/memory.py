"""Store footprint: always-on byte gauges per storage format, computed
when read.

Every :class:`~repro.grb.matrix.Matrix` / :class:`~repro.grb.vector.Vector`
registers itself here once, in ``__init__`` (:func:`register`: one weak
reference).  Nothing happens at a write.  Whoever reads the footprint —
:func:`snapshot`, and through it ``obs.prometheus_text`` /
``obs.json_snapshot`` / ``obs.report()`` — sums the live owners' raw
stores' authoritative ``nbytes()`` and publishes the result into two
labelled gauges:

* ``grb_store_bytes{format}`` — authoritative bytes of live stores, and
* ``grb_store_count{format}`` — number of live stores.

So every reader sees one number, exact at the moment of the read: an
in-place write, a ``metrics.ENABLED = False`` window or a
``metrics.reset()`` cannot make it drift.  Dead owners retire through the
lock-free ``_dead`` queue, drained at each registration and each read.

Cost model: one weak reference per Matrix/Vector constructed, and one
``nbytes()`` call (a handful of attribute reads) per live store per read.

The opt-in deep tier lives in :mod:`repro.obs.profile`
(``profiling(memory=True)`` arms ``tracemalloc``); this module also feeds
the ``obs.report()`` memory section via :func:`top_stores` (per-object
byte attribution, graph labels from :mod:`repro.obs.identity`) and
:func:`format_audit` (estimated footprint of every candidate format — the
first audit the auto-format policy has ever had).
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Dict, List

from . import identity as _identity
from . import metrics as _metrics

__all__ = ["register", "snapshot", "top_stores", "format_audit",
           "STORE_BYTES", "STORE_COUNT"]

STORE_BYTES = _metrics.gauge(
    "grb_store_bytes",
    "Authoritative bytes held by live Matrix/Vector stores",
    labels=("format",))
STORE_COUNT = _metrics.gauge(
    "grb_store_count",
    "Number of live Matrix/Vector stores",
    labels=("format",))

#: Weak references to every live owner, keyed by the reference's own id
#: (the reference lives in this dict until retired, so its id cannot be
#: reused meanwhile).
_live: Dict[int, weakref.ref] = {}
#: References whose owner died, awaiting retirement.  A weakref callback
#: runs inside garbage collection — which can trigger at ANY allocation,
#: on any thread — so it only enqueues (``deque.append`` is atomic and
#: lock-free).
_dead: deque = deque()


def _retire_dead() -> None:
    while True:
        try:
            ref = _dead.popleft()
        except IndexError:
            return
        _live.pop(id(ref), None)


def register(owner) -> None:
    """Track ``owner`` (a Matrix or Vector) for the footprint gauges."""
    _retire_dead()
    ref = weakref.ref(owner, _dead.append)
    _live[id(ref)] = ref


def _owners() -> list:
    """The live owners (``dict.copy`` runs no Python code, so another
    thread's registration cannot interleave with it)."""
    _retire_dead()
    return [o for ref in _live.copy().values() if (o := ref()) is not None]


_NONE = {"bytes": 0, "count": 0}


def snapshot() -> Dict[str, dict]:
    """``{format: {"bytes": int, "count": int}}`` over the live stores.

    Also publishes the totals into ``grb_store_bytes`` /
    ``grb_store_count`` (a format no live store holds reads 0), regardless
    of ``metrics.ENABLED``: the gauges state a fact about the heap, they
    count no events.
    """
    out: Dict[str, dict] = {}
    for owner in _owners():
        st = owner._store
        tally = out.setdefault(st.fmt, {"bytes": 0, "count": 0})
        tally["bytes"] += int(st.nbytes())
        tally["count"] += 1
    for metric, key in ((STORE_BYTES, "bytes"), (STORE_COUNT, "count")):
        seen = {labelvalues[0] for labelvalues, _ in metric.samples()}
        for fmt in seen | out.keys():
            metric.labels(fmt).value = out.get(fmt, _NONE)[key]
    return out


# ---------------------------------------------------------------------------
# report tier: per-object attribution and the format-policy footprint audit
# ---------------------------------------------------------------------------

def _value_itemsize(st) -> int:
    for attr in ("values", "cvalues", "dense", "vals"):
        a = getattr(st, attr, None)
        if a is not None:
            return int(a.dtype.itemsize)
    return 8


def top_stores(n: int = 10) -> List[dict]:
    """The ``n`` largest live stores by authoritative bytes.

    Reads the raw stores (staged writes never flushed) and labels each owner
    with its registered graph where :mod:`repro.obs.identity` knows one.
    """
    rows = []
    known = _identity.labels()
    for owner in _owners():
        st = owner._store
        is_matrix = hasattr(owner, "ncols")
        rows.append({
            "kind": "Matrix" if is_matrix else "Vector",
            "shape": ((owner.nrows, owner.ncols) if is_matrix
                      else (owner.size,)),
            "format": st.fmt,
            "nvals": int(st.nvals),
            "nbytes": int(st.nbytes()),
            "cache_nbytes": int(st.cache_nbytes()),
            "graph": known.get(owner._uid) if is_matrix else None,
        })
    rows.sort(key=lambda r: r["nbytes"], reverse=True)
    return rows[:n]


def _matrix_estimates(st) -> Dict[str, int]:
    itemsize = _value_itemsize(st)
    nvals = int(st.nvals)
    return {
        "csr": (st.nrows + 1) * 8 + nvals * (8 + itemsize),
        "bitmap": st.nrows * st.ncols * (1 + itemsize),
    }


def _vector_estimates(st) -> Dict[str, int]:
    itemsize = _value_itemsize(st)
    nvals = int(st.nvals)
    return {
        "sparse": nvals * (8 + itemsize),
        "bitmap": st.size * (1 + itemsize),
    }


def format_audit() -> List[dict]:
    """Estimated footprint of every candidate format, per live store.

    ``best`` names the smallest estimate; ``savings_bytes`` is what
    switching would reclaim (0 when the policy's choice is already the
    smallest).  Estimates use the array-shape arithmetic of each format,
    not materialised conversions, so the audit is read-only and cheap.
    """
    rows = []
    known = _identity.labels()
    for owner in _owners():
        st = owner._store
        is_matrix = hasattr(owner, "ncols")
        est = _matrix_estimates(st) if is_matrix else _vector_estimates(st)
        best = min(est, key=est.get)
        actual = int(st.nbytes())
        rows.append({
            "kind": "Matrix" if is_matrix else "Vector",
            "shape": ((owner.nrows, owner.ncols) if is_matrix
                      else (owner.size,)),
            "format": st.fmt,
            "actual_bytes": actual,
            "estimates": est,
            "best": best,
            "savings_bytes": max(0, actual - est[best]),
            "graph": known.get(owner._uid) if is_matrix else None,
        })
    rows.sort(key=lambda r: r["savings_bytes"], reverse=True)
    return rows

