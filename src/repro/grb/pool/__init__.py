"""``repro.grb.pool`` — multiprocess shared-memory execution.

The paper's measurements lean on SuiteSparse's internal OpenMP
parallelism; a pure-Python substrate gets none of that for free — the
GIL serialises every numpy epilogue and SciPy's released-GIL sections
are too fine-grained to scale a whole kernel.  This package takes the
process route instead:

* **Placement** (:mod:`.shm`): operand stores are published once into
  named shared-memory segments; workers attach zero-copy numpy views.
* **Workers** (:mod:`.worker`, :mod:`.pool`): a persistent spawn-safe
  pool serves row-blocked kernel tasks over private pipes, with
  death-detection, sibling retry, and per-task obs counter merging.
* **Rules** (:mod:`repro.grb.engine.pool_rules`): planner rules shard
  mask-live / frontier rows into blocks and reassemble worker results
  with the same merges the serial kernels use — bit-identical by
  construction.

Everything is off by default: ``REPRO_POOL_WORKERS=0`` (or unset) keeps
execution in-process and bit-for-bit identical to the serial engine; the
rules never claim a plan and no process is ever spawned.

Public surface
--------------
``configured_workers() / pool_enabled()``
    the ``REPRO_POOL_WORKERS`` knob, read fresh each call (tests flip it
    with ``monkeypatch.setenv``).
``get_pool() / shutdown_pool()``
    the process-global :class:`~repro.grb.pool.pool.WorkerPool`,
    (re)built lazily to the configured size and torn down at interpreter
    exit.
``matrix_ref() / publish_graph()``
    picklable operand references — a shared-memory placement for big
    operands, inline buffers for small ones — and the serve layer's
    register-time pre-placement of a graph's operand feeds.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import List, Optional

import numpy as np

__all__ = [
    "ENV_WORKERS", "configured_workers", "pool_enabled",
    "get_pool", "shutdown_pool", "arena",
    "matrix_ref", "publish_graph", "PoolTaskError",
]

#: Worker-count environment knob.  0 / unset = fully in-process (default).
ENV_WORKERS = "REPRO_POOL_WORKERS"

_lock = threading.Lock()
_pool = None
_arena = None


def configured_workers() -> int:
    """The requested worker count (0 = pool disabled)."""
    raw = os.environ.get(ENV_WORKERS, "").strip()
    if not raw:
        return 0
    try:
        return max(int(raw), 0)
    except ValueError:
        return 0


def pool_enabled() -> bool:
    return configured_workers() > 0


def get_pool():
    """The live pool at the configured size, or ``None`` when disabled.

    A size change (the pool tests move between 2 and 4 workers in one
    process) tears the old pool down and spawns a fresh one.
    """
    global _pool
    n = configured_workers()
    if n <= 0:
        return None
    with _lock:
        if _pool is not None and _pool.size != n:
            _pool.close()
            _pool = None
        if _pool is None:
            from .pool import WorkerPool
            _pool = WorkerPool(n)
        return _pool


def arena():
    """The process-global placement arena (created on first touch)."""
    global _arena
    with _lock:
        if _arena is None:
            from .shm import ShmArena
            _arena = ShmArena()
        return _arena


def shutdown_pool() -> None:
    """Tear down workers and unlink every placement segment.

    Runs as an ``atexit`` callback, where an unbounded lock wait could
    wedge interpreter shutdown behind a thread that died holding ``_lock``
    — so the acquire is bounded; on timeout the segments leak to the OS
    rather than the exit hanging.
    """
    global _pool, _arena
    if not _lock.acquire(timeout=2.0):
        return
    try:
        pool, ar = _pool, _arena
        _pool = _arena = None
    finally:
        _lock.release()
    if pool is not None:
        pool.close()
    if ar is not None:
        ar.close()


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# operand references
# ---------------------------------------------------------------------------

def _view_store(m, view: str):
    """The store a view name denotes — always CSR-triple shaped, so a
    worker reconstructs exactly the arrays the serial kernel would read."""
    from ..storage import CSRStore
    st = m._S()
    if view == "csr":
        ip, ix, vv = st.csr()
        return CSRStore(m.nrows, m.ncols, ip, ix, vv)
    if view == "tcsr":
        ip, ix, vv = st.transpose_csr()
        return CSRStore(m.ncols, m.nrows, ip, ix, vv)
    raise ValueError(f"unknown operand view {view!r}")


def matrix_ref(m, view: str = "csr"):
    """A picklable operand reference for worker tasks.

    Small operands (``cost.POOL_INLINE_LIMIT``) ship inline in the task
    message — one pickle beats a segment create + attach round-trip.
    Everything else goes through the arena keyed ``(uid, version, view)``
    so repeated dispatches against an unchanged operand reuse the
    segment; older versions of the same view are unlinked on the way.
    """
    from ..engine import cost as _cost
    store = _view_store(m, view)
    meta, comps = store.export_buffers()
    seen, nbytes = set(), 0
    for arr in comps.values():
        if id(arr) not in seen:
            seen.add(id(arr))
            nbytes += int(arr.nbytes)
    if nbytes <= _cost.POOL_INLINE_LIMIT:
        return ("inline", meta,
                {k: np.ascontiguousarray(v) for k, v in comps.items()})
    key = (m._uid, m._version, view)
    ar = arena()
    ar.drop_stale(m._uid, view, m._version)
    return ("shm", ar.place(key, store, owner=m))


def publish_graph(graph) -> List[tuple]:
    """Pre-place a graph's operand feeds (serve ``register(place="shm")``).

    Publishes the adjacency's canonical CSR and its transpose — the two
    views every sharded mxm / masked-dot task reads — so the first query
    against the graph never pays placement latency.  A no-op (empty
    list) when the pool is disabled: registration stays cheap and the
    segment census stays empty in serial runs.
    """
    if not pool_enabled():
        return []
    return [matrix_ref(graph.A, "csr"), matrix_ref(graph.A, "tcsr")]


def _remaining_deadline() -> Optional[float]:
    """Seconds left on the ambient cancel scope, for task propagation."""
    from .. import cancel as _cancel
    token = _cancel.current_token()
    return None if token is None else token.remaining()


# re-exported for isinstance checks without importing .pool eagerly
def __getattr__(name: str):
    if name == "PoolTaskError":
        from .pool import PoolTaskError
        return PoolTaskError
    raise AttributeError(name)
