"""Seeded, scoped fault injection.

The chaos suite needs to make real code paths fail *deterministically*:
the Nth kernel dispatch raises, a storage build sleeps 50 ms, a drain
worker sees a transient error on a seeded schedule.  This module is that
switchboard.  Four hook sites are compiled into the stack:

``"kernel"``
    :func:`repro.grb.engine.rules.dispatch` — every executed plan; info
    carries ``op`` (and ``rule`` once claimed is too late — the hook
    fires before claiming so injected faults model kernel failure, not
    chooser failure).
``"storage"``
    :func:`repro.grb.storage.policy.matrix_store_from_csr` — every
    matrix store build; info carries ``fmt``/``nrows``/``nvals``.
``"drain"``
    ``GraphService._run_batch`` — once per executed serve batch; info
    carries ``graph``/``queries``.
``"serve-kernel"``
    ``GraphService`` leaf kernel execution — once per kernel-level unit
    of serve work (a coalesced group or a singleton query); info carries
    ``graph``/``kernel``/``queries`` so a predicate can poison one
    specific query inside a batch.

Each site costs one module-global bool read when no injector is
installed (``if faults.ACTIVE: faults.fire(...)``), preserving the ≤2%
no-fault overhead budget.

Injectors are *scoped*: install them with the :func:`installed` context
manager (or ``Injector.install()`` / ``.remove()``) and they disappear
deterministically at scope exit, so a failing test cannot leak faults
into its neighbours.  All randomness comes from ``random.Random(seed)``
instances owned by the injector — the same seed always yields the same
fault schedule, which is what makes chaos runs replayable.

Cookbook (see ``docs/RESILIENCE.md`` for more)::

    from repro.testing import faults

    # fail the 3rd mxv dispatch, once
    with faults.installed(faults.raise_on_nth(
            "kernel", 3, match=lambda info: info.get("op") == "mxv")):
        ...

    # 50ms latency on every serve batch
    with faults.installed(faults.latency("drain", 0.05)):
        ...

    # seeded random transient faults on 20% of kernel dispatches
    with faults.installed(faults.seeded_faults("kernel", seed=7, rate=0.2)):
        ...
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

__all__ = [
    "ACTIVE", "SITES",
    "FaultInjected", "TransientFault", "Injector",
    "fire", "installed", "install", "remove", "clear",
    "raise_on_nth", "raise_when", "latency", "memory_pressure",
    "seeded_faults",
]

#: The hook sites compiled into the stack (documentation + validation).
SITES = ("kernel", "storage", "drain", "serve-kernel")

#: Module-global fast guard, read *without* the lock at every hook site.
#: Only ever flipped under :data:`_lock`, and only True while at least
#: one injector is installed.
ACTIVE = False

_lock = threading.Lock()
_installed: List["Injector"] = []


class FaultInjected(RuntimeError):
    """An error raised by an installed fault injector.

    ``retryable`` is the classification the serve retry policy consults:
    the base class models a *permanent* fault (retries are pointless).
    """

    retryable = False

    def __init__(self, message: str = "injected fault", *, site: str = "?",
                 nth: Optional[int] = None):
        super().__init__(message)
        self.site = site
        self.nth = nth


class TransientFault(FaultInjected):
    """An injected fault that a retry may clear (models flaky I/O,
    allocation pressure, racing invalidation ...)."""

    retryable = True


class Injector:
    """One installed fault: a site, a match predicate, and an action.

    ``action(info)`` runs for every matching call — it may raise, sleep,
    allocate, or mutate its own state (counters are protected by the
    injector's lock, so concurrent drain workers see one global call
    ordering).
    """

    def __init__(self, site: str, action: Callable[[Dict], None], *,
                 match: Optional[Callable[[Dict], bool]] = None,
                 name: str = "injector"):
        if site not in SITES and site != "*":
            raise ValueError(f"unknown fault site {site!r}; one of {SITES}")
        self.site = site
        self.action = action
        self.match = match
        self.name = name
        self.calls = 0           # matching calls seen (under self._lock)
        self.fired = 0           # actions that actually did something
        self._lock = threading.Lock()

    def __call__(self, site: str, info: Dict) -> None:
        if self.site != "*" and site != self.site:
            return
        if self.match is not None and not self.match(info):
            return
        with self._lock:
            self.calls += 1
            info = dict(info, _nth=self.calls)
        self.action(info)

    def install(self) -> "Injector":
        install(self)
        return self

    def remove(self) -> None:
        remove(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Injector({self.name!r}, site={self.site!r}, "
                f"calls={self.calls}, fired={self.fired})")


def install(injector: Injector) -> Injector:
    global ACTIVE
    with _lock:
        _installed.append(injector)
        ACTIVE = True
    return injector


def remove(injector: Injector) -> None:
    global ACTIVE
    with _lock:
        try:
            _installed.remove(injector)
        except ValueError:
            pass
        ACTIVE = bool(_installed)


def clear() -> None:
    """Remove every installed injector (test teardown safety net)."""
    global ACTIVE
    with _lock:
        _installed.clear()
        ACTIVE = False


@contextmanager
def installed(*injectors: Injector):
    """Scope-install ``injectors``; they are removed on exit no matter
    how the body ends."""
    for inj in injectors:
        install(inj)
    try:
        yield injectors if len(injectors) != 1 else injectors[0]
    finally:
        for inj in injectors:
            remove(inj)


def fire(site: str, **info) -> None:
    """Run every installed injector for ``site`` (hook-site entry point).

    Call sites guard with ``if faults.ACTIVE:`` so the disabled path is
    one global read; this function itself snapshots the injector list
    under the lock but runs actions outside it (actions sleep/raise).
    """
    with _lock:
        if not _installed:
            return
        snapshot = list(_installed)
    for inj in snapshot:
        inj(site, info)


# ---------------------------------------------------------------------------
# injector factories
# ---------------------------------------------------------------------------
def raise_on_nth(site: str, nth: int, *, exc=TransientFault,
                 match: Optional[Callable[[Dict], bool]] = None,
                 repeat: int = 1) -> Injector:
    """Raise on the ``nth`` matching call (1-based), then on the next
    ``repeat - 1`` matching calls too, then go quiet.

    ``exc`` is an exception class (instantiated with a descriptive
    message) or a ready exception instance.
    """
    inj: Injector

    def action(info: Dict) -> None:
        n = info["_nth"]
        if nth <= n < nth + repeat:
            inj.fired += 1
            raise _make_exc(exc, site, n)

    inj = Injector(site, action, match=match,
                   name=f"raise_on_nth({site}, {nth})")
    return inj


def raise_when(site: str, predicate: Callable[[Dict], bool], *,
               exc=FaultInjected) -> Injector:
    """Raise on *every* call matching ``predicate`` — the poisoned-query
    primitive (the predicate inspects the info dict, e.g. the queries a
    serve kernel unit is about to answer)."""
    inj: Injector

    def action(info: Dict) -> None:
        inj.fired += 1
        raise _make_exc(exc, site, info["_nth"])

    inj = Injector(site, action, match=predicate,
                   name=f"raise_when({site})")
    return inj


def latency(site: str, seconds: float, *, jitter: float = 0.0,
            seed: int = 0,
            match: Optional[Callable[[Dict], bool]] = None) -> Injector:
    """Sleep ``seconds`` (plus seeded uniform jitter) on each matching
    call — the slow-kernel / slow-storage model."""
    rng = random.Random(seed)
    inj: Injector

    def action(info: Dict) -> None:
        inj.fired += 1
        time.sleep(seconds + (rng.uniform(0.0, jitter) if jitter else 0.0))

    inj = Injector(site, action, match=match,
                   name=f"latency({site}, {seconds}s)")
    return inj


def memory_pressure(site: str, nbytes: int, *, hold: float = 0.0,
                    match: Optional[Callable[[Dict], bool]] = None
                    ) -> Injector:
    """Allocate (touch) ``nbytes`` on each matching call, optionally hold
    it for ``hold`` seconds, then release — a transient allocation spike
    that exercises store-footprint accounting and allocator behaviour
    without OOMing the process."""
    inj: Injector

    def action(info: Dict) -> None:
        inj.fired += 1
        ballast = bytearray(nbytes)
        ballast[::4096] = b"x" * len(ballast[::4096])   # touch the pages
        if hold:
            time.sleep(hold)
        del ballast

    inj = Injector(site, action, match=match,
                   name=f"memory_pressure({site}, {nbytes}B)")
    return inj


def seeded_faults(site: str, *, seed: int, rate: float,
                  exc=TransientFault,
                  match: Optional[Callable[[Dict], bool]] = None
                  ) -> Injector:
    """Raise on a seeded Bernoulli schedule: each matching call draws
    from ``random.Random(seed)`` and raises with probability ``rate``.

    The draw sequence is a pure function of the seed and the matching
    call order, so a chaos run replays exactly under the same seed.
    """
    rng = random.Random(seed)
    rng_lock = threading.Lock()
    inj: Injector

    def action(info: Dict) -> None:
        with rng_lock:
            hit = rng.random() < rate
        if hit:
            inj.fired += 1
            raise _make_exc(exc, site, info["_nth"])

    inj = Injector(site, action, match=match,
                   name=f"seeded_faults({site}, seed={seed}, rate={rate})")
    return inj


def _make_exc(exc, site: str, nth: int) -> BaseException:
    if isinstance(exc, BaseException):
        return exc
    if isinstance(exc, type) and issubclass(exc, FaultInjected):
        return exc(f"injected fault at {site!r} (call #{nth})",
                   site=site, nth=nth)
    return exc(f"injected fault at {site!r} (call #{nth})")
