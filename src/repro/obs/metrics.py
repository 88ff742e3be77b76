"""Always-on metrics: counters, gauges, and fixed-bucket histograms.

The registry is process-global and deliberately tiny: a metric is a name,
a help string, and a dict of label-tuple → child.  Families are created
at import (``_DISPATCHES = metrics.counter(...)``); a hot call site whose
label values are fixed binds its child once (each engine rule holds its
``grb_dispatch_total{op, rule}`` child), so a bump is one locked integer
add — cheap enough to leave on in production paths.  :meth:`Metric.reset`
zeroes children in place, so a held child stays the registered one.  Hot
call sites additionally guard on the module-level :data:`ENABLED` kill
switch, which the overhead guard
(``tests/obs/test_metrics_export.py::TestKillSwitch``) throws to time the
same workload with every site reduced to its bare guard.  The
store-footprint gauges are bumped by no call site at all:
:mod:`repro.obs.memory` computes them when they are read.

No external client library: exposition formats live in
:mod:`repro.obs.export` (Prometheus text, JSON snapshot) and read the
registry through :func:`collect`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ENABLED", "Counter", "Gauge", "Histogram", "Registry",
           "REGISTRY", "counter", "gauge", "histogram", "collect", "reset",
           "DEFAULT_BUCKETS"]

#: Global kill switch: child ``inc``/``set``/``observe`` become no-ops when
#: False.  Call sites *also* guard on this before computing label values —
#: the overhead guard's killed arm then measures pure guard cost.
ENABLED = True

#: Default histogram buckets, tuned for kernel/request latencies in seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _normalise_buckets(buckets) -> tuple:
    """Validated boundaries: non-empty, finite, sorted, duplicate-free.

    Values are kept as given (not coerced to float) so the Prometheus
    ``le`` label strings stay exactly what the call site wrote — ``le="1"``
    for an integer batch-size bucket, ``le="1.0"`` for a latency one.
    """
    vals = tuple(buckets)
    if not vals:
        raise ValueError("histogram buckets must be non-empty "
                         "(the +Inf bucket is implicit)")
    floats = []
    for b in vals:
        f = float(b)
        if not math.isfinite(f):
            raise ValueError(
                f"histogram bucket {b!r} must be finite (+Inf is implicit)")
        floats.append(f)
    order = sorted(range(len(vals)), key=floats.__getitem__)
    out, last = [], None
    for i in order:
        if floats[i] != last:
            out.append(vals[i])
            last = floats[i]
    return tuple(out)


class _CounterChild:
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if not ENABLED:
            return
        with self._lock:
            self.value += amount

    def _zero(self) -> None:
        self.value = 0


class _GaugeChild:
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        if not ENABLED:
            return
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        if not ENABLED:
            return
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def _zero(self) -> None:
        self.value = 0.0


class _HistogramChild:
    __slots__ = ("_lock", "buckets", "counts", "total", "sum")

    def __init__(self, lock: threading.Lock, buckets: Sequence[float]):
        self._lock = lock
        self.buckets = tuple(buckets)
        self._zero()

    def _zero(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf overflow
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        if not ENABLED:
            return
        i = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[i] += 1
            self.total += 1
            self.sum += value

    def snapshot(self) -> dict:
        with self._lock:
            return {"buckets": self.buckets, "counts": list(self.counts),
                    "count": self.total, "sum": self.sum}


class Metric:
    """Base: a named family of labelled children sharing one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[tuple, object] = {}
        if not self.labelnames:
            self._children[()] = self._new_child()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, *values):
        """The child for one label-value tuple (created on first use)."""
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is not None:
            return child
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"values {self.labelnames}, got {values!r}")
        with self._lock:
            return self._children.setdefault(key, self._new_child())

    def samples(self) -> List[tuple]:
        """``[(labelvalues, child), ...]`` — stable snapshot for export."""
        with self._lock:
            return list(self._children.items())

    def reset(self) -> None:
        """Zero every child in place: a child a call site holds (a bound
        rule's dispatch counter) keeps counting into the registry."""
        with self._lock:
            for child in self._children.values():
                child._zero()


class Counter(Metric):
    kind = "counter"

    def _new_child(self):
        return _CounterChild(self._lock)

    def inc(self, amount: int = 1) -> None:
        self.labels().inc(amount)

    @property
    def value(self):
        return self.labels().value


class Gauge(Metric):
    kind = "gauge"

    def _new_child(self):
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    @property
    def value(self):
        return self.labels().value


class Histogram(Metric):
    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None):
        self.buckets = _normalise_buckets(
            DEFAULT_BUCKETS if buckets is None else buckets)
        super().__init__(name, help, labelnames)

    def _new_child(self):
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self.labels().observe(value)


class Registry:
    """All registered metrics, by name; get-or-create with kind checking."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name, help, labelnames, **kw) -> Metric:
        with self._lock:
            m = self._metrics.get(name)
            if m is not None:
                if not isinstance(m, cls) or m.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{m.kind}{m.labelnames}")
                return m
            m = cls(name, help, labelnames, **kw)
            self._metrics[name] = m
            return m

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get-or-create; ``buckets=None`` accepts whatever boundaries an
        existing registration chose, while explicit boundaries must match
        it exactly (two call sites silently disagreeing on buckets would
        corrupt the cumulative ``le`` series)."""
        m = self._get_or_create(Histogram, name, help, labels,
                                buckets=buckets)
        if buckets is not None:
            want = _normalise_buckets(buckets)
            if tuple(map(float, want)) != tuple(map(float, m.buckets)):
                raise ValueError(
                    f"metric {name!r} already registered with buckets "
                    f"{m.buckets}, conflicting with {want}")
        return m

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[Metric]:
        with self._lock:
            return list(self._metrics.values())

    def reset(self) -> None:
        """Zero every metric's children in place (registrations survive)."""
        for m in self.collect():
            m.reset()


#: The default process-global registry every ``repro`` call site uses.
REGISTRY = Registry()


def counter(name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
    return REGISTRY.counter(name, help, labels)


def gauge(name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
    return REGISTRY.gauge(name, help, labels)


def histogram(name: str, help: str = "", labels: Sequence[str] = (),
              buckets: Optional[Sequence[float]] = None) -> Histogram:
    return REGISTRY.histogram(name, help, labels, buckets)


def collect() -> List[Metric]:
    return REGISTRY.collect()


def reset() -> None:
    REGISTRY.reset()
