"""Order statistics shared by the workloads and the compare tool."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them — the same estimator the driver applies to run-to-run spreads."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(values: Sequence[float], pick: str = "median") -> Dict[str, float]:
    """Quartiles and count of ``values``; ``value`` is the one ``pick``
    names (``"q1"``, ``"median"`` or ``"q3"``)."""
    q1, med, q3 = quartiles(values)
    out = {"q1": q1, "median": med, "q3": q3, "n": len(values)}
    return {"value": out[pick], **out}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` samples (failed requests) sort
    last, so they count as missing every latency limit."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]
