"""A machine-speed probe, so that timings can be stated at one speed.

The sandbox this benchmark runs in does not hold one speed.  The same
300 000-iteration Python loop takes 10.5 ms or 23 ms depending on the
moment — busy or idle, on either vCPU, with no steal time recorded — and
the slow share drifts over minutes, so whole 25 s runs of the same code
land 30–60 % apart (``README.md``, "Steadiness").  No statistic taken
inside a run removes that; a reference measured beside the work does.

The probe is a fixed piece of work with the program's instruction mix —
an interpreted loop and a NumPy gather-and-sort — sampled at every round
and phase boundary.  A phase's *level* is the median probe time over the
phase divided by the probe's nominal time (the uncontended speed of the
sandbox the benchmark was written in), as the geometric mean of the two
parts.  Every time the benchmark reports is the measured time divided by
the level of the phase it was measured in (rates are multiplied); the
level itself is reported as ``bench.machine_level`` and each metric's
un-normalised value is kept beside it in ``bench/results/``.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import List

import numpy as np

from . import stats

#: Nominal probe times: first quartile of 2 000 samples taken over two
#: minutes on the authoring sandbox (2 vCPU, Xeon 2.1 GHz).
PY_NOMINAL_S = 0.0027
NP_NOMINAL_S = 0.0037

_PY_ITERS = 60_000
_DATA = np.random.default_rng(0).random(400_000)
_INDEX = np.random.default_rng(1).integers(0, _DATA.size, _DATA.size)


def sample() -> tuple:
    """One probe: seconds of the interpreted part and of the NumPy part."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_PY_ITERS):
        acc += i * i
    t1 = time.perf_counter()
    _DATA[_INDEX].sum()
    np.sort(_DATA[:100_000])
    return t1 - t0, time.perf_counter() - t1


class Level:
    """Probe samples of one phase."""

    def __init__(self):
        self.py: List[float] = []
        self.np: List[float] = []

    def take(self, n: int = 1) -> "Level":
        for _ in range(n):
            a, b = sample()
            self.py.append(a)
            self.np.append(b)
        return self

    def _level(self, i: int) -> float:
        return math.sqrt(stats.quartiles(self.py)[i] / PY_NOMINAL_S
                         * stats.quartiles(self.np)[i] / NP_NOMINAL_S)

    @property
    def value(self) -> float:
        """Measured ÷ nominal probe time, at the median of the samples:
        1.0 on an uncontended sandbox, 1.6 when everything takes 1.6× as
        long."""
        return self._level(1)

    @property
    def low(self) -> float:
        """The same at the samples' first quartile — the companion of a
        first quartile taken over the work's own repetitions."""
        return self._level(0)


def at_nominal(metric: dict, level: float, rate: bool = False) -> dict:
    """``metric`` (a ``stats.summary`` of times, or of rates) stated at
    nominal machine speed; its measured value is kept as ``raw``."""
    factor = level if rate else 1.0 / level
    out = {k: v * factor if k in ("value", "q1", "median", "q3") else v
           for k, v in metric.items()}
    out.update(raw=metric["value"], level=level)
    return out


class Timed:
    """Result of :func:`timed`: ``seconds`` at nominal speed, ``raw`` as
    measured, and the ``level`` that relates them."""

    seconds = raw = level = 0.0


@contextmanager
def timed(n: int = 3):
    """Time a block between two bursts of ``n`` probe samples."""
    out, level = Timed(), Level().take(n)
    t0 = time.perf_counter()
    yield out
    out.raw = time.perf_counter() - t0
    out.level = level.take(n).value
    out.seconds = out.raw / out.level
