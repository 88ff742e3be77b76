"""The ``serve_*`` workloads: a traffic generator against ``GraphService``.

One run is, in order: an **open loop** at three fixed rates (requests are
sent on a schedule whatever the service does, and each is timed from the
moment it was *due* to its future's done-callback, so a stall is charged
to every request it delays), a **closed loop** of two client threads that
each send their next call when the previous one returns, the six Table
III calls made directly on the served graph, and the correctness checks.
The generator is the calling thread; the service has two workers.

The open loop runs in *segments* (a few bursts, or one mutation cycle of
the churn workload) and the closed loop in *slices*.  Machine-speed probe
samples (``bench.probe``) are taken at every segment boundary and, inside
a segment, whenever the service is idle and the next request is not due
yet; a segment's percentile is stated at nominal speed by the median of
the segment's samples, and a step reports the median over its segments.
``serve_burst`` runs on one CPU (``pin_to_one_cpu``).

A segment's traffic is *stratified*: it holds the query mix in exact
proportion (and, under Zipf, the hot ranks in proportion), in seeded
random order, so that no seed draws an easier segment than another.
"""

from __future__ import annotations

import gc
import math
import os
import threading
import time
import traceback
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import obs, serve
from repro.gap import datasets
from repro.grb.engine import plancache
from repro.lagraph.graph import Graph

from . import gap_workload as gap
from . import layers, probe, stats
from .spec import KERNELS

NAME = "kron"
WORKERS = 2
CLIENTS = 2
BURST = 32               # requests per burst
BURST_SPREAD_S = 0.010   # a burst's requests are due over this long
SEGMENT_S = 2.0          # open-loop segment of the burst workload
SLICE_S = 1.4            # what a closed-loop slice should take
P95_LIMIT_MS = 250.0
DRAIN_LIMIT_S = 1.0
SAMPLES = 32             # responses compared with run_direct
REASK = 16               # queries asked again after the last mutation
PHASE_PROBES = 8         # probe samples before and after a closed-loop slice
EDGE_PROBES = 3          # probe samples before and after an open-loop segment
IDLE_PROBE_GAP_S = 0.1   # least time between two probe samples inside one
IDLE_PROBE_ROOM_S = 0.012  # a sample is taken only this long before a send
SINGLE = (serve.BFSLevels, serve.BFSParents, serve.SSSP)
WHOLE = (serve.PageRank, serve.ConnectedComponents, serve.TriangleCount)

# rng streams under the run's seed
HOT, LO, MID, HI, WARM, CLOSED, MUTATE, REASKS = 10, 11, 12, 13, 14, 20, 31, 32


@dataclass(frozen=True)
class Params:
    cache_capacity: int
    poisson: bool            # False: bursts of ``BURST``
    rates: tuple             # req/s of the low, middle and high step
    mix: tuple               # share of BFSLevels, BFSParents, SSSP, whole-graph
    hot: int                 # Zipf(1.1) over this many vertices; 0 = uniform
    mutate_every: float      # open-loop segment that opens with an edge
                             # re-weighting, in seconds; 0 = never
    closed_batch: int        # queries per closed-loop call
    closed_calls: int        # calls per client per closed-loop slice
    one_cpu: bool            # confine the workload to one CPU


PARAMS = {
    "serve_burst": Params(0, False, (80, 160, 320),
                          (0.65, 0.25, 0.05, 0.05), 0, 0.0, 64, 5, True),
    "serve_churn": Params(1024, True, (75, 150, 300),
                          (0.60, 0.25, 0.05, 0.10), 8, 1.0, 1, 1500, False),
}

#: Share of ``--seconds`` given to each phase, untraced and traced run.
#: ``warm`` is a discarded stretch at the low rate: the first second after
#: set-up runs at about twice the settled latency.  The low-rate step is
#: the long one because the end-to-end latencies are read there; the two
#: higher rates feed per-layer metrics only, so the untraced run skips them.
PHASES = {
    False: {"warm": 0.04, "lo": 0.56, "mid": 0.0, "hi": 0.0,
            "closed": 0.22, "direct": 0.15},
    True: {"warm": 0.04, "lo": 0.25, "mid": 0.06, "hi": 0.06, "traced": 0.20,
           "closed": 0.12, "direct": 0.12},
}


def pin_to_one_cpu() -> None:
    """Confine this thread, and every thread started from it, to the last
    CPU the process may use.

    The sandbox has two vCPUs of a shared host.  Left to the scheduler, the
    two service workers of a process end up on one core or on two for the
    whole life of the process (they hand the GIL back and forth, which
    looks like one task to the wake-up balancer): a burst then takes 95 ms
    or 55 ms, and which of the two a process gets is decided outside it.
    Spread over both cores on purpose, the latencies follow whatever else
    the host runs on the second core, which the single-threaded probe does
    not see.  On one CPU the service, the generator and the probe share
    what they measure."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _shares(n: int, shares) -> np.ndarray:
    """``n`` split in proportion to ``shares`` (largest remainder)."""
    exact = np.asarray(shares, dtype=float) * n
    counts = np.floor(exact).astype(int)
    for i in np.argsort(counts - exact)[: n - counts.sum()]:
        counts[i] += 1
    return counts


class Traffic:
    """Seeded request streams over one graph."""

    def __init__(self, params: Params, g: Graph, seed: int):
        self.params = params
        cand = np.flatnonzero(np.diff(g.A.indptr) > 0)
        if params.hot:
            rng = np.random.default_rng([seed, HOT])
            self.sources = rng.choice(cand, min(params.hot, cand.size),
                                      replace=False)
            p = 1.0 / np.arange(1, self.sources.size + 1) ** 1.1
            self.cdf = np.cumsum(p / p.sum())
        else:
            self.sources, self.cdf = cand, None

    def _sources(self, rng, n: int) -> np.ndarray:
        if self.cdf is None:
            return rng.choice(self.sources, n)
        # one draw from each of n equal slices of the Zipf distribution
        u = (np.arange(n) + rng.random(n)) / max(n, 1)
        rank = np.searchsorted(self.cdf, u, side="right")
        return self.sources[rank.clip(0, self.sources.size - 1)]

    def queries(self, rng, n: int) -> List[serve.Query]:
        """``n`` queries holding the mix in exact proportion (the
        whole-graph kinds taking turns), in random order."""
        qs: List[serve.Query] = []
        turn = int(rng.integers(len(WHOLE)))
        for k, m in enumerate(_shares(n, self.params.mix)):
            if k < len(SINGLE):
                qs += [SINGLE[k](int(s)) for s in self._sources(rng, m)]
            else:
                qs += [WHOLE[(turn + j) % len(WHOLE)]() for j in range(m)]
        return [qs[i] for i in rng.permutation(n)]

    def segment(self, rng, rate: float, duration: float):
        """Due times (seconds from the segment's start) and queries of one
        open-loop segment: whole bursts of ``BURST``, or ``rate × duration``
        Poisson arrivals (uniform order statistics)."""
        if self.params.poisson:
            n = max(1, round(rate * duration))
            return np.sort(rng.random(n)) * duration, self.queries(rng, n)
        period = BURST / rate
        starts = np.arange(max(1, int(duration / period))) * period
        dues = (starts[:, None]
                + np.arange(BURST) * (BURST_SPREAD_S / BURST)).ravel()
        return dues, [q for _ in starts for q in self.queries(rng, BURST)]


def apply_edge(g: Graph, u: int, v: int, w: float) -> None:
    g.A[u, v] = w
    g.A[v, u] = w
    g.A.nvals      # flush the staged writes now, under the writer's lock


class Mutator:
    """Re-weights one existing edge pair through ``registry.update``, once
    at the start of every open-loop segment and closed-loop slice."""

    def __init__(self, svc, traffic: Traffic, g: Graph, seed: int):
        self.svc = svc
        rng = np.random.default_rng([seed, MUTATE])
        us = rng.choice(traffic.sources[:16], 256)
        self.edges = [(int(u), int(rng.choice(g.A.row(int(u))[0])),
                       float(rng.integers(1, 256))) for u in us]
        self.log: List[tuple] = []       # (t_start, t_end, u, v, w)

    def apply(self) -> None:
        u, v, w = self.edges[len(self.log) % len(self.edges)]
        t0 = time.perf_counter()
        self.svc.registry.update(NAME, lambda gr: apply_edge(gr, u, v, w))
        self.log.append((t0, time.perf_counter(), u, v, w))


@dataclass
class Segment:
    """One open-loop segment: latencies in ms as measured, and the machine
    level (median over the segment's probe samples) that states them at
    nominal speed."""

    lat_ms: List[float]
    late_ms: List[float]
    failed: int
    drained: bool
    memo_hits: int
    wall: float
    level: float
    samples: List[tuple] = field(default_factory=list)


def open_loop(svc, traffic: Traffic, rng, rate: float, duration: float,
              mutator: Optional[Mutator], n_samples: int = 0) -> Segment:
    """Send one segment on schedule.  A request is timed from its due time
    to its future's done-callback — or from the moment the generator woke
    up for it, when it had slept and woke late: a late wake-up is the
    generator's, a late send behind a blocked ``submit`` is the
    service's."""
    dues, qs = traffic.segment(rng, rate, duration)
    n = dues.size
    done: List[Optional[float]] = [None] * n
    start = [0.0] * n
    sent = [0.0] * n
    futs: list = [None] * n
    levels: List[float] = []        # one per probe sample
    probed = 0.0                    # when the last one was taken

    def mark(i: int) -> None:
        done[i] = time.perf_counter()

    def take(k: int = 1) -> None:
        nonlocal probed
        for _ in range(k):
            levels.append(probe.Level().take().value)
        probed = time.perf_counter()

    hits0 = svc.stats().cache_hits
    take(EDGE_PROBES)
    if mutator is not None:
        mutator.apply()
    t0 = time.perf_counter() + 0.005
    idle_from = 0       # every future before this index is done
    for i in range(n):
        due = t0 + dues[i]
        while True:         # probe while idle and not due yet
            room = due - time.perf_counter() - IDLE_PROBE_ROOM_S
            if room <= 0:
                break
            rest = probed + IDLE_PROBE_GAP_S - time.perf_counter()
            while idle_from < i and (futs[idle_from] is None
                                     or futs[idle_from].done()):
                idle_from += 1
            if rest > 0:
                time.sleep(min(rest, room))
            elif idle_from < i:     # the service is busy: look again soon
                time.sleep(min(0.005, room))
            else:
                take()
        slept = due - time.perf_counter()
        if slept > 0:
            time.sleep(slept)
        sent[i] = time.perf_counter()
        start[i] = max(due, sent[i]) if slept > 0 else due
        try:
            with obs.span(layers.REQUEST_SPAN, cat="bench",
                          query=type(qs[i]).__name__):
                futs[i] = svc.submit(NAME, qs[i])
        except Exception:
            traceback.print_exc()
            continue
        futs[i].add_done_callback(lambda _f, i=i: mark(i))
    live = [f for f in futs if f is not None]
    last_due = t0 + float(dues[-1])
    _, late = wait(live, timeout=max(
        0.0, last_due + DRAIN_LIMIT_S - time.perf_counter()))
    _, stuck = wait(live, timeout=60.0)
    wall = time.perf_counter() - t0
    take(EDGE_PROBES)

    lat, failed = [], 0
    for i in range(n):
        f = futs[i]
        if f is None or f in stuck or f.exception() is not None:
            lat.append(math.inf)
            failed += 1
            continue
        while done[i] is None:      # wait() can return before the callback
            time.sleep(0.0002)
        lat.append((done[i] - start[i]) * 1e3)
    seg = Segment(lat, [(sent[i] - (t0 + dues[i])) * 1e3 for i in range(n)],
                  failed, not late, svc.stats().cache_hits - hits0, wall,
                  stats.quartiles(levels)[1])
    for i in rng.choice(n, min(n_samples, n), replace=False):
        if math.isfinite(lat[i]):
            seg.samples.append((qs[i], futs[i].result(), sent[i], done[i]))
    return seg


class Step:
    """One fixed-rate step of the open loop: its segments."""

    def __init__(self, svc, traffic: Traffic, seed: int, stream: int,
                 rate: float, duration: float, mutator: Optional[Mutator],
                 n_samples: int = 0):
        length = traffic.params.mutate_every or SEGMENT_S
        n = max(1, round(duration / length))
        length = min(length, duration)      # a phase shorter than a segment
        self.rate = rate
        self.segments = [
            open_loop(svc, traffic, np.random.default_rng([seed, stream, i]),
                      rate, length, mutator, -(-n_samples // n))
            for i in range(n)]
        self.lat_ms = [x for s in self.segments for x in s.lat_ms]
        self.late_ms = [x for s in self.segments for x in s.late_ms]
        self.failed = sum(s.failed for s in self.segments)
        self.drained = all(s.drained for s in self.segments)
        self.samples = [x for s in self.segments for x in s.samples]
        self.memo_hits = sum(s.memo_hits for s in self.segments)
        self.memo_hit_rate = self.memo_hits / len(self.lat_ms)
        self.wall = sum(s.wall for s in self.segments)
        self.level = stats.quartiles([s.level for s in self.segments])[1]

    def p(self, q: float) -> float:
        """Percentile over every request of the step, as measured."""
        return stats.percentile(self.lat_ms, q)

    def nominal(self, q: float) -> dict:
        """Median over the segments of each segment's percentile ``q``
        stated at nominal machine speed."""
        out = stats.summary([stats.percentile(s.lat_ms, q) / s.level
                             for s in self.segments])
        out.update(raw=self.p(q), level=self.level)
        return out

    @property
    def ok(self) -> bool:
        return (self.failed == 0 and self.drained
                and self.p(0.95) <= P95_LIMIT_MS)

    def info(self) -> dict:
        return {"rate": self.rate, "sent": len(self.lat_ms),
                "failed": self.failed, "drained": self.drained,
                "p50_ms": self.p(0.50), "p95_ms": self.p(0.95),
                "memo_hit_rate": self.memo_hit_rate,
                "machine_level": self.level, "ok": self.ok,
                "segments": [{"level": s.level,
                              "p50_ms": stats.percentile(s.lat_ms, 0.50),
                              "p95_ms": stats.percentile(s.lat_ms, 0.95)}
                             for s in self.segments]}


def closed_loop(svc, traffic: Traffic, seed: int, duration: float,
                mutator: Optional[Mutator]) -> dict:
    """Two clients, each sending its next call when the last returned, in
    slices of a fixed number of calls (a slice stops early at three times
    ``SLICE_S``); under churn every slice opens with one mutation, so that
    the slices are alike.  Goodput is the third quartile of the slice rates
    at nominal speed."""
    batch, calls = traffic.params.closed_batch, traffic.params.closed_calls
    rngs = [np.random.default_rng([seed, CLOSED, t]) for t in range(CLIENTS)]
    blocks: List[List[serve.Query]] = [[] for _ in range(CLIENTS)]
    counts = [[0, 0] for _ in range(CLIENTS)]      # ok, failed per client

    def client(tid: int, deadline: float) -> None:
        for _ in range(calls):
            if time.perf_counter() > deadline:
                return
            if len(blocks[tid]) < batch:
                blocks[tid] = traffic.queries(rngs[tid], max(batch, 1024))
            qs, blocks[tid] = blocks[tid][:batch], blocks[tid][batch:]
            try:
                if batch == 1:
                    svc.query(NAME, qs[0])
                else:
                    svc.query_many(NAME, qs)
                counts[tid][0] += batch
            except Exception:
                traceback.print_exc()
                counts[tid][1] += batch

    rates, raw, levels, wall = [], [], [], 0.0
    for _ in range(max(1, round(duration / SLICE_S))):
        if mutator is not None:
            mutator.apply()
        before = sum(c[0] for c in counts)
        level = probe.Level().take(PHASE_PROBES)
        t0 = time.perf_counter()
        threads = [threading.Thread(target=client,
                                    args=(t, t0 + 3 * SLICE_S))
                   for t in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        dt = time.perf_counter() - t0
        wall += dt
        raw.append((sum(c[0] for c in counts) - before) / dt)
        levels.append(level.take(PHASE_PROBES).value)
        rates.append(raw[-1] * levels[-1])
    goodput = stats.summary(rates, "q3")
    goodput["raw"] = stats.quartiles(raw)[2]
    return {"ok": sum(c[0] for c in counts),
            "failed": sum(c[1] for c in counts), "wall": wall,
            "slices": [{"level": lv, "rps": r} for lv, r in zip(levels, raw)],
            "goodput_rps": goodput}


def same(a, b) -> bool:
    """Bit-for-bit equality of two query results."""
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if hasattr(a, "isequal"):
        return bool(a.isequal(b))
    return type(a) is type(b) and a == b


def verify_samples(a0, kind, log: List[tuple], samples: List[tuple]) -> int:
    """Mismatches among sampled responses, replaying the mutation log.

    Version ``v`` of the graph is live from the end of mutation ``v`` to the
    end of mutation ``v + 1``; a response is right if it equals
    ``run_direct`` on a version that was live at some moment between the
    request's send and its answer — an answer from an older version is a
    stale answer and counts as a mismatch."""
    g = Graph(a0.dup(), kind)
    ends = [m[1] for m in log]
    pending = list(samples)
    for v in range(len(log) + 1):
        if v:
            apply_edge(g, *log[v - 1][2:])
            g.invalidate_properties()
        lo = ends[v - 1] if v else -math.inf
        hi = ends[v] if v < len(log) else math.inf
        pending = [s for s in pending
                   if not (s[2] < hi and s[3] > lo
                           and same(s[1], s[0].run_direct(g)))]
    for q, *_ in pending:
        print(f"verify sample: MISMATCH {q}")
    return len(pending)


def reask(svc, traffic: Traffic, g: Graph, seed: int,
          mutator: Optional[Mutator]) -> int:
    """Ask ``REASK`` queries again once the service is idle and compare
    with ``run_direct`` on the live graph: after the last mutation, a memo
    entry or plan-cache feed of an older version must not answer."""
    rng = np.random.default_rng([seed, REASKS])
    srcs = [int(s) for s in traffic.sources[:REASK]] if traffic.params.hot \
        else [int(s) for s in rng.choice(traffic.sources, REASK)]
    if mutator is not None and mutator.log:
        srcs[:2] = mutator.log[-1][2:4]      # both ends of the last edge
    qs = [(serve.SSSP, serve.SSSP, serve.BFSLevels, serve.BFSParents)[i % 4](s)
          for i, s in enumerate(srcs)]
    svc.flush(timeout=60.0)
    bad = 0
    for q, got in zip(qs, svc.query_many(NAME, qs)):
        if not same(got, q.run_direct(g)):
            print(f"verify re-ask: MISMATCH {q}")
            bad += 1
    return bad


def _batch_size_p50(hist_before: dict, hist_after: dict) -> float:
    sizes = sorted(hist_after)
    counts = [hist_after[s] - hist_before.get(s, 0) for s in sizes]
    half, seen = sum(counts) / 2.0, 0
    for s, c in zip(sizes, counts):
        seen += c
        if c and seen >= half:
            return float(s)
    return 0.0


def set_up(params: Params, size: str):
    """Set-up of a ``serve_*`` workload: generate the graph, cache its
    properties, build the service, register with the msbfs warm profile
    and send one warm burst per query kind."""
    g = datasets.build("kron", size, weighted=True)
    g.cache_all()
    svc = serve.GraphService(max_workers=WORKERS,
                             cache_capacity=params.cache_capacity)
    svc.register(NAME, g, warm="msbfs")
    cand = np.flatnonzero(np.diff(g.A.indptr) > 0)[:16]
    for kind in SINGLE:
        svc.query_many(NAME, [kind(int(s)) for s in cand])
    svc.query_many(NAME, [kind() for kind in WHOLE])
    return g, svc


def run(workload: str, size: str, seed: int, seconds: float, trace: bool,
        setup_reps: int) -> dict:
    """One run of a ``serve_*`` workload; see ``bench.run`` for the result
    layout."""
    params = PARAMS[workload]
    phase = {k: v * seconds for k, v in PHASES[trace].items()}
    if params.one_cpu:
        pin_to_one_cpu()
    g = svc = None
    setups = []
    try:
        for _ in range(setup_reps):
            if svc is not None:
                svc.shutdown()
                g = svc = None
                gc.collect()    # the old graph goes before the new one comes
            with probe.timed(gap.SETUP_PROBES) as t:
                g, svc = set_up(params, size)
            setups.append(t)
        setup = stats.summary([t.seconds for t in setups])
        setup["raw"] = stats.quartiles([t.raw for t in setups])[1]
        return _measure(params, size, g, svc, seed, phase, trace, setup)
    finally:
        if svc is not None:
            svc.shutdown()


def _traced_pass(params: Params, svc, traffic: Traffic, seed: int,
                 duration: float, mutator: Optional[Mutator],
                 lo: Step) -> tuple:
    """The first segments of the low-rate step once more under tracing and
    deep profiling; returns the step, its per-layer metrics, the layer
    table, the trace collector and the run-info extras."""
    obs.profile.reset()
    pc0, st0 = plancache.stats(), svc.stats()
    n_mut = len(mutator.log) if mutator is not None else 0
    with obs.tracing() as coll, obs.profiling():
        traced = Step(svc, traffic, seed, LO, params.rates[0], duration,
                      mutator)
    st1 = svc.stats()
    lvl = traced.level
    records = coll.records()
    table = layers.layer_table(records)
    waits = layers.queue_waits_ms(records)
    batch_s = table["names"].get("serve:batch", {}).get("total_s", 0.0)
    base = lo.nominal(0.50)["value"]
    coalesced = st1.coalesced_calls - st0.coalesced_calls
    updates = ([(m[1] - m[0]) * 1e3 for m in mutator.log]
               if mutator is not None else [])
    serve_self = layers.cat_self(table, "serve")
    per_layer = {
        **gap.engine_layer_metrics(table, 1, lvl),
        **gap.profile_metrics(1, pc0),
        "bench.machine_level": lvl,
        "lagraph.self_s": serve_self / lvl,
        "lagraph.self_share": serve_self / table["self_sum_s"],
        "serve.submit_self_s": layers.cat_self(table, "bench") / lvl,
        "serve.batches": st1.batches - st0.batches,
        "serve.kernel_calls": st1.kernel_calls - st0.kernel_calls,
        "serve.coalescing_ratio":
            (st1.coalesced_sources - st0.coalesced_sources) / coalesced
            if coalesced else 0.0,
        "serve.memo_hit_rate": traced.memo_hits / len(traced.lat_ms),
        "serve.queue_depth_peak": st1.queue_depth_peak,
        "serve.batch_size_p50":
            _batch_size_p50(st0.batch_size_hist, st1.batch_size_hist),
        "serve.batch_busy_s": batch_s / lvl,
        "serve.batch_busy_share": batch_s / traced.wall,
        "serve.queue_wait_ms_p50":
            stats.percentile(waits, 0.50) / lvl if waits else 0.0,
        "serve.queue_wait_ms_p95":
            stats.percentile(waits, 0.95) / lvl if waits else 0.0,
        "serve.update_ms_p50":
            stats.quartiles(updates)[1] if updates else 0.0,
        "obs.trace_overhead_share":
            (traced.nominal(0.50)["value"] - base) / base,
    }
    extra = {"kernel_table": obs.profile.kernel_table(),
             "rule_table": obs.profile.rule_table(),
             "traced_requests": len(traced.lat_ms),
             "traced_mutations":
                 (len(mutator.log) - n_mut) if mutator is not None else 0}
    return traced, per_layer, table, coll, extra


def _measure(params: Params, size: str, g: Graph, svc, seed: int,
             phase: Dict[str, float], trace: bool, setup: dict) -> dict:
    a0 = g.A.dup()
    traffic = Traffic(params, g, seed)
    mutator = (Mutator(svc, traffic, g, seed)
               if params.mutate_every else None)
    lo_rate, mid_rate, hi_rate = params.rates

    warm = Step(svc, traffic, seed, WARM, lo_rate, phase["warm"], mutator)
    lo = Step(svc, traffic, seed, LO, lo_rate, phase["lo"], mutator,
              n_samples=SAMPLES)
    steps = [lo]        # the higher rates run only where they are reported
    if phase["mid"]:
        steps.append(Step(svc, traffic, seed, MID, mid_rate, phase["mid"],
                          mutator))
    if phase["hi"]:
        steps.append(Step(svc, traffic, seed, HI, hi_rate, phase["hi"],
                          mutator))
    sent = sum(len(s.lat_ms) for s in [warm] + steps)
    failed = sum(s.failed for s in [warm] + steps)

    per_layer = None
    if trace:
        traced, per_layer, table, coll, extra = _traced_pass(
            params, svc, traffic, seed, phase["traced"], mutator, lo)
        sent += len(traced.lat_ms)
        failed += traced.failed
        _, mid, hi = steps
        per_layer.update({
            "serve.latency_p95_ms": lo.nominal(0.95)["value"],
            "serve.latency_p99_ms": lo.nominal(0.99)["value"],
            "serve.p95_ms_mid": mid.nominal(0.95)["value"],
            "serve.p95_ms_hi": hi.nominal(0.95)["value"],
            "serve.max_rate_ok_rps":
                max([s.rate for s in steps if s.ok], default=0.0),
            "serve.gen_late_ms_p99": stats.percentile(lo.late_ms, 0.99),
        })

    closed = closed_loop(svc, traffic, seed, phase["closed"], mutator)
    bad = reask(svc, traffic, g, seed, mutator)
    bad += verify_samples(a0, g.kind, mutator.log if mutator else [],
                          lo.samples)
    checked = REASK + len(lo.samples)

    # the six direct calls, service idle: SSSP on the served graph, the
    # structural kernels on its unweighted twin as gap.harness runs them
    # (the reference PageRank diverges on weighted adjacencies)
    g.cache_all()
    twin = datasets.build("kron", size)
    twin.cache_all()
    env = gap.Env(twin, g, gap.TRIALS["lowdiam"])
    with probe.timed() as cold_t:
        cold = gap.run_round(env, seed, gap.COLD, 0)
    direct_level = probe.Level()
    rounds = gap.run_rounds(env, seed, phase["direct"], direct_level)
    with probe.timed() as verify_t:
        direct_checked, direct_bad = gap.verify_round(env, rounds[-1])

    e2e = {
        "setup_s": setup,
        **gap.round_metrics(env, rounds, direct_level),
        "latency_p50_ms": lo.nominal(0.50),
        "goodput_rps": closed.pop("goodput_rps"),
    }
    direct_calls = sum(len(r.plan) for r in [cold] + rounds)
    result = {
        "end_to_end": e2e,
        "attempted": (sent + closed["ok"] + closed["failed"] + checked
                      + direct_checked + direct_calls),
        "failed": (failed + closed["failed"] + bad + direct_bad
                   + sum(r.failed for r in [cold] + rounds)),
        "correct": bad + direct_bad == 0,
        "info": {
            "graph": f"kron-{size}", "n": g.n, "nvals": g.nvals,
            "steps": [s.info() for s in steps],
            "closed": closed, "direct_rounds": len(rounds),
            "mutations": len(mutator.log) if mutator is not None else 0,
            "memo_hit_rate": svc.stats().memo_hit_rate,
        },
    }
    if per_layer is not None:
        base_t = gap.baseline_times(env, rounds[-1])
        for k in KERNELS:
            per_layer[f"gap.baseline_{k}_s"] = base_t[k]
            per_layer[f"gap.ratio_{k}"] = e2e[f"{k}_s"]["value"] / base_t[k]
        per_layer.update({"gap.build_s": setup["value"],
                          "gap.verify_s": verify_t.seconds,
                          "grb.engine.cold_round_s": cold_t.seconds})
        result.update(per_layer=per_layer, layers=table, trace=coll)
        result["info"].update(extra)
    return result
