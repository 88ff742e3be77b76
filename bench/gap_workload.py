"""The ``gap_*`` workloads: rounds of the six Table III "LAGr" calls.

One *round* is the Table III column of one graph: every kernel of
``repro.gap.harness._run_one`` called a fixed number of times (the trial
mix), each call under a ``bench:lagraph:<kernel>`` root span that is a
no-op unless the caller installed a trace sink.  Round ``r`` of a run
draws its sources from ``rng([seed, stream, r])``, so a traced round and
an untraced round with the same index see the same inputs.

The serve workloads reuse the same rounds on the graph they serve (the
direct-call floor under a serve request).
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.gap import baselines, datasets, verify
from repro.grb.engine import plancache
from repro.lagraph import algorithms as alg
from repro.lagraph.graph import Graph

from . import layers, probe, stats
from .spec import KERNELS

#: Trials per round.  ``lowdiam`` weights the cheap traversals up, ``road``
#: the cheap whole-graph kernels, so that neither round is one kernel only.
#: A BC batch on kron costs 0.06 s or 0.15 s depending on whether one of
#: its four sources is a leaf (one more level for the whole batch), so a
#: round takes three batches for its ``bc_s`` not to flip between the two.
TRIALS = {
    "lowdiam": {"bfs": 8, "bc": 3, "pr": 5, "cc": 2, "sssp": 2, "tc": 1},
    "road": {"bfs": 2, "bc": 1, "pr": 3, "cc": 2, "sssp": 1, "tc": 4},
}
BC_BATCH = 4          # sources per betweenness_centrality_batch call
COLD, TIMED = 0, 1    # rng streams: the discarded first round, the rest
MIN_ROUNDS = 3
BASELINE_REPS = 3
SETUP_PROBES = 5      # probe samples before and after each timed set-up


@dataclass
class Env:
    g: Graph            # adjacency the structural kernels read
    gw: Graph           # weighted twin for SSSP (may be ``g`` itself)
    trials: Dict[str, int]
    cand: np.ndarray = field(init=False)    # non-isolated vertices
    delta: float = field(init=False)

    def __post_init__(self):
        self.cand = np.flatnonzero(np.diff(self.g.A.indptr) > 0)
        self.delta = max(float(self.gw.A.values.mean()), 1.0)


KERNEL_FN = {
    "bfs": lambda e, s: alg.bfs_parent_do(e.g, s),
    "bc": lambda e, srcs: alg.betweenness_centrality_batch(e.g, srcs),
    "pr": lambda e: alg.pagerank_gap(e.g),
    "cc": lambda e: alg.connected_components(e.g),
    "sssp": lambda e, s: alg.sssp_delta_stepping(e.gw, s, delta=e.delta),
    "tc": lambda e: alg.triangle_count_basic(e.g),
}

BASELINE_FN = {
    "bfs": lambda e, s: baselines.bfs_parent(e.g, s),
    "bc": lambda e, srcs: baselines.betweenness_centrality(e.g, srcs),
    "pr": lambda e: baselines.pagerank(e.g),
    "cc": lambda e: baselines.connected_components(e.g),
    "sssp": lambda e, s: baselines.sssp_dijkstra(e.gw, s),
    "tc": lambda e: baselines.triangle_count(e.g),
}

VERIFY_FN = {
    "bfs": lambda e, out, s: verify.verify_bfs_parent(e.g, s, out),
    "bc": lambda e, out, srcs: verify.verify_bc(e.g, srcs, out),
    "pr": lambda e, out: verify.verify_pr(e.g, out[0], tol=1e-4),
    "cc": lambda e, out: verify.verify_cc(e.g, out),
    "sssp": lambda e, out, s: verify.verify_sssp(e.gw, s, out),
    "tc": lambda e, out: verify.verify_tc(e.g, out),
}


def build_env(graph: str, size: str, trials: Dict[str, int]) -> Env:
    """Set-up of a ``gap_*`` workload: generate the graph and its weighted
    twin and cache every property the Advanced-mode kernels require."""
    g = datasets.build(graph, size)
    gw = datasets.build(graph, size, weighted=True)
    g.cache_all()
    gw.cache_all()
    return Env(g, gw, trials)


def _plan(env: Env, rng) -> List[Tuple[str, tuple]]:
    t = env.trials
    pick = lambda k: rng.choice(env.cand, min(k, env.cand.size),  # noqa: E731
                                replace=False)
    calls: List[Tuple[str, tuple]] = []
    calls += [("bfs", (int(s),)) for s in pick(t["bfs"])]
    calls += [("bc", (pick(BC_BATCH),)) for _ in range(t["bc"])]
    calls += [("pr", ())] * t["pr"] + [("cc", ())] * t["cc"]
    calls += [("sssp", (int(s),)) for s in pick(t["sssp"])]
    calls += [("tc", ())] * t["tc"]
    return calls


@dataclass
class Round:
    wall: float
    busy: Dict[str, float]
    calls: List[Tuple[str, float]]      # (kernel, seconds) of each ok call
    plan: List[Tuple[str, tuple]]
    outputs: Dict[str, tuple]           # kernel -> (args, last output)
    failed: int


def run_round(env: Env, seed: int, stream: int, r: int) -> Round:
    plan = _plan(env, np.random.default_rng([seed, stream, r]))
    busy = dict.fromkeys(KERNELS, 0.0)
    calls, outputs, failed = [], {}, 0
    start = time.perf_counter()
    for k, args in plan:
        t0 = time.perf_counter()
        try:
            with obs.span("bench:lagraph:" + k, cat="bench"):
                out = KERNEL_FN[k](env, *args)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        dt = time.perf_counter() - t0
        busy[k] += dt
        calls.append((k, dt))
        outputs[k] = (args, out)
    return Round(time.perf_counter() - start, busy, calls, plan, outputs,
                 failed)


def run_rounds(env: Env, seed: int, budget_s: float,
               level: probe.Level) -> List[Round]:
    """Timed rounds ``r = 0, 1, …`` until the next one would overrun, with
    a machine-speed probe sample at every round boundary."""
    rounds: List[Round] = []
    deadline = time.perf_counter() + budget_s
    while True:
        level.take()
        rounds.append(run_round(env, seed, TIMED, len(rounds)))
        typical = stats.quartiles([r.wall for r in rounds])[1]
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() + typical > deadline):
            level.take()
            return rounds


def round_metrics(env: Env, rounds: List[Round],
                  level: probe.Level) -> Dict[str, dict]:
    """``<kernel>_s`` (busy time ÷ trials, per round) and ``round_s``: the
    first quartile over the rounds, stated at nominal machine speed by the
    first quartile of the probe samples taken between them."""
    low = lambda xs: probe.at_nominal(  # noqa: E731
        stats.summary(xs, "q1"), level.low)
    out = {f"{k}_s": low([r.busy[k] / env.trials[k] for r in rounds])
           for k in KERNELS}
    out["round_s"] = low([r.wall for r in rounds])
    return out


def verify_round(env: Env, rnd: Round) -> Tuple[int, int]:
    """Check the last output of every kernel of ``rnd`` against its
    oracle; returns ``(checked, mismatched)``."""
    bad = 0
    for k in KERNELS:
        if k not in rnd.outputs:
            bad += 1
            continue
        args, out = rnd.outputs[k]
        try:
            VERIFY_FN[k](env, out, *args)
        except AssertionError as exc:
            print(f"verify {k}: MISMATCH {exc}")
            bad += 1
    return len(KERNELS), bad


def baseline_times(env: Env, rnd: Round) -> Dict[str, float]:
    """Seconds per trial, at nominal machine speed, of the reference
    implementations on the inputs of ``rnd`` (median of ``BASELINE_REPS``;
    repeated whole-graph calls are timed once per repetition)."""
    out = {}
    for k in KERNELS:
        argsets = [a for kk, a in rnd.plan if kk == k]
        if not argsets[0]:
            argsets = argsets[:1]
        reps = []
        level = probe.Level().take(3)
        for _ in range(BASELINE_REPS):
            t0 = time.perf_counter()
            for a in argsets:
                BASELINE_FN[k](env, *a)
            reps.append((time.perf_counter() - t0) / len(argsets))
        out[k] = stats.quartiles(reps)[1] / level.take(3).value
    return out


def call_latency(rounds: List[Round], level: probe.Level) -> Dict[str, dict]:
    """A kernel call seen as a request: per round, the p50 and p95 over its
    calls and its calls per second; first quartile over the rounds for the
    latencies, third for the rate, at nominal machine speed."""
    def per_round(fn, pick, rate=False):
        return probe.at_nominal(
            stats.summary([fn(r) for r in rounds], pick), level.low, rate)
    ms = lambda r, q: stats.percentile(  # noqa: E731
        [dt * 1e3 for _, dt in r.calls], q)
    return {"latency_p50_ms": per_round(lambda r: ms(r, 0.50), "q1"),
            "latency_p95_ms": per_round(lambda r: ms(r, 0.95), "q1"),
            "goodput_rps": per_round(lambda r: len(r.calls) / r.wall, "q3",
                                     rate=True)}


def engine_layer_metrics(table: dict, per: float,
                         level: float) -> Dict[str, float]:
    """The span-derived metrics every workload shares, divided by ``per``
    (rounds traced, or 1 for totals); times also by the traced phase's
    machine ``level``."""
    names = table["names"]
    per_s = per * level
    plan_rows = {n: r for n, r in names.items()
                 if n.startswith("plan:") or n == "multiplan"}
    choose = names.get("plan-choose", {})
    write = names.get("write", {})
    return {
        "lagraph.plans_per_round":
            sum(r["calls"] for n, r in plan_rows.items()
                if n != "multiplan") / per,
        "grb.engine.plan_self_s":
            sum(r["self_s"] for r in plan_rows.values()) / per_s,
        "grb.engine.choose_s": choose.get("self_s", 0.0) / per_s,
        "grb.engine.choose_calls": choose.get("calls", 0) / per,
        "grb.engine.epilogue_s": layers.cat_self(table, "epilogue") / per_s,
        "grb._kernels.self_s": layers.cat_self(table, "kernel") / per_s,
        "grb.storage.write_s": write.get("self_s", 0.0) / per_s,
        "grb.storage.writes": write.get("calls", 0) / per,
        "obs.spans": table["spans"],
        "obs.self_sum_share": (table["self_sum_s"] / table["root_s"]
                               if table["root_s"] else 0.0),
    }


def profile_metrics(per: float, plancache_before) -> Dict[str, float]:
    """Counters the program keeps itself: the deep-profiling kernel and
    decision tables, the plan cache and the store-footprint gauge."""
    kernels = obs.profile.kernel_table()
    wall = sum(r["wall_s"] for r in kernels.values())
    judged = mis = 0
    for row in obs.profile.decision_table().values():
        judged += row["judged"]
        mis += row["mispredicted"]
    pc = plancache.stats()
    hits = pc.hits - plancache_before.hits
    probes = hits + pc.misses - plancache_before.misses
    store = obs.json_snapshot()["metrics"].get("grb_store_bytes", {})
    return {
        "grb._kernels.calls": sum(r["calls"] for r in kernels.values()) / per,
        "grb._kernels.nnz_out":
            sum(r["nnz_out"] for r in kernels.values()) / per,
        "grb._kernels.bytes": sum(r["bytes"] for r in kernels.values()) / per,
        "grb._kernels.top1_share":
            max((r["wall_s"] for r in kernels.values()), default=0.0) / wall
            if wall else 0.0,
        "grb.engine.mispredict_rate": mis / judged if judged else 0.0,
        "grb.engine.plancache_hit_rate": hits / probes if probes else 0.0,
        "grb.engine.plancache_feed_mb": pc.feed_bytes / 1e6,
        "grb.storage.store_mb":
            sum(s["value"] for s in store.get("samples", ())) / 1e6,
    }


def run(graph: str, size: str, mix: str, seed: int, seconds: float,
        trace: bool, traced_rounds: int, setup_reps: int) -> dict:
    """One run of a ``gap_*`` workload; see ``bench.run`` for the result
    layout."""
    setups, env = [], None
    for _ in range(setup_reps):
        del env
        gc.collect()        # the old graphs go before the new ones come
        with probe.timed(SETUP_PROBES) as t:
            env = build_env(graph, size, TRIALS[mix])
        setups.append(t)
    with probe.timed() as cold_t:
        cold = run_round(env, seed, COLD, 0)
    level = probe.Level()
    rounds = run_rounds(env, seed, seconds * (0.5 if trace else 1.0), level)
    setup = stats.summary([t.seconds for t in setups])
    setup["raw"] = stats.quartiles([t.raw for t in setups])[1]
    e2e = {"setup_s": setup, **round_metrics(env, rounds, level),
           **call_latency(rounds, level)}
    tail = e2e.pop("latency_p95_ms")["value"]       # a per-layer metric

    attempted = sum(len(r.plan) for r in [cold] + rounds)
    failed = sum(r.failed for r in [cold] + rounds)
    result = {"end_to_end": e2e, "info": {
        "graph": f"{graph}-{size}", "n": env.g.n, "nvals": env.g.nvals,
        "rounds": len(rounds), "trials": env.trials,
        "machine_level": level.low}}

    if trace:
        k = min(traced_rounds, len(rounds))
        obs.profile.reset()
        pc0 = plancache.stats()
        traced, traced_level = [], probe.Level().take()
        with obs.tracing() as coll, obs.profiling():
            for r in range(k):
                traced.append(run_round(env, seed, TIMED, r))
                traced_level.take()
        attempted += sum(len(r.plan) for r in traced)
        failed += sum(r.failed for r in traced)
        table = layers.layer_table(coll.records())
        lvl = traced_level.value     # layer times are sums over the rounds
        untraced_s = stats.quartiles(
            [r.wall for r in rounds[:k]])[0] / level.low
        traced_s = stats.quartiles(
            [r.wall for r in traced])[0] / traced_level.low
        lag = layers.cat_self(table, "bench") / k
        per_layer = {
            **engine_layer_metrics(table, k, lvl),
            **profile_metrics(k, pc0),
            "lagraph.self_s": lag / lvl,
            "lagraph.self_share": lag * k / table["self_sum_s"],
            "grb.engine.cold_round_s": cold_t.seconds,
            "obs.trace_overhead_share": (traced_s - untraced_s) / untraced_s,
            "bench.machine_level": lvl,
            "serve.latency_p95_ms": tail,
        }
        base = baseline_times(env, rounds[-1])
        for kern in KERNELS:
            per_layer[f"gap.baseline_{kern}_s"] = base[kern]
            per_layer[f"gap.ratio_{kern}"] = (
                e2e[f"{kern}_s"]["value"] / base[kern])
        per_layer["gap.build_s"] = e2e["setup_s"]["value"]
        result.update(per_layer=per_layer, layers=table, trace=coll)
        result["info"]["traced_rounds"] = k
        result["info"]["kernel_table"] = obs.profile.kernel_table()
        result["info"]["rule_table"] = obs.profile.rule_table()

    with probe.timed() as verify_t:
        checked, bad = verify_round(env, rounds[-1])
    if trace:
        result["per_layer"]["gap.verify_s"] = verify_t.seconds
    result.update(attempted=attempted + checked, failed=failed + bad,
                  correct=bad == 0)
    return result
