"""What the benchmark measures: workloads, metrics, bounds.

This module is the single source of ``BENCHMARK.json``: the full run
(``python3 -m bench.run``) rewrites that file from :func:`benchmark_json`,
and the per-workload runner emits exactly the metric names listed here.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, NamedTuple

#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 25

COMMAND = ["python3", "-m", "bench.run"]
PATHS = ["bench"]

WORKLOADS: List[Dict[str, str]] = [
    {"name": "gap_lowdiam",
     "why": "Six Table III kernels on kron-medium: few heavy levels, time "
            "sits in grb._kernels; a kernel or format change shows here, "
            "a dispatch-overhead one barely does."},
    {"name": "gap_road",
     "why": "Same six kernels on a road grid: hundreds of near-empty "
            "levels, time sits in engine dispatch, storage write-back and "
            "lagraph Python loops; kernel changes should not move it."},
    {"name": "serve_burst",
     "why": "Open-loop bursts of 32 on kron-small with the memo off: all "
            "work is queue, coalesce and batched msbfs/sssp kernels; memo "
            "changes must not move it."},
    {"name": "serve_churn",
     "why": "Poisson Zipf reads over an 8-vertex hot set with the memo on "
            "and an edge re-weighted every second: memo hits, invalidation "
            "and the un-batched recompute path."},
]

WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str          # "lower" | "higher"
    bound: float = 0.0   # end-to-end only: allowed worsening, share of median


KERNELS = ("bfs", "bc", "pr", "cc", "sssp", "tc")

#: Every timing carries the largest bound the benchmark contract allows.
#: On the sandbox this was written in, ten runs of the same code spread
#: (inter-quartile distance ÷ median) by 5–17 % on most timings after
#: machine-speed normalisation and by more in a contended spell
#: (``README.md``, "Steadiness"); a tighter bound would flag noise.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    *[Metric(f"{k}_s", "s", "lower", 0.25) for k in KERNELS],
    Metric("round_s", "s", "lower", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("goodput_rps", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
]

#: Allowed absolute rise of failed/attempted before ``bench.compare`` says
#: "regressed".  Failures are carried by the result line's ``attempted`` /
#: ``failed`` keys, not by a bounded metric: the share is 0 on every
#: workload, and a metric that is always 0 has no relative spread.
FAILED_SHARE_BOUND = 0.002

PER_LAYER: List[Metric] = [
    # gap: reference implementations and the Table III shape
    Metric("gap.build_s", "s", "lower"),
    *[Metric(f"gap.baseline_{k}_s", "s", "lower") for k in KERNELS],
    *[Metric(f"gap.ratio_{k}", "ratio", "lower") for k in KERNELS],
    Metric("gap.verify_s", "s", "lower"),
    # lagraph: Python between the benchmark's root span and the engine
    Metric("lagraph.self_s", "s", "lower"),
    Metric("lagraph.self_share", "ratio", "lower"),
    Metric("lagraph.plans_per_round", "count", "lower"),
    # grb.engine: planner dispatch
    Metric("grb.engine.plan_self_s", "s", "lower"),
    Metric("grb.engine.choose_s", "s", "lower"),
    Metric("grb.engine.choose_calls", "count", "lower"),
    Metric("grb.engine.epilogue_s", "s", "lower"),
    Metric("grb.engine.plancache_hit_rate", "ratio", "higher"),
    Metric("grb.engine.plancache_feed_mb", "MB", "lower"),
    Metric("grb.engine.mispredict_rate", "ratio", "lower"),
    Metric("grb.engine.cold_round_s", "s", "lower"),
    # grb._kernels
    Metric("grb._kernels.self_s", "s", "lower"),
    Metric("grb._kernels.calls", "count", "lower"),
    Metric("grb._kernels.nnz_out", "count", "lower"),
    Metric("grb._kernels.bytes", "count", "lower"),
    Metric("grb._kernels.top1_share", "ratio", "lower"),
    # grb.storage
    Metric("grb.storage.write_s", "s", "lower"),
    Metric("grb.storage.writes", "count", "lower"),
    Metric("grb.storage.store_mb", "MB", "lower"),
    # serve: counts and ratios, 0 on the gap_* workloads
    Metric("serve.batches", "count", "lower"),
    Metric("serve.kernel_calls", "count", "lower"),
    Metric("serve.coalescing_ratio", "ratio", "higher"),
    Metric("serve.memo_hit_rate", "ratio", "higher"),
    Metric("serve.queue_depth_peak", "count", "lower"),
    Metric("serve.batch_size_p50", "count", "higher"),
    Metric("serve.batch_busy_share", "ratio", "lower"),
    Metric("serve.max_rate_ok_rps", "1/s", "higher"),
    # the tail of the measured step: a kernel call counts as a request on
    # gap_*.  Demoted from the end-to-end list: under churn it spreads by
    # 12-40 % from run to run (README.md, "Steadiness")
    Metric("serve.latency_p95_ms", "ms", "lower"),
    # obs: how far the layer table can be trusted
    Metric("obs.trace_overhead_share", "ratio", "lower"),
    Metric("obs.spans", "count", "lower"),
    Metric("obs.self_sum_share", "ratio", "higher"),
    Metric("bench.machine_level", "ratio", "lower"),
    Metric("bench.failed_share", "ratio", "lower"),
]


#: Serve-layer *times*.  They exist only on the serve_* workloads, and
#: ``BENCHMARK.json`` lists only metrics every workload reports (a time
#: that reads 0 on every gap_* run is not a measurement), so the full run
#: prints and records these beside the per-layer metrics instead.
SERVE_ONLY: List[Metric] = [
    Metric("serve.submit_self_s", "s", "lower"),
    Metric("serve.batch_busy_s", "s", "lower"),
    Metric("serve.queue_wait_ms_p50", "ms", "lower"),
    Metric("serve.queue_wait_ms_p95", "ms", "lower"),
    Metric("serve.latency_p99_ms", "ms", "lower"),
    Metric("serve.p95_ms_mid", "ms", "lower"),
    Metric("serve.p95_ms_hi", "ms", "lower"),
    Metric("serve.update_ms_p50", "ms", "lower"),
    Metric("serve.gen_late_ms_p99", "ms", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def write_benchmark_json(root: Path) -> bool:
    """Rewrite ``BENCHMARK.json`` under ``root`` if it differs from the
    spec; returns whether the file changed."""
    path = root / "BENCHMARK.json"
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if path.exists() and path.read_text() == text:
        return False
    path.write_text(text)
    return True
