"""``python3 -m bench.run`` — the benchmark's one command.

Two modes, told apart by ``--trace``:

* **one run** (what the benchmark driver calls)::

      python3 -m bench.run --workload W --seed N --seconds S --trace 0|1

  runs workload ``W`` in this process and prints, as the last line of
  standard output, ``{"correct", "attempted", "failed", "metrics"}`` with
  every end-to-end metric (``--trace 0``, tracing off) or every per-layer
  metric (``--trace 1``).  Exit code 0 only if nothing failed.

* **full run** (no ``--trace``)::

      python3 -m bench.run [--seed N] [--workload W ...] [--quick]

  runs each workload twice, each time in a fresh subprocess (clean plan
  cache, clean obs registry, its own peak RSS): untraced for the end-to-end
  metrics, then traced for the layer table.  It prints every metric,
  writes ``bench/results/`` and refreshes ``BENCHMARK.json``.
  ``--repeat K --out FILE`` instead makes ``K`` untraced runs of each
  workload with seeds ``N … N+K-1`` and writes them as a run set for
  ``python3 -m bench.compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from . import spec, stats

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

#: Graph size per workload (full, quick).  ``gap_road`` is the 72×72 grid:
#: its round takes ~0.5 s, so one run holds some forty rounds; the 160×160
#: grid's 3 s round leaves seven, too few for a steady median.
SIZES = {
    "gap_lowdiam": ("medium", "tiny"),
    "gap_road": ("small", "tiny"),
    "serve_burst": ("small", "tiny"),
    "serve_churn": ("small", "tiny"),
}
SETUP_REPS = 5
TRACED_ROUNDS = 6
QUICK_SECONDS = 2


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """Run one workload in this process; returns the full result."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"bench: {src}/repro not found — there is no program here "
                 "to measure")
    sys.path.insert(0, str(src))
    os.environ.pop("REPRO_POOL_WORKERS", None)   # the pool stays off
    size = SIZES[workload][quick]
    reps = 1 if quick else SETUP_REPS
    if workload.startswith("gap_"):
        from . import gap_workload
        graph, mix = {"gap_lowdiam": ("kron", "lowdiam"),
                      "gap_road": ("road", "road")}[workload]
        result = gap_workload.run(graph, size, mix, seed, seconds, trace,
                                  2 if quick else TRACED_ROUNDS, reps)
    else:
        from . import serve_workload
        result = serve_workload.run(workload, size, seed, seconds, trace,
                                    reps)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["end_to_end"]["peak_rss_mb"] = {"value": rss_mb}
    for m in spec.END_TO_END:
        result["end_to_end"][m.name]["unit"] = m.unit
    if trace:
        raw = result["per_layer"]
        raw["bench.failed_share"] = result["failed"] / result["attempted"]

        def pick(metrics):
            return {m.name: {"value": float(raw.get(m.name, 0.0)),
                             "unit": m.unit} for m in metrics}
        result["per_layer"] = pick(spec.PER_LAYER)
        if workload.startswith("serve_"):
            result["serve_only"] = pick(spec.SERVE_ONLY)
    return result


def print_metrics(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    for name, m in metrics.items():
        extra = ""
        if "q1" in m:
            extra = f"   [q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}]"
        elif "n" in m:
            extra = f"   [n {m['n']}]"
        print(f"{name:<34}{m['value']:>14.6g} {m.get('unit', ''):<6}{extra}")


def single(args) -> int:
    trace = bool(args.trace)
    workload = args.workload[0]
    result = run_one(workload, args.seed, args.seconds, trace, args.quick)
    print(f"== {workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {int(trace)}{' quick' if args.quick else ''}")
    shown = {"end_to_end": not trace or args.quick, "per_layer": trace,
             "serve_only": "serve_only" in result}
    for key, show in shown.items():
        if show:
            print_metrics(key, result[key])
    collector = result.pop("trace", None)
    print("-- info " + json.dumps(
        {k: v for k, v in result["info"].items()
         if not k.endswith("_table")}, default=float))
    if args.detail:
        doc = {"workload": workload, "seed": args.seed,
               "seconds": args.seconds, "trace": int(trace),
               "quick": args.quick, **result}
        Path(args.detail).write_text(json.dumps(doc, default=float))
        if collector is not None and not args.quick:
            Path(args.detail).with_suffix(".trace.json").write_text(
                collector.to_chrome_json())
    metrics = result["per_layer" if trace else "end_to_end"]
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": float(m["value"]), "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0 if result["correct"] and not result["failed"] else 1


def child(workload: str, seed: int, seconds: float, trace: int, quick: bool,
          detail: Path) -> dict:
    """Run one workload in a fresh interpreter; returns its detail file."""
    cmd = [sys.executable, "-m", "bench.run", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--detail", str(detail)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if not detail.exists():
        sys.exit(f"bench: {workload} produced no result "
                 f"(exit {proc.returncode}):\n{proc.stdout}")
    doc = json.loads(detail.read_text())
    detail.unlink()
    doc["exit"] = proc.returncode
    if proc.returncode:
        print(proc.stdout)
    return doc


def full(args) -> int:
    workloads = args.workload or spec.WORKLOAD_NAMES
    seconds = QUICK_SECONDS if args.quick else args.seconds
    RESULTS.mkdir(exist_ok=True)
    tag = "" if args.seed == 0 else f".seed{args.seed}"
    status = 0
    started = time.perf_counter()
    for w in workloads:
        tmp = RESULTS / f"{w}{tag}.run.json"
        traced = child(w, args.seed, seconds, 1, args.quick, tmp)
        # quick: one traced process yields both tables (its untraced part
        # gives the end-to-end numbers)
        plain = traced if args.quick else child(
            w, args.seed, seconds, 0, False, tmp)
        status |= plain["exit"] | traced["exit"]
        attempted = plain["attempted"] + (0 if args.quick
                                          else traced["attempted"])
        failed = plain["failed"] + (0 if args.quick else traced["failed"])
        doc = {
            "workload": w, "seed": args.seed, "seconds": seconds,
            "quick": args.quick,
            "correct": plain["correct"] and traced["correct"],
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": plain["end_to_end"],
            "per_layer": traced["per_layer"],
            "serve_only": traced.get("serve_only", {}),
            "info": {"untraced": plain["info"], "traced": traced["info"]},
            "claim": None,
        }
        print(f"\n== {w}{' (quick)' if args.quick else ''}   "
              f"correct {doc['correct']}   failed_share "
              f"{doc['failed_share']:.4f} ({failed}/{attempted})")
        print_metrics("end_to_end (untraced)", doc["end_to_end"])
        print_metrics("per_layer (traced)", doc["per_layer"])
        if doc["serve_only"]:
            print_metrics("serve layer times (traced)", doc["serve_only"])
        table = traced["layers"]
        print("-- layer table: self time per span category (traced pass)")
        for cat, row in table["categories"].items():
            print(f"{cat:<12}{row['self_s']:>10.4f} s{row['share']:>8.1%}"
                  f"{row['calls']:>9} spans")
        if args.quick:
            continue
        info = doc["info"]["traced"]
        layer_doc = {"workload": w, "seed": args.seed, **table,
                     "kernels": info.pop("kernel_table", {}),
                     "rules": info.pop("rule_table", {})}
        (RESULTS / f"{w}{tag}.json").write_text(
            json.dumps(doc, indent=1) + "\n")
        (RESULTS / f"layers.{w}{tag}.json").write_text(
            json.dumps(layer_doc, indent=1) + "\n")
        tmp.with_suffix(".trace.json").replace(
            RESULTS / f"{w}{tag}.trace.json")
    if not args.quick and spec.write_benchmark_json(ROOT):
        print("\nBENCHMARK.json refreshed")
    print(f"\ntotal {time.perf_counter() - started:.1f} s")
    return status


def repeat(args) -> int:
    workloads = args.workload or spec.WORKLOAD_NAMES
    tmp = Path(args.out).with_suffix(".run.json")
    runs, status = [], 0
    for i in range(args.repeat):
        for w in workloads:
            doc = child(w, args.seed + i, args.seconds, 0, False, tmp)
            status |= doc["exit"]
            runs.append({
                "workload": w, "seed": doc["seed"],
                "attempted": doc["attempted"], "failed": doc["failed"],
                "end_to_end": {k: m["value"]
                               for k, m in doc["end_to_end"].items()},
                "raw": {k: m.get("raw", m["value"])
                        for k, m in doc["end_to_end"].items()}})
            print(f"run {i} {w}: " + "  ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["end_to_end"].items()),
                flush=True)
    Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    for w in workloads:
        print(f"\n== {w}: spread over {args.repeat} runs "
              "(IQR / median; target is a third of the bound)")
        for m in spec.END_TO_END:
            vals = [r["end_to_end"][m.name] for r in runs
                    if r["workload"] == w]
            s = stats.spread(vals)
            flag = "" if s <= m.bound / 3 else (
                "  > bound/3" if s <= m.bound else "  > BOUND")
            print(f"{m.name:<18}median {stats.quartiles(vals)[1]:>12.6g} "
                  f"{m.unit:<5} spread {s:>7.2%}  bound {m.bound:.0%}{flag}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m bench.run",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=spec.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="run one workload in this process")
    ap.add_argument("--quick", action="store_true",
                    help="smoke mode: tiny graphs, 2 s, nothing written")
    ap.add_argument("--detail", help="(one run) also write the full result "
                                     "here, and the Chrome trace beside it")
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--out", help="run-set file written by --repeat")
    args = ap.parse_args(argv)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            ap.error("--trace needs exactly one --workload")
        return single(args)
    if args.repeat:
        if not args.out:
            ap.error("--repeat needs --out")
        return repeat(args)
    return full(args)


if __name__ == "__main__":
    sys.exit(main())
