"""``python3 -m bench.compare PARENT.json CHANGE.json`` — judge a change.

Each file is a run set written by ``python3 -m bench.run --repeat K --out
FILE`` (or one ``bench/results/<workload>.json``).  For every workload ×
end-to-end metric the tool prints both sides' median and quartiles, the
ratio of the medians *with the parent median as its base*, and a verdict:

``regressed``   the change's median is worse than the parent's by more
                than the metric's bound, and by more than the run-to-run
                spread of either side;
``unresolved``  the run-to-run spread (inter-quartile distance ÷ median,
                the larger of the two sides) exceeds the bound, so the
                runs cannot show that the metric held;
``improved``    the change's median is better by more than the parent's
                own inter-quartile distance, and the change wins at least
                nine tenths of the seed-matched pairs (ties count for
                neither side);
``unchanged``   otherwise.

``failed_share`` (failed ÷ attempted over all of a side's runs) is judged
on its absolute rise.  Exit code 1 if anything regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Dict, List

from . import spec, stats


def load_runs(path: str) -> List[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    if "runs" in doc:
        return doc["runs"]
    return [{"workload": doc["workload"], "seed": doc["seed"],
             "attempted": doc["attempted"], "failed": doc["failed"],
             "end_to_end": {k: m["value"]
                            for k, m in doc["end_to_end"].items()}}]


def judge(metric: spec.Metric, parent: Dict[int, float],
          change: Dict[int, float]) -> dict:
    """Verdict for one metric on one workload; inputs map seed → value."""
    p, c = list(parent.values()), list(change.values())
    pq, cq = stats.quartiles(p), stats.quartiles(c)
    ratio = cq[1] / pq[1]
    worse = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    noise = max(stats.spread(p), stats.spread(c))
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    sign = 1.0 if metric.better == "lower" else -1.0
    wins = sum(sign * (a - b) > 0 for a, b in pairs)
    losses = sum(sign * (a - b) < 0 for a, b in pairs)
    if worse > metric.bound and worse > noise:
        verdict = "regressed"
    elif noise > metric.bound:
        verdict = "unresolved"
    elif (-worse > stats.spread(p)
          and (not pairs or wins >= 0.9 * (wins + losses))):
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {"parent": pq, "change": cq, "ratio": ratio, "noise": noise,
            "wins": wins, "pairs": wins + losses, "verdict": verdict}


def compare(parent_runs: List[dict], change_runs: List[dict]) -> List[dict]:
    def by_workload(runs):
        out = defaultdict(list)
        for r in runs:
            out[r["workload"]].append(r)
        return out
    pw, cw = by_workload(parent_runs), by_workload(change_runs)
    rows = []
    for w in spec.WORKLOAD_NAMES:
        if w not in pw or w not in cw:
            continue
        for m in spec.END_TO_END:
            rows.append({"workload": w, "metric": m, **judge(
                m, {r["seed"]: r["end_to_end"][m.name] for r in pw[w]},
                {r["seed"]: r["end_to_end"][m.name] for r in cw[w]})})
        share = [sum(r["failed"] for r in runs)
                 / sum(r["attempted"] for r in runs)
                 for runs in (pw[w], cw[w])]
        rows.append({"workload": w, "failed_share": share,
                     "verdict": "regressed" if share[1] - share[0]
                     > spec.FAILED_SHARE_BOUND else "unchanged"})
    return rows


def render(rows: List[dict]) -> str:
    lines = []
    last = None
    for row in rows:
        if row["workload"] != last:
            last = row["workload"]
            lines.append(f"\n== {last}")
            lines.append(f"{'metric':<16}{'parent med [q1, q3]':>34}"
                         f"{'change med [q1, q3]':>34}"
                         f"{'ratio x base':>20}{'spread':>8}{'bound':>7}"
                         f"  verdict")
        if "failed_share" in row:
            p, c = row["failed_share"]
            lines.append(f"{'failed_share':<16}{p:>34.5f}{c:>34.5f}"
                         f"{c - p:>+20.5f}{'':>8}"
                         f"{spec.FAILED_SHARE_BOUND:>7.3f}  {row['verdict']}")
            continue
        m = row["metric"]
        fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"  # noqa: E731
        ratio = f"{row['ratio']:.3f} x {row['parent'][1]:.4g}"
        pairs = (f" ({row['wins']}/{row['pairs']} pairs won)"
                 if row["pairs"] else "")
        lines.append(
            f"{m.name:<16}{fmt(row['parent']):>34}{fmt(row['change']):>34}"
            f"{ratio:>20}{row['noise']:>8.1%}{m.bound:>7.0%}"
            f"  {row['verdict']}{pairs}")
    return "\n".join(lines)


def selftest() -> None:
    """Synthetic run sets with known verdicts."""
    wobble = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.005, 0.995]

    def runs(scale=1.0, noise=1.0, failed=0, metric="round_s", shift=0):
        out = []
        for seed, w in enumerate(wobble):
            e2e = {m.name: wobble[(seed + shift) % len(wobble)]
                   for m in spec.END_TO_END}
            e2e[metric] = scale * (1.0 + (w - 1.0) * noise)
            out.append({"workload": "gap_road", "seed": seed,
                        "attempted": 1000, "failed": failed,
                        "end_to_end": e2e})
        return out

    def verdict_of(parent, change, name="round_s"):
        for row in compare(parent, change):
            if row.get("metric") and row["metric"].name == name:
                return row["verdict"]
            if name == "failed_share" and "failed_share" in row:
                return row["verdict"]
        raise KeyError(name)

    cases = [
        ("2x slowdown", runs(), runs(scale=2.0), "round_s", "regressed"),
        ("within-noise wobble", runs(), runs(scale=1.01, shift=3),
         "round_s", "unchanged"),
        ("failed-share rise", runs(), runs(failed=5), "failed_share",
         "regressed"),
        ("failed-share flat", runs(failed=1), runs(failed=2),
         "failed_share", "unchanged"),
        ("spread wider than the bound", runs(noise=20.0),
         runs(scale=1.05, noise=20.0), "round_s", "unresolved"),
        ("30% faster", runs(), runs(scale=0.7), "round_s", "improved"),
        ("higher-is-better halves", runs(metric="goodput_rps"),
         runs(scale=0.5, metric="goodput_rps"), "goodput_rps", "regressed"),
    ]
    for label, parent, change, name, want in cases:
        got = verdict_of(parent, change, name)
        if got != want:
            sys.exit(f"selftest: {label}: expected {want}, got {got}")
        print(f"ok  {label:<30} -> {got}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m bench.compare",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if args.selftest:
        selftest()
        return 0
    if not (args.parent and args.change):
        ap.error("need PARENT.json and CHANGE.json (or --selftest)")
    rows = compare(load_runs(args.parent), load_runs(args.change))
    print(render(rows))
    return int(any(r["verdict"] == "regressed" for r in rows))


if __name__ == "__main__":
    sys.exit(main())
