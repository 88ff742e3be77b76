"""The layer table: self-time per span category, read from a trace.

The program already emits spans at its layer boundaries
(``plan:<op>`` → ``plan-choose`` → ``kernel:<rule>`` → ``epilogue:<kind>``
→ ``write``, and ``serve:batch`` / ``serve:enqueue`` / ``serve:answer``
on the serve side).  The benchmark adds only root spans of category
``bench`` around its calls into the program.  A span's *self time* is its
duration minus the part of its own interval that its child spans cover;
summed per category that is the time each layer kept for itself.

Clipping children to the parent's interval matters on the serve side: a
``serve:batch`` span is the child of the request span that submitted it,
but runs later, on a worker thread, after that request span has closed.
Such a detached child takes nothing from its parent and counts as a root
of its own in ``root_s``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Dict, List

REQUEST_SPAN = "bench:serve:request"


def _covered(kids: List[dict], t0: float, t1: float) -> float:
    """Length of ``[t0, t1]`` covered by the union of the kids' intervals."""
    total = 0.0
    end = t0
    for k in sorted(kids, key=lambda r: r["ts"]):
        a = max(k["ts"], end)
        b = min(k["ts"] + k["dur"], t1)
        if b > a:
            total += b - a
            end = b
    return total


def layer_table(records: List[dict]) -> dict:
    """Self-time, call count and share per span category and per span name.

    ``root_s`` is the time under root spans (spans with no parent, plus the
    part of every child that lies outside its parent's interval); the
    self-times sum to it exactly unless sibling spans overlap, and
    ``self_sum_s / root_s`` is reported so the table can be checked.
    """
    spans = [r for r in records if r["type"] == "span"]
    by_id = {r["span_id"]: r for r in spans}
    kids: Dict[int, List[dict]] = defaultdict(list)
    for r in spans:
        if r.get("parent_id") in by_id:
            kids[r["parent_id"]].append(r)

    cats: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    names: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    root_s = self_sum = 0.0
    for r in spans:
        t0, t1 = r["ts"], r["ts"] + r["dur"]
        self_s = r["dur"] - _covered(kids.get(r["span_id"], ()), t0, t1)
        self_sum += self_s
        parent = by_id.get(r.get("parent_id"))
        if parent is None:
            root_s += r["dur"]
        else:
            root_s += r["dur"] - _covered(
                [r], parent["ts"], parent["ts"] + parent["dur"])
        c = cats[r.get("cat", "?")]
        c[0] += self_s
        c[1] += 1
        n = names[r["name"]]
        n[0] += self_s
        n[1] += r["dur"]
        n[2] += 1

    def share(x):
        return x / self_sum if self_sum else 0.0

    return {
        "root_s": root_s,
        "self_sum_s": self_sum,
        "spans": len(spans),
        "records": len(records),
        "categories": {
            cat: {"self_s": s, "calls": n, "share": share(s)}
            for cat, (s, n) in sorted(cats.items())},
        "names": {
            name: {"self_s": s, "total_s": tot, "calls": n,
                   "share": share(s)}
            for name, (s, tot, n) in sorted(names.items())},
    }


def cat_self(table: dict, cat: str) -> float:
    return table["categories"].get(cat, {}).get("self_s", 0.0)


def queue_waits_ms(records: List[dict]) -> List[float]:
    """Per request that missed the memo: time from its ``serve:enqueue``
    instant to the start of the ``serve:batch`` span that answered it.

    The program links only a batch's *first* request to the batch span, so
    the rest are matched by time: the answering batch is the one of the
    request's query kind that ended last before the request's
    ``serve:answer`` instant.
    """
    kind_of = {}
    enqueued = {}
    answered = {}
    batches: Dict[str, List[tuple]] = defaultdict(list)
    for r in records:
        name = r["name"]
        if name == REQUEST_SPAN:
            kind_of[r["span_id"]] = r["args"].get("query")
        elif name == "serve:enqueue":
            enqueued[r.get("parent_id")] = r["ts"]
        elif name == "serve:answer":
            answered[r.get("parent_id")] = r["ts"]
        elif name == "serve:batch":
            batches[r["args"].get("query")].append(
                (r["ts"] + r["dur"], r["ts"]))
    for rows in batches.values():
        rows.sort()
    waits = []
    for req, t_enq in enqueued.items():
        t_ans = answered.get(req)
        rows = batches.get(kind_of.get(req))
        if t_ans is None or not rows:
            continue
        i = bisect_right(rows, (t_ans, float("inf"))) - 1
        if i >= 0 and rows[i][1] >= t_enq:
            waits.append((rows[i][1] - t_enq) * 1e3)
    return waits
