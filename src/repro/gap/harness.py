"""The Table III / Table IV harness.

``run_table3`` runs all six GAP kernels on the five suite graphs, timing
both the reference ("GAP" column of Table III) and the LAGraph
implementation ("SS" column), verifying every LAGraph output against its
oracle, and printing rows in the paper's layout::

    Algorithm : graph, with run time in seconds
    package      Kron   Urand  Twitter   Web    Road
    BC : GAP     ...
    BC : LAGr    ...

``run_table4`` prints the benchmark-matrix inventory (Table IV).

The module is import-light so ``python -m repro.gap.harness`` works as a
command-line entry point (``--size tiny|small|medium``).
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Sequence

import numpy as np

from ..lagraph import algorithms as alg
from ..lagraph.utils.timer import Timer
from . import baselines, datasets, verify

__all__ = ["run_table3", "run_table4", "format_table3", "format_table4",
           "ALGORITHMS", "GRAPHS"]

GRAPHS = ("kron", "urand", "twitter", "web", "road")
ALGORITHMS = ("BC", "BFS", "PR", "CC", "SSSP", "TC")

#: GAP trial counts (scaled: GAP uses 16 BFS trials etc.; we use fewer).
_N_SOURCES = 4


def _sources(g, k: int = _N_SOURCES, seed: int = 0) -> np.ndarray:
    """GAP-style random non-isolated source nodes."""
    deg = np.diff(g.A.indptr)
    candidates = np.flatnonzero(deg > 0)
    rng = np.random.default_rng(seed)
    if candidates.size == 0:
        return np.zeros(k, dtype=np.int64)
    return rng.choice(candidates, size=min(k, candidates.size), replace=False)


def _run_one(algo: str, g, gw, check: bool) -> Dict[str, float]:
    """Time one kernel on one graph; returns {'gap': s, 'lagraph': s}."""
    t = Timer()
    srcs = _sources(g)
    out: Dict[str, float] = {}

    if algo == "BFS":
        g.cache_at()
        g.cache_row_degree()
        t.tic()
        for s in srcs:
            baselines.bfs_parent(g, int(s))
        out["gap"] = t.toc() / srcs.size
        t.tic()
        for s in srcs:
            parent = alg.bfs_parent_do(g, int(s))
        out["lagraph"] = t.toc() / srcs.size
        if check:
            verify.verify_bfs_parent(g, int(srcs[-1]), parent)
    elif algo == "BC":
        g.cache_at()
        t.tic()
        baselines.betweenness_centrality(g, srcs)
        out["gap"] = t.toc()
        t.tic()
        cent = alg.betweenness_centrality_batch(g, srcs)
        out["lagraph"] = t.toc()
        if check:
            verify.verify_bc(g, srcs, cent)
    elif algo == "PR":
        g.cache_at()
        g.cache_row_degree()
        t.tic()
        baselines.pagerank(g)
        out["gap"] = t.toc()
        t.tic()
        rank, _ = alg.pagerank_gap(g)
        out["lagraph"] = t.toc()
        if check:
            verify.verify_pr(g, rank, tol=1e-4)
    elif algo == "CC":
        t.tic()
        baselines.connected_components(g)
        out["gap"] = t.toc()
        t.tic()
        comp = alg.connected_components(g)
        out["lagraph"] = t.toc()
        if check:
            verify.verify_cc(g, comp)
    elif algo == "SSSP":
        t.tic()
        for s in srcs:
            baselines.sssp_dijkstra(gw, int(s))
        out["gap"] = t.toc() / srcs.size
        delta = max(float(gw.A.values.mean()), 1.0) if gw.A.nvals else 1.0
        t.tic()
        for s in srcs:
            dist = alg.sssp_delta_stepping(gw, int(s), delta=delta)
        out["lagraph"] = t.toc() / srcs.size
        if check:
            verify.verify_sssp(gw, int(srcs[-1]), dist)
    elif algo == "TC":
        t.tic()
        ref = baselines.triangle_count(g)
        out["gap"] = t.toc()
        t.tic()
        count = alg.triangle_count_basic(g)
        out["lagraph"] = t.toc()
        if check:
            assert count == ref, f"TC mismatch: {count} vs {ref}"
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return out


def run_table3(size: str = "small", algorithms: Sequence[str] = ALGORITHMS,
               graphs: Sequence[str] = GRAPHS, check: bool = True) -> Dict:
    """Run the Table III experiment; returns nested results in seconds.

    ``results[algo][graph] = {"gap": seconds, "lagraph": seconds}``.
    Every LAGraph output is verified against its oracle unless
    ``check=False``.
    """
    built = {}
    built_w = {}
    for name in graphs:
        built[name] = datasets.build(name, size)
        built_w[name] = datasets.build(name, size, weighted=True)
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for algo in algorithms:
        results[algo] = {}
        for name in graphs:
            results[algo][name] = _run_one(algo, built[name], built_w[name],
                                           check)
    return results


def format_table3(results: Dict, graphs: Sequence[str] = GRAPHS) -> str:
    """Render results in the paper's Table III layout."""
    header = ["Algorithm : graph, with run time in seconds"]
    cols = "".join(f"{g.capitalize():>10}" for g in graphs)
    header.append(f"{'package':<14}{cols}")
    lines = header
    for algo, per_graph in results.items():
        for package, label in (("gap", "GAP"), ("lagraph", "LAGr")):
            cells = "".join(
                f"{per_graph[g][package]:>10.3f}" if g in per_graph else
                f"{'-':>10}"
                for g in graphs)
            lines.append(f"{algo + ' : ' + label:<14}{cells}")
    return "\n".join(lines)


def run_table4(size: str = "small") -> List[tuple]:
    """The Table IV inventory rows for the generated suite."""
    return datasets.suite_table(size)


def format_table4(rows: List[tuple]) -> str:
    lines = [f"{'graph':<10}{'nodes':>12}{'entries in A':>16}  graph kind"]
    for name, n, nvals, kind in rows:
        lines.append(f"{name:<10}{n:>12,}{nvals:>16,}  {kind}")
    return "\n".join(lines)


def main(argv=None):  # pragma: no cover - CLI convenience
    ap = argparse.ArgumentParser(description="GAP benchmark harness")
    ap.add_argument("--size", default="small", choices=datasets.SIZES)
    ap.add_argument("--algorithms", nargs="*", default=list(ALGORITHMS),
                    choices=ALGORITHMS)
    ap.add_argument("--no-check", action="store_true")
    args = ap.parse_args(argv)
    print(format_table4(run_table4(args.size)))
    print()
    results = run_table3(args.size, algorithms=args.algorithms,
                         check=not args.no_check)
    print(format_table3(results))


if __name__ == "__main__":  # pragma: no cover
    main()
