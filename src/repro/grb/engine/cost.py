"""The unified cost model: every tunable the planner consults, in one place.

Before the engine existed these constants were scattered — the masked-mxm
chooser lived in ``_kernels/masked_matmul.py``, the Beamer push/pull
constants in ``lagraph/algorithms/bfs.py``.  Five remain: the fusion
switch, two for the masked-mxm chooser and the two Beamer constants,
which every BFS level reads (each row's in the batched sweep that every
BFS runs: ``bfs_parent_do``, Basic ``bfs()``, ``bfs_level``, serve).
Planner rules (:mod:`repro.grb.engine.rules`) now read *this* module at
decision time, so monkeypatching any constant here re-routes every call
that consults it — the same forcing idiom :mod:`repro.grb.storage.policy`
established::

    monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)   # force the dot kernel
    monkeypatch.setattr(cost, "DOT_PROBE_COST", inf)   # ... or rule it out
    monkeypatch.setattr(cost, "MASKED_MIN_NNZ", inf)   # masked engine off
    monkeypatch.setattr(cost, "PUSHPULL_ALPHA", 0.0)   # BFS: push
    monkeypatch.setattr(cost, "FUSION_ENABLED", False) # decompose epilogues

A chooser reads these constants on every call — the masked-dot analysis
memoized on a mask holds the exact counts, never a decision — so a
monkeypatch takes effect at the next call.

Kernel *mechanism* caps (e.g. the dense-flag grid cap of the dot probe)
stay next to their kernels: they tune how a chosen kernel executes, not
which kernel is chosen.

Cost units are relative: one exact flop of the unmasked product on SciPy's
compiled CSR kernel ≡ 1.0.  The masked-mxm chooser compares two exact
counts — the dot kernel's probes, priced at ``DOT_PROBE_COST``, against
those flops — and nothing else: pricing the output writes (≤ one per mask
entry on the dot side, the materialised product on the fallback side)
moved no decision on any benchmark workload, and no ``lagraph`` algorithm
issues a masked product on a semiring SciPy cannot run.
"""

from __future__ import annotations

import math

import numpy as np

from ...obs import profile as _profile

__all__ = [
    # switch
    "FUSION_ENABLED",
    # masked-mxm chooser
    "DOT_PROBE_COST", "MASKED_MIN_NNZ",
    # frontier-direction (Beamer) chooser
    "PUSHPULL_ALPHA", "PUSHPULL_BETA",
    # estimators and choosers
    "dot_probe_cost", "expand_flops_exact", "choose_masked_method",
    "choose_direction",
]

# ---------------------------------------------------------------------------
# master switch (ablation / bisection aid)
# ---------------------------------------------------------------------------

#: Master switch for fusion: with ``False`` every fused plan's epilogue
#: chain decomposes into the seed sequence (materialised intermediates
#: between stages) — the slow arm of the PageRank ratio guard in
#: ``test_planner_parity.py`` and the call-at-a-time reference.
FUSION_ENABLED = True

# ---------------------------------------------------------------------------
# masked-mxm chooser (dot3 vs mask-filtered fallback)
# ---------------------------------------------------------------------------

#: Cost of one dot probe lane (a rank-bitmap lookup, or a bounded
#: searchsorted) in exact SciPy flops of the unmasked product — the one
#: fitted constant of the masked-mxm chooser; ``inf`` rules the dot3
#: kernel out.  Measured from the deep-profiling rule table
#: (``obs.profile.rule_table()`` ``s_per_unit``) with every masked product
#: forced to each arm in turn (2-core Xeon, 3 reads each): TC reads
#: 0.87–0.93 flops per probe on kron-medium and 0.82–0.93 on kron-small.
#: BC's backward levels read 3.3–3.9 on kron-medium and 3.9–4.3 on
#: kron-small (6 batches) since SciPy stopped running a pattern product
#: for ``first`` over positive values; 1.3–1.8 just before, 1.01–1.27
#: when the constant was fitted.  Bounds on exact counts: above 0.62 the
#: worst BC level (mask 7 122, 1.04 M probes, 0.64 M flops) goes to
#: SciPy; up to 1.126 kron-small TC (1.54 M probes, 1.74 M flops) keeps
#: the dot, and so do kron-medium TC and the mask-2 451 BC level
#: (``test_masked_mxm.py::TestChooserAndTelemetry``); 1.1 sits inside
#: that interval, between the TC and the BC readings.  No one value
#: prices both kernels now: BC levels of 1.1–3.5 flops per probe run on
#: the dot though SciPy is faster (5 of 27 dot claims over 12 kron
#: batches), and a constant above 1.126 would move TC off it.
DOT_PROBE_COST = 1.1

#: Combined operand nnz below which the masked engine stands down entirely
#: (no chooser, no mask filter before the sort): tiny products are cheaper
#: to compute in full than to analyse.  ``inf`` stands it down for every
#: product — the unfiltered reference the masked-mxm tests compare against.
MASKED_MIN_NNZ = 1 << 15

# ---------------------------------------------------------------------------
# frontier-direction (push/pull) chooser
# ---------------------------------------------------------------------------

#: Beamer heuristic constants (GAP uses alpha=15, beta=18): pull when the
#: frontier's out-edges outnumber the unexplored edges / alpha, push while
#: the frontier holds fewer than n / beta vertices.  Forcing: both ``inf``
#: never pushes; ``ALPHA = 0`` pushes while any edge is unexplored.
PUSHPULL_ALPHA = 15.0
PUSHPULL_BETA = 18.0


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def dot_probe_cost(la: np.ndarray, lb: np.ndarray) -> int:
    """Exact probe count of the dot kernel: ``Σ min(|A(i,:)|, |Bᵀ(j,:)|)``.

    O(mask nvals) — cheap enough that the chooser uses the exact value
    rather than the ``mask nvals × avg degree`` approximation.
    """
    return int(np.minimum(la, lb).sum())


def expand_flops_exact(a_indices: np.ndarray,
                       b_row_lengths: np.ndarray) -> int:
    """Exact flop count of the unmasked product ``A ⊕.⊗ B``: one gather of
    ``B``'s row lengths at ``A``'s column indices, O(nnz(A))."""
    return int(b_row_lengths[a_indices].sum())


def choose_masked_method(probes: float, flops: float) -> str:
    """``"dot"`` iff the priced probes cost no more than the flops:
    ``DOT_PROBE_COST · probes ≤ flops``, both counts exact."""
    return "dot" if probes * DOT_PROBE_COST <= flops else "fallback"


def choose_direction(frontier_edges, unexplored_edges, frontier_nvals,
                     n: int):
    """The push/pull choice of one level of the batched BFS sweep.

    The Beamer chooser (GAP's alpha/beta heuristic): push while the
    frontier is light — its out-edges times ``PUSHPULL_ALPHA`` stay below
    the unexplored edges, or it holds fewer than ``n / PUSHPULL_BETA``
    vertices — pull once it is heavy.  Per-row arrays in, per-row push
    flags out, each the verdict a one-row sweep would give.  A row whose
    frontier is empty takes no step: its verdict is moot, and the record
    counts it neither way.  Forceable through those two constants and
    observable as one ``op="bfs_step"`` decision record per call, like
    every other chooser.
    """
    # an infinite alpha makes no frontier light by its edges (0 · inf is
    # not "less" either)
    light = (frontier_edges * PUSHPULL_ALPHA < unexplored_edges
             if PUSHPULL_ALPHA < math.inf else False)
    push = light | (frontier_nvals < n / PUSHPULL_BETA)
    if _profile.deciding():
        stepping = np.asarray(frontier_nvals) > 0
        push_rows = int(np.count_nonzero(push & stepping))
        pull_rows = int(np.count_nonzero(stepping)) - push_rows
        direction = "pull" if not push_rows else \
            "push" if not pull_rows else "mixed"
        _profile.decision({
            "op": "bfs_step", "rule": "bfs-" + direction,
            "direction": direction,
            "push_rows": push_rows, "pull_rows": pull_rows,
            "frontier_edges": float(np.sum(frontier_edges)),
            "unexplored_edges": float(np.sum(unexplored_edges)),
            "frontier_nvals": int(np.sum(frontier_nvals)), "n": int(n)})
    return push
