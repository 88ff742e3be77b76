"""The unified cost model: every tunable the planner consults, in one place.

Before the engine existed these constants were scattered — the masked-mxm
chooser lived in ``_kernels/masked_matmul.py``, the Beamer push/pull
constants in ``lagraph/algorithms/bfs.py``.  Planner rules
(:mod:`repro.grb.engine.rules`) now read *this* module at decision time, so
monkeypatching any constant here re-routes every call that consults it —
the same forcing idiom :mod:`repro.grb.storage.policy` established::

    monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)   # force the dot kernel
    monkeypatch.setattr(cost, "DOT_PROBE_COST", inf)   # ... or rule it out
    monkeypatch.setattr(cost, "MASKED_MIN_NNZ", inf)   # masked engine off
    monkeypatch.setattr(cost, "PUSHPULL_ALPHA", 0.0)   # BFS: push
    monkeypatch.setattr(cost, "FUSION_ENABLED", False) # decompose epilogues

Only two behaviours have no constant to express them and keep a boolean:
``FUSION_ENABLED`` (the decomposed test oracle) and ``PLAN_CACHE_ENABLED``
(the cold baseline).

Kernel *mechanism* caps (e.g. the dense-flag grid cap of the dot probe)
stay next to their kernels: they tune how a chosen kernel executes, not
which kernel is chosen.

Cost units are relative: one compiled SciPy flop ≡ 1.0.  The write-cost
terms price the part of a multiply the flop counts miss — materialising and
mask-filtering the product (``FALLBACK_WRITE_COST`` per estimated product
entry) versus emitting at most one output per mask entry
(``DOT_WRITE_COST``).
"""

from __future__ import annotations

import numpy as np

from ...obs import profile as _profile

__all__ = [
    # switches
    "FUSION_ENABLED", "PLAN_CACHE_ENABLED",
    # masked-mxm chooser
    "DOT_PROBE_COST", "SCIPY_FLOP_COST", "EXPAND_FLOP_COST", "FLOP_SAMPLE",
    "MASKED_MIN_NNZ", "LIVE_ROW_FRACTION",
    "DOT_WRITE_COST", "FALLBACK_WRITE_COST",
    # batched-frontier (msbfs) choosers
    "MSBFS_PROBE_DENSITY", "MSBFS_FUSE_FRONTIER_K",
    # frontier-direction (Beamer) chooser
    "PUSHPULL_ALPHA", "PUSHPULL_BETA",
    # estimators and choosers
    "dot_probe_cost", "expand_flops_estimate", "expand_flops_exact",
    "product_nnz_estimate", "choose_masked_method", "choose_direction",
]

# ---------------------------------------------------------------------------
# master switches (ablation / bisection aids)
# ---------------------------------------------------------------------------

#: Master switch for fusion: with ``False`` every fused plan's epilogue
#: chain decomposes into the seed sequence (materialised intermediates
#: between stages) — the slow arm of the PageRank ratio guard in
#: ``test_planner_parity.py`` and the call-at-a-time reference.
FUSION_ENABLED = True
#: The keyed plan cache (:mod:`repro.grb.engine.plancache`): repeated
#: identical dispatches skip the rule choosers and reuse the claimed
#: rule's operand feeds.  ``False`` re-analyses every call (the cold arm
#: of the ratio guard in ``tests/grb/engine/test_plancache.py``).
PLAN_CACHE_ENABLED = True

# ---------------------------------------------------------------------------
# masked-mxm chooser (dot3 vs mask-restricted fallback)
# ---------------------------------------------------------------------------

#: Relative cost of one dot probe lane (a dense flag/slot gather, or a
#: bounded or global searchsorted) — ``inf`` rules the dot3 kernel out.
#: Fitted from the deep-profiling rule table (``obs.profile.rule_table()``
#: ``s_per_unit``) with every masked product forced to each arm in turn:
#: BC's backward levels on kron-medium / kron-small (seed-1 bench batches,
#: plan cache off, 2-core Xeon) run 25–31 ns per probe on
#: ``mxm-masked-dot`` against 22–28 ns per exact flop on ``mxm-scipy``, a
#: ratio of 1.09–1.16; kron-small TC reads 0.89.  The fit holds for
#: probes the dense maps resolve: a grid over their budget pays the global
#: ``searchsorted`` (TC on kron-medium reads 2.0).  Bounds: above 0.72 the
#: worst BC level (mask 7 122, 1.04 M probes, 0.68 M flops) goes to SciPy;
#: below 2.09 the mask-2 451 level keeps the dot, and below ~2.3 TC does
#: (``test_masked_mxm.py::TestChooserAndTelemetry``) ...
DOT_PROBE_COST = 1.2
#: ... versus one flop on SciPy's compiled CSR kernel ...
SCIPY_FLOP_COST = 1.0
#: ... versus one flop on the vectorised gather/sort expand kernel.
EXPAND_FLOP_COST = 4.0
#: A-entries sampled for the expand-path flop estimate.
FLOP_SAMPLE = 512

#: Cost of emitting one dot output candidate (≤ one per mask entry).
DOT_WRITE_COST = 0.5
#: Cost of materialising + mask-filtering one estimated product entry on
#: the fallback paths — the output-write term the flop counts miss.
FALLBACK_WRITE_COST = 1.0

#: Combined operand nnz below which the masked engine stands down entirely
#: (no chooser, no row restriction): tiny products are cheaper to compute
#: in full than to analyse.  ``inf`` stands it down for every product —
#: the unrestricted reference the masked-mxm tests compare against.
MASKED_MIN_NNZ = 1 << 15

#: Row restriction only engages when the mask leaves at most this fraction
#: of the output rows alive — slicing the operand to skip a handful of dead
#: rows costs more than computing them.
LIVE_ROW_FRACTION = 0.75

# ---------------------------------------------------------------------------
# batched-frontier (msbfs) choosers
# ---------------------------------------------------------------------------

#: Frontier density (nvals / grid) above which a probe level beats a push
#: level: the expected number of probes until a hit scales like the
#: inverse density — the Beamer direction switch of Alg. 2, batched.
MSBFS_PROBE_DENSITY = 0.05
#: Frontiers with fewer live entries than this skip the masked ``mxm``
#: entirely: consecutive near-empty levels run as raw-array neighbour
#: expansions and merge into the output once per run (1.6–1.9× on the
#: small road grid, 64 sources; 13× before near-empty levels were written
#: back in place).  0 disables level fusion.  The planner's own
#: small-product rule (``mxm-small-expand``, ISSUE 23) does not replace
#: this path, on a measurement: road-small ``msbfs_levels``, 4 sources,
#: 8.3–9.3 ms fused against 35–41 ms for the ``K = 0`` loop *with* that
#: rule claiming every level (37–44 ms with every product pinned to
#: ``mxm-scipy``; 64 sources: 86–89 against 140–154 ms) — what a fused
#: level still skips is three dispatches and a write-back, not a
#: multiply.
MSBFS_FUSE_FRONTIER_K = 8192

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


def expand_flops_estimate(a_indices: np.ndarray,
                          b_row_lengths: np.ndarray) -> float:
    """Sampled flop estimate for the unmasked product ``A ⊕.⊗ B``.

    Samples every ``nnz(A) / FLOP_SAMPLE``-th A entry (deterministic — no
    RNG) and extrapolates the mean B-row length to the full entry count.
    """
    nnz = a_indices.size
    if nnz == 0:
        return 0.0
    step = max(1, nnz // FLOP_SAMPLE)
    sampled = a_indices[::step]
    return float(b_row_lengths[sampled].mean()) * nnz


def expand_flops_exact(a_indices: np.ndarray,
                       b_row_lengths: np.ndarray) -> int:
    """Exact flop count of the unmasked product (profiler only — O(nnz))."""
    if a_indices.size == 0:
        return 0
    return int(b_row_lengths[a_indices].sum())


def product_nnz_estimate(est_flops: float, nrows: int, ncols: int) -> float:
    """Estimated stored-entry count of the full product.

    Crude but cheap: the product can't hold more entries than it performs
    flops, nor more than the output grid.  This is the write-cost input —
    it only needs to be the right order of magnitude, and it is exact in
    the two regimes that matter (flop-sparse products, where every flop
    tends to land on a fresh entry, and near-dense products capped by the
    grid).
    """
    return min(est_flops, float(nrows) * float(ncols))


def choose_masked_method(cost_dot: float, est_flops: float, *,
                         scipy_path: bool, mask_nvals: int = 0,
                         est_out_nnz: float = 0.0) -> str:
    """``"dot"`` or ``"fallback"`` from the weighted cost comparison.

    Both sides price compute *and* output writing: the dot kernel emits at
    most one entry per mask entry, while the fallback materialises the
    estimated full product and discards the non-mask part in the
    write-back.
    """
    flop_cost = SCIPY_FLOP_COST if scipy_path else EXPAND_FLOP_COST
    dot_total = cost_dot * DOT_PROBE_COST + mask_nvals * DOT_WRITE_COST
    fb_total = est_flops * flop_cost + est_out_nnz * FALLBACK_WRITE_COST
    return "dot" if dot_total <= fb_total else "fallback"


def choose_direction(frontier_edges: float, unexplored_edges: float,
                     frontier_nvals: int, n: int) -> str:
    """``"push"`` or ``"pull"`` for one frontier-expansion step.

    The Beamer chooser (GAP's alpha/beta heuristic): push while the
    frontier is light — its out-edges times ``PUSHPULL_ALPHA`` stay below
    the unexplored edges, or it holds fewer than ``n / PUSHPULL_BETA``
    vertices — pull once it is heavy.  Forceable through those two
    constants and observable as an ``op="bfs_step"`` decision record, like
    every other chooser.
    """
    push = (frontier_edges * PUSHPULL_ALPHA < unexplored_edges
            or frontier_nvals < n / PUSHPULL_BETA)
    direction = "push" if push else "pull"
    if _profile.deciding():
        _profile.decision({
            "op": "bfs_step", "rule": "bfs-" + direction,
            "direction": direction,
            "frontier_edges": float(frontier_edges),
            "unexplored_edges": float(unexplored_edges),
            "frontier_nvals": int(frontier_nvals), "n": int(n)})
    return direction
