"""Single-source shortest paths (Sec. IV-D; Algorithm 5 of the paper).

Delta-stepping over the ``min.plus`` semiring, following Sridhar et al.
(GrAPL'19, the paper's ref. [21]).  Bucket ``i`` holds the tentative
distances in ``[iΔ, (i+1)Δ)``; light edges (``w ≤ Δ``) are relaxed to a
fixed point inside the bucket, heavy edges (``w > Δ``) once per bucket,
from every node that was ever a member::

    AL = A⟨A ≤ Δ⟩ ;  AH = A⟨Δ < A⟩        split the edges, once
    t(s) = 0
    for i = 0, 1, … while t⟨t ≥ iΔ⟩ is not empty:
        tBi = t⟨iΔ ≤ t < (i+1)Δ⟩          bucket i
        e = ∅
        while tBi is not empty:
            e ∪= s(tBi)                   the "e" accumulator of Alg. 5
            tReq  = tBi min.plus AL       relax the light edges
            tless = tReq⟨tReq < t⟩        … keeping the strict improvements
            t min= tless                  Alg. 5 prints t = min(t, tReq)
            tBi = tless⟨tless < (i+1)Δ⟩   improved into this bucket
        tReq = (t ×∩ e) min.plus AH       heavy edges, once per bucket
        t min= tReq⟨tReq < t⟩

**The split is made once per graph and Δ.**  ``AL`` and ``AH`` depend on
nothing but ``A`` and Δ, so the first call at a Δ builds them and caches
the pair on the graph under ``("sssp", Δ)``
(:meth:`~repro.lagraph.Graph.derived_operand`); every later call at that
Δ, from any source, relaxes over the same two matrices.  Each distinct Δ
keeps its own pair until ``invalidate_properties()`` drops them all.  The
pair carries ``A``'s *values*, not just its pattern: a re-weighted edge
can move between the halves, so any scheme that lets derived state
survive a value-only update must still retire this one.

:func:`sssp_delta_stepping` is that listing call for call.  ``tReq`` and
``tless`` are one call: the improvement filter rides the relaxation's
output pass as a fused ``select`` epilogue (:mod:`repro.grb.engine`) whose
thunk is ``t`` itself, read when the predicate runs — before the merge, as
Alg. 5 orders it — so the rejected candidates never materialise.

``t`` ends up dense and is only ever accumulated into, so it is pinned to
the bitmap format (``LAGr_SingleSourceShortestPath`` keeps it dense the
same way): ``t min= tless`` then writes just the improving entries into the
bitmap in place, the filter looks ``t`` up in O(1) per candidate, and
``t ×∩ e`` is driven from ``e`` and probes ``t`` — a round costs what its
bucket holds, not ``n``.  That only lasts while nothing inside the bucket
loop takes the exporting ``t.bitmap()`` snapshot, after which every
write-back into ``t`` would rebuild it.

**Why merging ``tless`` is merging ``tReq``.**  An entry of ``tReq`` that
is not in ``tless`` has ``tReq(v) ≥ t(v)`` with ``t(v)`` present (an
absent ``t(v)`` is +∞, which every finite candidate improves on), so
``min(t(v), tReq(v)) = t(v)``: the full merge would have left that entry
as it is and created none.  ``t min= tless`` leaves exactly the ``t`` that
``t = min(t, tReq)`` leaves.  And because every candidate is ``t(u) + w``
with ``t(u) ≥ iΔ`` and ``w ≥ 0``, the bucket test on ``tless`` needs its
upper bound only.

Bellman-Ford (:func:`sssp_bellman_ford`) is the same three calls without
buckets — the simplest ``min.plus`` iteration, the serve layer's only
SSSP path (one call per distinct source: a batched matrix-frontier
Bellman-Ford lost to it at every batch size on kron-small) and the
reference the delta-stepping tests compare against.
``cost.FUSION_ENABLED = False`` materialises the epilogues'
intermediates; results are bit-identical either way.
"""

from __future__ import annotations

import math

import numpy as np

from ... import grb
from ...grb import Matrix, Vector, engine
from ...grb import cancel as _cancel
from ...grb._kernels.apply_select import SelectOp
from ..graph import Graph

__all__ = ["sssp_delta_stepping", "sssp_bellman_ford", "sssp"]

_MIN_PLUS = grb.semiring("min", "plus")


def _improves_vec(v, i, j, thunk):
    """Keep candidates strictly below the current distance at their index.

    ``thunk`` is the distance vector's ``(present, dense)`` bitmap — absent
    positions count as +inf, exactly the seed's ``isin``-based probe.  The
    algorithms pass the distance *vector*; the engine hands the predicate
    its arrays as they are when it runs.
    """
    present, dense = thunk
    return v < np.where(present[i], dense[i], np.inf)


_IMPROVES_VEC = SelectOp("__sssp_improves", _improves_vec)


def _check_weights(g: Graph):
    """Sec. II-C/D input contract: a NaN or infinite weight would poison
    ``min`` / the bucket arithmetic silently, a negative one breaks the
    algorithms' invariant."""
    a = g.A
    if a.nvals and not (a.values_all_finite() and a.values.min() >= 0):
        raise grb.InvalidValue(
            "SSSP requires finite, non-negative edge weights")


def _relax(tless: Vector, frontier: Vector, a: Matrix, t: Vector):
    """``tless⟨r⟩ = (frontier min.plus A)⟨· < t⟩`` then ``t min= tless``.

    The filter is an epilogue of the relaxation kernel, reading ``t``
    before the merge; the merge names only ``tless``'s entries, so it
    lands in a bitmap-resident ``t`` in place."""
    engine.execute(
        engine.plan_vxm(tless, frontier, a, _MIN_PLUS, replace=True)
              .then_select(_IMPROVES_VEC, t))
    grb.update(t, tless, accum=grb.binary.MIN)


def sssp_delta_stepping(g: Graph, source: int, delta: float = 2.0) -> Vector:
    """Advanced mode: delta-stepping SSSP from ``source``.

    Returns an FP64 distance vector with entries only for reached nodes
    (bitmap-resident, see the module docstring).  ``delta`` is the bucket
    width Δ; the Basic wrapper picks a default from the weight
    distribution.  The light/heavy split of ``g.A`` at Δ is cached on
    ``g`` (see the module docstring).
    """
    if not 0 <= source < g.n:
        raise grb.IndexOutOfBounds(f"source {source} out of range")
    _check_weights(g)
    a = g.A
    n = g.n
    delta = float(delta)
    if not (math.isfinite(delta) and delta > 0):
        raise grb.InvalidValue("delta must be finite and positive")

    # AL = A⟨A ≤ Δ⟩ ; AH = A⟨Δ < A⟩   (zero-weight edges are light too:
    # the spec's guard is about self-distance, harmless for simple graphs)
    al, ah = g.derived_operand(
        ("sssp", delta),
        lambda: (a.select("valuele", delta), a.select("valuegt", delta)))

    t = Vector(grb.FP64, n).set_format("bitmap")
    t[source] = 0.0
    tbi = Vector(grb.FP64, n)       # the bucket's frontier,
    tless = Vector(grb.FP64, n)     # a round's improving candidates and
    tmasked = Vector(grb.FP64, n)   # t ×∩ e: written anew every time
    i = 0
    while True:
        _cancel.checkpoint()    # deadline/cancel at the bucket boundary
        # smallest non-empty bucket among unsettled nodes
        unsettled = t.select("valuege", i * delta)
        if unsettled.nvals == 0:
            break
        # never back to a bucket already left: (iΔ) // Δ can round to i - 1
        i = max(i, int(float(unsettled.values.min()) // delta))
        hi = (i + 1) * delta

        grb.select(tbi, unsettled, "valuelt", hi)
        ever = np.zeros(n, dtype=bool)  # the "e" accumulator of Alg. 5
        while tbi.nvals:
            _cancel.checkpoint()    # deadline/cancel per light relaxation
            ever[tbi.indices] = True
            _relax(tless, tbi, al, t)
            grb.select(tbi, tless, "valuelt", hi)
        # heavy-edge relaxation from every node that visited bucket i
        e = Vector.from_coo(np.flatnonzero(ever), True, n)
        if e.nvals:
            grb.ewise_mult(tmasked, t, e, grb.binary.FIRST)
            _relax(tless, tmasked, ah, t)
        i += 1
    return t


def sssp_bellman_ford(g: Graph, source: int) -> Vector:
    """Bellman-Ford as a pure ``min.plus`` fixed-point iteration.

    ``dᵀ = dᵀ min.plus A`` (with ``d min∪`` accumulation) until no distance
    changes.  Simple, and the reference the delta-stepping tests compare
    against.
    """
    if not 0 <= source < g.n:
        raise grb.IndexOutOfBounds(f"source {source} out of range")
    _check_weights(g)
    a = g.A
    n = g.n
    d = Vector(grb.FP64, n).set_format("bitmap")
    d[source] = 0.0
    frontier = Vector(grb.FP64, n)
    frontier[source] = 0.0
    for _ in range(n):
        _cancel.checkpoint()    # deadline/cancel at the round boundary
        if frontier.nvals == 0:
            break
        # the next frontier is what this one strictly improves
        _relax(frontier, frontier, a, d)
    return d


def sssp(g: Graph, source: int, delta: float | None = None) -> Vector:
    """Basic mode: SSSP that "just works".

    Picks Δ from the edge-weight distribution when not given (mean weight,
    the usual delta-stepping rule of thumb) and falls back to Bellman-Ford
    for unweighted/boolean adjacencies (where every edge is light anyway).
    """
    a = g.A
    if a.type.is_boolean or a.nvals == 0:
        return sssp_bellman_ford(g, source)
    if delta is None:
        delta = max(float(a.values.mean()), 1e-12)
    return sssp_delta_stepping(g, source, delta)
