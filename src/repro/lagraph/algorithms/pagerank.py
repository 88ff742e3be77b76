"""PageRank (Sec. IV-C; Algorithm 4 of the paper).

Two variants, exactly as the paper ships them:

* :func:`pagerank_gap` — the GAP-benchmark specification.  It uses the
  ``plus.second`` semiring so edge weights are ignored, pre-scales the
  out-degrees by the damping factor, and — faithfully — does **not** handle
  dangling nodes (their rank mass leaks; Sec. IV-C notes this).
* :func:`pagerank_gx` — the LDBC Graphalytics variant, which redistributes
  the dangling mass uniformly each iteration, included by the paper for
  comparison with ``pr.cc``.

Both iterate until the L1 norm of the rank change drops below ``tol``.

Fused hot loop
--------------
Each iteration is the paper's short sequence of calls, each run when it
is made (deferring them to fuse across calls measured no faster); the
speed comes from the execution engine's fused plans
(:mod:`repro.grb.engine`):

* the ``mxv`` accumulate step hits the ``mxv-fused-dense-accum`` rule —
  the rank vector is *full* after the teleport assign, so the spec's
  union-merge write-back degenerates to one dense add and the structural
  counts product of the SciPy path is dead work (skipped);
* the convergence check is a ``reduce_scalar`` epilogue riding on the
  ``t − r`` merge — the L1 delta is computed from the merge's output pass
  and no difference vector is ever materialised (its seed counterpart was
  written and immediately overwritten);
* the Graphalytics variant fuses its damping ``apply`` onto the
  out-degree-division merge (one output pass instead of two).

With :data:`repro.grb.engine.cost.FUSION_ENABLED` off, every fused plan
decomposes into the seed sequence — the slow arm of the ratio guard in
``tests/grb/engine/test_planner_parity.py`` (fused 1.5-1.6x faster on
kron-small) — and results are bit-identical either way.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ... import grb
from ...grb import Vector, engine
from ...grb import cancel as _cancel
from ..errors import PropertyMissing
from ..graph import Graph

__all__ = ["pagerank_gap", "pagerank_gx", "pagerank"]

_PLUS_SECOND = grb.semiring("plus", "second")
_PR_SCALE = grb.unary.unary_op("__pr_scale", lambda x, damping: x / damping)
_GX_DAMP = grb.unary.unary_op("__gx_damp", lambda x, damping: x * damping)


def _require(g: Graph):
    if g.AT is None:
        raise PropertyMissing("pagerank requires cached G.AT")
    if g.row_degree is None:
        raise PropertyMissing("pagerank requires cached G.row_degree")


def _l1_delta(t: Vector, r: Vector) -> float:
    """``‖t − r‖₁`` as a fused merge + reduce (no difference vector)."""
    return float(engine.execute(
        engine.plan_ewise_mult(None, t, r, grb.binary.MINUS)
              .then_reduce_scalar(grb.monoid.PLUS_MONOID, absolute=True)))


def pagerank_gap(g: Graph, damping: float = 0.85, tol: float = 1e-4,
                 itermax: int = 100) -> Tuple[Vector, int]:
    """Advanced mode: PageRank exactly as specified in the GAP benchmark.

    Returns ``(rank vector, iterations run)``.  Requires cached ``G.AT``
    and ``G.row_degree``.
    """
    _require(g)
    n = g.n
    at = g.AT
    teleport = (1.0 - damping) / n

    # d = rowdegree / damping, entries only where degree > 0 — dangling
    # nodes have no entry, so their mass silently vanishes (GAP behaviour).
    dout = g.row_degree.select("valuegt", 0)
    d = dout.apply(_PR_SCALE, damping)

    r = Vector.from_dense(np.full(n, 1.0 / n))
    t = Vector(grb.FP64, n)
    w = Vector(grb.FP64, n)
    iters = 0
    for _k in range(itermax):
        _cancel.checkpoint()    # deadline/cancel at the iteration boundary
        iters += 1
        t, r = r, t                       # swap: t is now the prior rank
        grb.ewise_mult(w, t, d, grb.binary.DIV)
        grb.assign_scalar(r, teleport)
        # r is full after the assign: the plus-accum write fuses into the
        # multiply's output pass (mxv-fused-dense-accum)
        grb.mxv(r, at, w, _PLUS_SECOND, accum=grb.binary.PLUS)
        delta = _l1_delta(t, r)
        if delta < tol:
            break
    return r, iters


def pagerank_gx(g: Graph, damping: float = 0.85, tol: float = 1e-4,
                itermax: int = 100) -> Tuple[Vector, int]:
    """Advanced mode: the Graphalytics PageRank (dangling-safe).

    Identical iteration, except the rank mass sitting on dangling nodes
    (out-degree 0) is redistributed uniformly — the fix the GAP variant
    omits.  Returns ``(rank vector, iterations run)``.
    """
    _require(g)
    n = g.n
    at = g.AT
    teleport = (1.0 - damping) / n

    dout = g.row_degree.select("valuegt", 0)
    deg_dense = g.row_degree.to_dense()
    dangling = np.flatnonzero(deg_dense == 0)

    r = Vector.from_dense(np.full(n, 1.0 / n))
    t = Vector(grb.FP64, n)
    w = Vector(grb.FP64, n)
    iters = 0
    for _k in range(itermax):
        _cancel.checkpoint()    # deadline/cancel at the iteration boundary
        iters += 1
        t, r = r, t
        # w = damping * t / outdegree, entries only for non-dangling nodes;
        # the damping apply rides the division merge's output pass
        engine.execute(
            engine.plan_ewise_mult(w, t, dout, grb.binary.DIV)
                  .then_apply(_GX_DAMP, damping))
        # store: snapshot (r and t are rebuilt whole every iteration)
        _, t_dense = t.bitmap()
        redistributed = damping * float(t_dense[dangling].sum()) / n
        grb.assign_scalar(r, teleport + redistributed)
        grb.mxv(r, at, w, _PLUS_SECOND, accum=grb.binary.PLUS)
        delta = _l1_delta(t, r)
        if delta < tol:
            break
    return r, iters


def pagerank(g: Graph, variant: str = "gap", **kw) -> Tuple[Vector, int]:
    """Basic mode: caches required properties, then dispatches by variant.

    ``variant`` is ``"gap"`` (Alg. 4) or ``"graphalytics"``.
    """
    g.cache_at()
    g.cache_row_degree()
    if variant == "gap":
        return pagerank_gap(g, **kw)
    if variant in ("graphalytics", "gx"):
        return pagerank_gx(g, **kw)
    raise ValueError(f"unknown PageRank variant {variant!r}")
