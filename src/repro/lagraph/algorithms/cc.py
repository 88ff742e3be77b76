"""Connected components — FastSV with Afforest sampling (Sec. IV-F;
Algorithm 7 of the paper).

Zhang, Azad & Buluç's FastSV maintains a forest as a parent vector ``f``
and repeats five steps until the grandparent vector stops changing
(:func:`_rounds`):

1. *stochastic hooking* — ``mngf = A min.second gf`` pulls the minimum
   grandparent among each node's neighbours (one ``mxv`` on the
   ``min.second`` semiring), then hooks each node's tree root onto it:
   ``f(x) = f(x) min mngf`` where ``x`` is the parents array;
2. *aggressive hooking* — ``f = f min mngf``;
3. *shortcutting* — ``f = f min gf``;
4. *grandparent recomputation* — ``gf = f(f)`` (an ``extract``);
5. *termination* — stop when ``gf`` is unchanged.

The hooking scatter (``f(x) min= mngf`` with duplicate targets) relies on
the duplicate-tolerant min-assign that SS:GrB provides; here it is an
explicit ``np.minimum.at`` scatter, documented as such.

Every ``mxv`` of a full round reads all of ``A``.  LAGraph's production
FastSV avoids most of that work with Afforest sampling (Sutton, Ben-Nun &
Barak, IPDPS 2018; Zhang, Azad & Hu, SIAM PP 2020), and so does
:func:`fastsv`:

* **Sample.**  ``S`` holds the first 4 entries of every row of ``A`` (a
  4-out subgraph; LAGraph's ``FASTSV_SAMPLES``), cut from ``A``'s row
  pointers and cached on the graph (:meth:`Graph.derived_operand`,
  dropped by ``invalidate_properties()``).  The rounds run over ``S``
  first, from ``f = 0..n-1``.  ``S`` need not be symmetric: every hook
  follows an edge of ``A``, so each tree of the result lies inside one
  component, and its root is its minimum id.
* **Key.**  On a graph with a giant component most nodes are already in
  one tree.  ``key = argmax(bincount(f))`` finds it exactly, in O(n).
* **Empty remainder.**  If no node with an edge lies outside the key's
  tree, that tree is the only non-trivial component and ``f`` is the
  answer.  This exact test skips the remainder's ``select`` on graphs
  the sample already solves, such as a road grid.
* **Remainder.**  Otherwise the rounds run again from the sample's ``f``
  over ``R = A⟨f(i) ≠ key ∨ f(j) ≠ key⟩``: every edge that touches a node
  outside the key's tree.  The edges inside that tree are dropped, as it
  is already connected.  ``R`` must be *symmetric*.  A remainder that
  keeps only the rows outside the tree lets its outsiders pull the key
  down, but never lets the key's root see a smaller id across the cut:
  when a component's minimum id lies outside the key's tree, that
  variant labels the tree's side with the key.

The component label of a node is the minimum node id of its component,
so the result does not depend on the sample.
"""

from __future__ import annotations

import numpy as np

from ... import grb
from ...grb import Matrix, Vector, engine
from ...grb import cancel as _cancel
from ...grb._kernels.apply_select import SelectOp
from ..errors import InvalidKind
from ..graph import Graph
from ..kinds import Kind

__all__ = ["connected_components", "fastsv"]

_MIN_SECOND = grb.semiring("min", "second")

#: entries per row in the Afforest sample (LAGraph's ``FASTSV_SAMPLES``)
_SAMPLES = 4

#: keep ``A(i, j)`` when ``i`` or ``j`` is flagged (thunk: the flags)
_TOUCHES = SelectOp("__cc_touches", lambda v, i, j, flag: flag[i] | flag[j])


def _rounds(a: Matrix, f: np.ndarray) -> np.ndarray:
    """FastSV rounds over ``a`` from the star forest ``f``, then pointer
    jumping to roots: the min-id labels of ``a``'s components merged with
    ``f``'s trees."""
    f = f.copy()                           # parent vector
    gf = f[f]                              # grandparents

    while True:
        _cancel.checkpoint()        # deadline/cancel at the round boundary
        # Step 1a: mngf(i) = min over neighbours j of gf(j) — raw kernel
        # output scattered over the grandparent array (isolated nodes keep
        # gf), no intermediate vector or bitmap materialised
        idx, vals = engine.execute(
            engine.plan_mxv(None, a, Vector.from_dense(gf), _MIN_SECOND))
        mngf = gf.copy()
        mngf[idx] = vals
        # Step 1b: stochastic hooking — duplicate-tolerant min scatter
        x = f.copy()
        np.minimum.at(f, x, mngf)
        # Step 2: aggressive hooking
        np.minimum(f, mngf, out=f)
        # Step 3: shortcutting
        np.minimum(f, gf, out=f)
        # Step 4: grandparents
        new_gf = f[f]
        # Step 5: termination
        if np.array_equal(new_gf, gf):
            break
        gf = new_gf

    # full pointer jumping to canonical roots (FastSV leaves height ≤ 2)
    while True:
        _cancel.checkpoint()        # deadline/cancel between jumping rounds
        ff = f[f]
        if np.array_equal(ff, f):
            break
        f = ff
    return f


def _sample(a: Matrix) -> Matrix:
    """The first :data:`_SAMPLES` entries of every row of ``a``, as a
    pattern."""
    indptr = a.indptr
    counts = np.minimum(np.diff(indptr), _SAMPLES)
    sptr = np.concatenate(([0], np.cumsum(counts)))
    # entry k of S sits at its row's start in A plus its rank in the row
    pos = np.arange(sptr[-1]) + np.repeat(indptr[:-1] - sptr[:-1], counts)
    s = Matrix(grb.BOOL, a.nrows, a.ncols)
    s._set_from_csr(sptr, a.indices[pos], np.ones(pos.size, dtype=bool))
    return s


def _components(a: Matrix, s: Matrix) -> Vector:
    """FastSV on the symmetric pattern ``a`` with its sample ``s``."""
    f = _rounds(s, np.arange(a.nrows, dtype=np.int64))
    key = np.bincount(f, minlength=1).argmax()    # minlength: n may be 0
    rest = f != key
    if not (rest & (np.diff(a.indptr) > 0)).any():
        return Vector.from_dense(f)
    return Vector.from_dense(_rounds(a.select(_TOUCHES, rest), f))


def fastsv(g: Graph) -> Vector:
    """Advanced mode: FastSV with Afforest sampling on an undirected graph.

    Requires ``g`` to be undirected, or directed with a cached
    ``A_pattern_is_symmetric == True`` (Sec. II-B strictness).  Returns a
    dense INT64 vector mapping every node to its component's minimum id.
    The sample of ``g.A`` is cached on ``g``.
    """
    if g.kind is not Kind.ADJACENCY_UNDIRECTED:
        if not g.A_pattern_is_symmetric:
            raise InvalidKind(
                "fastsv requires an undirected graph (or a cached symmetric "
                "pattern)")
    return _components(g.A, g.derived_operand(("cc", "sample"),
                                              lambda: _sample(g.A)))


def connected_components(g: Graph) -> Vector:
    """Basic mode: symmetrises a directed graph's pattern, then FastSV.

    For directed inputs this computes *weakly* connected components, as the
    GAP benchmark's CC kernel does.  The symmetrised pattern and its
    sample are cached on ``g``, so a repeated call builds neither.
    """
    if g.kind is Kind.ADJACENCY_UNDIRECTED:
        return fastsv(g)

    def prepare():
        sym = g.A.pattern().ewise_add(g.A.T.pattern(), grb.binary.LOR)
        return sym, _sample(sym)

    return _components(*g.derived_operand(("cc", "basic"), prepare))
