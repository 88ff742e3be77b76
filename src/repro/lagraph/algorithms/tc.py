"""Triangle counting (Sec. IV-E; Algorithm 6 of the paper).

The headline method is the GAP one (``sandia_lut``): sort-by-degree
heuristic, split into lower/upper triangles, then one masked multiply on
the ``plus.pair`` semiring::

    C⟨s(L)⟩ = L plus.pair Uᵀ ;  t = [+ᵢⱼ C(i, j)]

``pair`` ignores the values (structure-only counting) and the structural
mask keeps only wedge closures that are actual edges — each triangle is
counted exactly once.

The other LAGraph methods are provided too (they differ in which triangle/
transpose combination feeds the multiply, trading flops for mask
selectivity):

===========  =====================================
burkhardt    ``t = Σ (A² .*∩ A) / 6``
cohen        ``t = Σ (L·U .*∩ A) / 2``
sandia_ll    ``C⟨s(L)⟩ = L plus.pair L``   (saxpy style)
sandia_uu    ``C⟨s(U)⟩ = U plus.pair U``   (saxpy style)
sandia_lut   ``C⟨s(L)⟩ = L plus.pair Uᵀ``  (dot style; GAP / Alg. 6)
sandia_ult   ``C⟨s(U)⟩ = U plus.pair Lᵀ``  (dot style)
===========  =====================================

All methods require an undirected graph (symmetric pattern) with an empty
diagonal; Advanced mode raises, Basic mode fixes the input up.

Every method's masked multiply runs on the mask-driven SpGEMM engine
(:mod:`repro.grb._kernels.masked_matmul`): when the cost model favours it,
``C⟨s(L)⟩ = L plus.pair Uᵀ`` is computed as one sorted-intersection dot
product per stored edge of the mask — the way SS:GrB executes Alg. 6 —
instead of materialising the full wedge product and discarding non-edges.
For the ``transpose_b`` dot-style methods the kernel reads the second
operand's own CSR arrays as ``Bᵀ``, so no transpose is ever built.  The
counts are bit-identical either way; ``tests/grb/test_masked_mxm.py``
carries the ratio guard against the expand rule (23-24x on kron-small,
≥ 10x asserted).

The prepared operands — the symmetrised, diagonal-free, degree-sorted
pattern and its ``L``/``U`` — are derived data in the sense of Sec. II-B:
both :func:`triangle_count` and :func:`triangle_count_basic` cache them on
the caller's graph (:meth:`~repro.lagraph.Graph.derived_operand`, dropped
by ``invalidate_properties()``), including when Basic mode symmetrises a
directed input or strips self-edges.  A repeated count re-reads the same
objects, so the masked-dot analysis memoized on the mask ``L``, keyed on
operand uid and store version, serves its multiply.
"""

from __future__ import annotations


from ... import grb
from ...grb import Matrix, engine, structure
from ..errors import InvalidKind, PropertyMissing
from ..graph import Graph
from ..kinds import Kind
from ..utils.degree import sample_degree, sort_by_degree
from ..utils.matrixops import undirected_pattern

__all__ = ["triangle_count", "triangle_count_method", "METHODS"]

_PLUS_PAIR = grb.semiring("plus", "pair")
_PLUS = grb.monoid.PLUS_MONOID

METHODS = ("burkhardt", "cohen", "sandia_ll", "sandia_uu",
           "sandia_lut", "sandia_ult")


def _masked_pair_count(left: Matrix, right: Matrix, mask: Matrix,
                       transpose_b: bool) -> int:
    # one fused plan: the masked multiply's raw ``T⟨M⟩`` arrays feed the
    # scalar reduction as an epilogue — the intermediate count matrix is
    # never materialised, and its masked write-back is never paid (with
    # ``cost.FUSION_ENABLED`` off this decomposes into the seed's
    # build-then-reduce sequence, bit-identically)
    total = engine.execute(
        engine.plan_mxm(None, left, right, _PLUS_PAIR,
                        mask=structure(mask), transpose_b=transpose_b)
        .then_reduce_scalar(_PLUS))
    return int(total)


def triangle_count_method(a: Matrix, method: str = "sandia_lut") -> int:
    """Count triangles of a symmetric, zero-diagonal pattern matrix.

    ``a`` is used structurally; values are ignored (that is the point of
    ``plus.pair``).  See the module docstring for the method catalogue.
    """
    return _count(_split(a), method)


def _split(a: Matrix) -> tuple:
    """The prepared operands ``(A, L, U)`` of a pattern ``A``."""
    return a, a.tril(-1), a.triu(1)


def _count(operands: tuple, method: str) -> int:
    if method not in METHODS:
        raise ValueError(f"unknown TC method {method!r}; one of {METHODS}")
    a, l, u = operands
    if method == "burkhardt":
        return _masked_pair_count(a, a, a, transpose_b=False) // 6
    if method == "cohen":
        return _masked_pair_count(l, u, a, transpose_b=False) // 2
    if method == "sandia_ll":
        return _masked_pair_count(l, l, l, transpose_b=False)
    if method == "sandia_uu":
        return _masked_pair_count(u, u, u, transpose_b=False)
    if method == "sandia_lut":
        return _masked_pair_count(l, u, l, transpose_b=True)
    # sandia_ult
    return _masked_pair_count(u, l, u, transpose_b=True)


def _presort(g: Graph, presort: str | None) -> str | None:
    """Alg. 6's permutation choice: ``"ascending"``, ``"descending"`` or
    ``None`` (no permutation)."""
    if presort is None:
        return None
    if presort not in ("auto", "ascending", "descending"):
        raise ValueError(f"bad presort {presort!r}")
    if g.row_degree is None:
        raise PropertyMissing(f"presort={presort!r} requires cached row_degree")
    if presort != "auto":
        return presort
    mean, median = sample_degree(g, byrow=True)
    return "ascending" if mean > 4.0 * median else None


def _prepare(g: Graph, direction: str | None) -> tuple:
    """``_split`` of ``A``'s pattern, permuted by degree when asked."""
    a = g.A.pattern()
    if direction is not None:
        perm = sort_by_degree(g, byrow=True,
                              ascending=direction == "ascending")
        a = a.extract(perm, perm)
    return _split(a)


def triangle_count(g: Graph, method: str = "sandia_lut",
                   presort: str | None = "auto") -> int:
    """Alg. 6 — triangle count with the degree-sort heuristic.

    Advanced-mode contract: ``g`` must be undirected (or have a cached
    symmetric pattern) with ``ndiag == 0`` known; ``presort="auto"``
    additionally needs ``row_degree`` cached.  Use
    :func:`triangle_count_basic` via ``presort=None``/basic wrapper when
    you just want an answer.

    ``presort``: ``"auto"`` applies Alg. 6's rule (permute ascending by
    degree when sampled ``mean > 4 × median``), ``"ascending"`` /
    ``"descending"`` force it, ``None`` disables it.

    The prepared operands — the (permuted) pattern and its ``L``/``U`` —
    are cached on ``g`` (:meth:`Graph.derived_operand`), so a repeated
    count re-reads them, and the analysis memoized on ``L`` serves its
    multiply.
    """
    if g.kind is not Kind.ADJACENCY_UNDIRECTED:
        if g.A_pattern_is_symmetric is None:
            raise InvalidKind(
                "triangle_count requires an undirected graph (or cached "
                "symmetric-pattern property)")
        if not g.A_pattern_is_symmetric:
            raise InvalidKind("triangle_count requires a symmetric pattern")
    if g.ndiag == -1:
        raise PropertyMissing("triangle_count requires cached ndiag")
    if g.ndiag != 0:
        raise InvalidKind("triangle_count requires an empty diagonal "
                          "(use Basic mode to strip self-edges)")
    direction = _presort(g, presort)
    return _count(g.derived_operand(("tc", direction),
                                    lambda: _prepare(g, direction)), method)


def triangle_count_basic(g: Graph, method: str = "sandia_lut") -> int:
    """Basic mode: symmetrise if needed, drop self-edges, cache, count.

    The cleaned graph's prepared operands are cached on ``g`` itself, so a
    repeated count on an unchanged ``g`` re-reads them."""

    def prepare():
        h = Graph(undirected_pattern(g, grb.BOOL), Kind.ADJACENCY_UNDIRECTED)
        h.cache_row_degree()
        return _prepare(h, _presort(h, "auto"))

    return _count(g.derived_operand(("tc", "basic"), prepare), method)
