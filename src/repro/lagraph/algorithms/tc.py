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
"""

from __future__ import annotations


from ... import grb
from ...grb import Matrix, engine, structure
from ..errors import InvalidKind, PropertyMissing
from ..graph import Graph
from ..kinds import Kind
from ..utils.degree import sample_degree, sort_by_degree

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
    if method not in METHODS:
        raise ValueError(f"unknown TC method {method!r}; one of {METHODS}")
    if method == "burkhardt":
        return _masked_pair_count(a, a, a, transpose_b=False) // 6
    if method == "cohen":
        l = a.tril(-1)
        u = a.triu(1)
        return _masked_pair_count(l, u, a, transpose_b=False) // 2
    l = a.tril(-1)
    u = a.triu(1)
    if method == "sandia_ll":
        return _masked_pair_count(l, l, l, transpose_b=False)
    if method == "sandia_uu":
        return _masked_pair_count(u, u, u, transpose_b=False)
    if method == "sandia_lut":
        return _masked_pair_count(l, u, l, transpose_b=True)
    # sandia_ult
    return _masked_pair_count(u, l, u, transpose_b=True)


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

    a = g.A.pattern()
    if presort == "auto":
        if g.row_degree is None:
            raise PropertyMissing("presort='auto' requires cached row_degree")
        mean, median = sample_degree(g, byrow=True)
        do_sort = mean > 4.0 * median
        direction = "ascending"
    elif presort in ("ascending", "descending"):
        if g.row_degree is None:
            raise PropertyMissing("explicit presort requires cached row_degree")
        do_sort = True
        direction = presort
    elif presort is None:
        do_sort = False
        direction = "ascending"
    else:
        raise ValueError(f"bad presort {presort!r}")

    if do_sort:
        perm = sort_by_degree(g, byrow=True, ascending=direction == "ascending")
        a = a.extract(perm, perm)
    return triangle_count_method(a, method)


def triangle_count_basic(g: Graph, method: str = "sandia_lut") -> int:
    """Basic mode: symmetrise if needed, drop self-edges, cache, count."""
    a = g.A
    if g.kind is not Kind.ADJACENCY_UNDIRECTED:
        # symmetrise the pattern: A ∨ Aᵀ
        a = a.pattern().ewise_add(a.T.pattern(), grb.binary.LOR)
    if a.ndiag() != 0:
        a = a.offdiag()
    h = Graph(a, Kind.ADJACENCY_UNDIRECTED)
    h.cache_row_degree()
    h.cache_ndiag()
    return triangle_count(h, method=method, presort="auto")
