"""The masked-dot analysis memo: hits, invalidation, repeat hits of the
graph algorithms, and that it never serves stale work.

``mxm-masked-dot`` keeps its analysis of a product — mask coordinates,
length pairs, exact probe/flop counts and the kernel's probe stage — on
the product's mask (``Matrix._dot``), keyed on the operands' uid and store
version, ``transpose_b``, the mask's structural bit and which operand
values the multiply reads.  A write to the mask drops the memo; a write to
an operand moves its version, so the key stops matching.  Algorithms whose
working matrices are derived from a graph keep them on the
:class:`~repro.lagraph.Graph` (``Graph.derived_operand``), which is what
lets a repeated call hit.  :mod:`repro.grb.engine.plancache` counts the
outcomes.
"""

from __future__ import annotations

import gc
import threading

import numpy as np
import pytest

from helpers import ab_ratio, random_graph_np
from repro import grb, obs
from repro import lagraph as lg
from repro.grb import engine
from repro.grb.engine import cost, plancache
from repro.lagraph.algorithms import tc
from repro.lagraph.experimental.ktruss import ktruss
from repro.lagraph.experimental.lcc import local_clustering_coefficient as lcc

SR = grb.semiring_by_name("plus.pair")


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    # floor the stand-down threshold so small test matrices engage the
    # masked engine (and therefore the analysis the memo holds)
    monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)
    plancache.clear()
    yield
    plancache.clear()


def _graphish(rng, n=12, density=0.4):
    dense = (rng.random((n, n)) < density) * rng.integers(1, 5, (n, n))
    r, c = np.nonzero(dense)
    return grb.Matrix.from_coo(r, c, dense[r, c].astype(np.float64), n, n)


def _masked_mxm(a, b, mask):
    c = grb.Matrix(grb.INT64, a.nrows, b.ncols)
    grb.mxm(c, a, b, SR, mask=grb.structure(mask))
    return c


class TestHitsAndInvalidation:
    def test_repeat_hits(self):
        rng = np.random.default_rng(0)
        a = _graphish(rng)
        c1 = _masked_mxm(a, a, a)
        st0 = plancache.stats()
        assert st0.misses >= 1 and st0.hits == 0
        c2 = _masked_mxm(a, a, a)
        st1 = plancache.stats()
        assert st1.hits == st0.hits + 1
        assert c1.isequal(c2)

    def test_store_version_bump_invalidates(self):
        """Mutating an operand bumps its store version; the next identical
        product misses (never a stale hit), and the recomputed result
        reflects the mutation."""
        rng = np.random.default_rng(1)
        a = _graphish(rng)
        b = a.dup()
        with obs.tracing() as trace:
            _masked_mxm(a, b, a)
            c_before = _masked_mxm(a, b, a)
            assert plancache.stats().hits == 1

            v0 = b.store_version
            b[0, 0] = 7.0                  # mutate: version must bump
            assert b.store_version > v0

            c_after = _masked_mxm(a, b, a)
        st = plancache.stats()
        assert (st.hits, st.misses) == (1, 2)    # no stale service
        assert [e["plan_cache"] for e in trace.decisions("mxm")] == [
            "miss", "hit", "miss"]
        # content actually changed (pattern gained the (0,0) entry), so a
        # stale probe would have produced the old structure
        assert not c_after.isequal(c_before)
        assert c_after.isequal(_masked_mxm(a.dup(), b.dup(), a.dup()))

    def test_memo_dies_with_its_mask(self):
        """The memo is an attribute of its mask: the stats count it while
        the mask lives and stop when it is collected."""
        rng = np.random.default_rng(3)
        a = _graphish(rng)
        m = a.dup()
        gc.collect()
        base = plancache.stats()
        _masked_mxm(a, a, m)
        st = plancache.stats()
        assert st.entries == base.entries + 1
        assert st.feed_bytes - base.feed_bytes == m._dot.nbytes() > 0
        del m
        gc.collect()
        st = plancache.stats()
        assert (st.entries, st.feed_bytes) == (base.entries, base.feed_bytes)

    def test_feed_bytes_count_both_probe_shapes(self, monkeypatch):
        """The memo keeps a ``pair`` probe as one hit count per mask entry
        and a valued probe as its ``(t, apos, bpos)`` hits: the stats read
        both, and count the probe's bytes with the rest of the memo."""
        monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)
        rng = np.random.default_rng(4)
        a = _graphish(rng)
        gc.collect()
        for name in ("plus.pair", "plus.first"):
            m = a.dup()
            base = plancache.stats()
            c = grb.Matrix(grb.FP64, a.nrows, a.ncols)
            with engine.force_rule("mxm", "mxm-masked-dot"):
                grb.mxm(c, a, a, grb.semiring_by_name(name),
                        mask=grb.structure(m))
            probe = m._dot.probe
            if name == "plus.pair":
                assert isinstance(probe, np.ndarray)
                assert probe.size == m.nvals and probe.dtype == np.int64
                held = probe.nbytes
            else:
                t, apos, bpos = probe
                assert bpos is None and t.size == apos.size > 0
                held = t.nbytes + apos.nbytes
            st = plancache.stats()
            assert st.entries == base.entries + 1
            assert st.feed_bytes - base.feed_bytes == m._dot.nbytes()
            m._dot.probe = None
            assert m._dot.nbytes() == st.feed_bytes - base.feed_bytes - held
            del m
            gc.collect()

    def test_vector_store_version_bumps(self):
        v = grb.Vector.from_coo([0, 2], [1.0, 2.0], 16)  # sparse: 1/8 dense
        seen = {v.store_version}
        v[1] = 3.0
        seen.add(v.store_version)
        v.remove_element(0)
        seen.add(v.store_version)
        v.set_format("bitmap")
        seen.add(v.store_version)
        v.clear()
        seen.add(v.store_version)
        assert len(seen) == 5              # strictly monotone bumps

    def test_unanalysed_products_never_record(self):
        """Only the masked-dot analysis is memoized: a complemented mask
        or an unmasked product neither counts nor leaves a memo."""
        rng = np.random.default_rng(2)
        a = _graphish(rng)
        with obs.tracing() as trace:
            for mask in (grb.complement(grb.structure(a)), None):
                c = grb.Matrix(grb.INT64, a.nrows, a.ncols)
                grb.mxm(c, a, a, SR, mask=mask)
        st = plancache.stats()
        assert st.hits == st.misses == 0
        assert a._dot is None
        assert all("plan_cache" not in e for e in trace.decisions())


def _graph(shape: str, n: int = 48, p: float = 0.2):
    """A small graph with every property cached: ``undirected``,
    ``directed``, or ``self_loop`` (undirected plus diagonal entries)."""
    g = random_graph_np(np.random.default_rng(11), n=n, p=p,
                        directed=shape == "directed")
    if shape == "self_loop":
        for i in range(0, n, 5):
            g.A[i, i] = True
    g.cache_all()
    return g


#: entry point → (graph shape, call).  Each of these hits on a repeated
#: call on an unchanged graph: the operands are cached on the graph, so
#: the mask that holds the memo is the same object both times.
REPEATS = {
    "tc-basic-undirected": ("undirected", tc.triangle_count_basic),
    "tc-basic-directed": ("directed", tc.triangle_count_basic),
    "tc-basic-self-loop": ("self_loop", tc.triangle_count_basic),
    **{f"tc-presort-{p}": ("undirected",
                           lambda g, p=p: tc.triangle_count(g, presort=p))
       for p in ("auto", None, "ascending", "descending")},
    "lcc": ("undirected", lambda g: lcc(g).to_dense()),
    "ktruss": ("undirected", lambda g: ktruss(g, 4)),
}


class TestRepeatHits:
    @pytest.mark.parametrize("name", sorted(REPEATS))
    def test_repeated_call_hits(self, name):
        """The second call on an unchanged graph re-reads the operands the
        first cached on it: TC and LCC make one product and it hits;
        k-truss's first peel hits (the later peels multiply the previous
        peel's fresh result)."""
        shape, call = REPEATS[name]
        g = _graph(shape)
        first = call(g)
        st0 = plancache.stats()
        second = call(g)
        st1 = plancache.stats()
        if isinstance(first, grb.Matrix):
            assert first.isequal(second)
        else:
            np.testing.assert_array_equal(first, second)
        assert st1.hits - st0.hits >= 1
        if name != "ktruss":
            assert (st1.hits - st0.hits, st1.misses - st0.misses) == (1, 0)

    def test_warm_query_beats_cold(self, kron_small):
        """Ratio guard: a repeated ``triangle_count_basic`` on kron-small
        — its prepared operands are cached on the graph, so the repeat
        re-reads them and finds its analysis memoized on the mask —
        against the same call right after ``invalidate_properties()``,
        which re-derives the operands and pays the chooser's counting and
        the probe resolution again (measured 77-86x).  LCC rides along
        for the identity check only."""
        warm_g, cold_g = (lg.Graph(kron_small.A.dup(), kron_small.kind)
                          for _ in range(2))

        def warm():
            return tc.triangle_count_basic(warm_g)

        def cold():
            cold_g.invalidate_properties()
            return tc.triangle_count_basic(cold_g)

        assert warm() == warm() == cold()
        assert plancache.stats().hits > 0
        lcc(warm_g)                        # leaves the analysis memoized
        warm_lcc = lcc(warm_g)
        cold_g.invalidate_properties()
        np.testing.assert_array_equal(warm_lcc.values, lcc(cold_g).values)
        assert ab_ratio(warm, cold, reps=3) >= 1.4


def _identical(got, want):
    """Bit identity: every CSR array equal, dtype included."""
    for attr in ("indptr", "indices", "values"):
        x, y = getattr(got, attr), getattr(want, attr)
        assert x.dtype == y.dtype, attr
        np.testing.assert_array_equal(x, y, err_msg=attr)


def _product(a, b, mask, sr, *, structural=True, transpose_b=False,
             out=None, replace=False):
    c = grb.Matrix(grb.FP64, a.nrows, b.ncols) if out is None else out
    m = grb.structure(mask) if structural else grb.Mask(mask)
    grb.mxm(c, a, b, grb.semiring_by_name(sr), mask=m,
            transpose_b=transpose_b, replace=replace)
    return c


def _on_copies(a, b, mask, sr, **kw):
    """The same product on copies: new uids, so nothing is memoized."""
    return _product(a.dup(), b.dup(), mask.dup(), sr, **kw)


def _operands(seed, n=14):
    """``A``, ``B`` (not symmetric, so ``transpose_b`` matters) and a
    mask over part of the product's pattern."""
    rng = np.random.default_rng(seed)
    a, b = _graphish(rng, n), _graphish(rng, n)
    full = grb.Matrix(grb.FP64, n, n)
    grb.mxm(full, a, b, grb.semiring_by_name("plus.times"))
    keep = rng.random(full.nvals) < 0.7
    rows = np.repeat(np.arange(n), np.diff(full.indptr))
    m = grb.Matrix.from_coo(rows[keep], full.indices[keep],
                            np.ones(int(keep.sum())), n, n)
    return a, b, m


def _absent_hit(x, partner, mask):
    """A position ``(i, k)`` not stored in ``x`` whose insertion adds a
    product term under ``mask`` (``partner`` holds ``(k, j)``)."""
    stored = set(zip(*x.to_coo()[:2]))
    coo_p, coo_m = partner.to_coo(), mask.to_coo()
    for i, j in zip(coo_m[0], coo_m[1]):
        for k in coo_p[0][coo_p[1] == j]:
            if (i, k) not in stored:
                return int(i), int(k)
    raise AssertionError("no position adds a term")


PAIR_AND_FIRST = ("plus.pair", "plus.first")


class TestMemoNeverStale:
    """Every repeated product equals the same product on fresh operands
    (nothing memoized), after each change that must retire a memo or
    miss it — and each change is checked to move the result, so a memo
    that survived it would show."""

    @pytest.fixture(autouse=True)
    def _dot(self, monkeypatch):
        monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)   # always the dot

    def _warm(self, *args, **kw):
        """Run a product twice; the repeat must be served by the memo."""
        _product(*args, **kw)
        hits = plancache.stats().hits
        out = _product(*args, **kw)
        assert plancache.stats().hits == hits + 1
        return out

    @pytest.mark.parametrize("sr", PAIR_AND_FIRST)
    @pytest.mark.parametrize("written", ("A", "B", "mask", "mask-bitmap"))
    def test_in_place_write(self, sr, written):
        """One new entry that adds a product term: set into ``A``, ``B``
        or the mask, or merged into a bitmap-resident mask in place."""
        a, b, m = _operands(5)
        if written == "mask-bitmap":
            m.set_format("bitmap")
        before = self._warm(a, b, m, sr)
        if written == "A":
            a[_absent_hit(a, b, m)] = 3.0
        elif written == "B":
            j, k = _absent_hit(b.T, a.T, m.T)
            b[k, j] = 3.0
        else:
            full = grb.Matrix(grb.FP64, 14, 14)
            grb.mxm(full, a, b, grb.semiring_by_name(sr))
            i, j = next(p for p in zip(*full.to_coo()[:2])
                        if m.get(*p) is None)
            if written == "mask":
                m[i, j] = 1.0
            else:
                with obs.tracing() as trace:
                    grb.update(m, grb.Matrix.from_coo([i], [j], [1.0], 14, 14),
                               accum=grb.binary.PLUS)
                assert [w["args"]["delta"] for w in trace.find("write")] \
                    == [True]
        got = _product(a, b, m, sr)
        _identical(got, _on_copies(a, b, m, sr))
        assert not got.isequal(before)

    @pytest.mark.parametrize("sr", PAIR_AND_FIRST)
    def test_output_aliased_as_mask(self, sr):
        """``C⟨C, r⟩ = A ⊕.⊗ B``: the write-back changes the mask the
        analysis was read from.  Row 0 of ``A`` holds explicit zeros, so
        under ``plus.first`` row 0 of the output is zero and leaves the
        valued mask after the first call."""
        a, b, m = _operands(6)
        assert np.diff(a.indptr)[0] and np.diff(m.indptr)[0]
        vals = a.values.copy()
        vals[:a.indptr[1]] = 0.0
        a.values = vals
        c, ref = m.dup(), m.dup()
        for _ in range(3):
            _product(a, b, c, sr, structural=False, out=c, replace=True)
            _product(a.dup(), b.dup(), ref, sr, structural=False, out=ref,
                     replace=True)
            _identical(c, ref)
        if sr == "plus.first":
            assert np.diff(c.indptr)[0] == 0

    @pytest.mark.parametrize("sr", PAIR_AND_FIRST)
    def test_structural_and_valued_mask_on_one_object(self, sr):
        a, b, m = _operands(7)
        m.values = np.where(np.arange(m.nvals) % 3 == 0, 0.0, 1.0)
        results = {}
        # valued first: a structural call served the valued analysis would
        # miss the explicit-zero positions, which no write-back restores
        for structural in (False, True, False, True):
            got = _product(a, b, m, sr, structural=structural)
            _identical(got, _on_copies(a, b, m, sr, structural=structural))
            results[structural] = got
        assert results[True].nvals > results[False].nvals

    @pytest.mark.parametrize("sr", PAIR_AND_FIRST)
    def test_transpose_b_flip(self, sr):
        a, b, m = _operands(8)
        results = {}
        for flip in (False, True, False, True):
            got = _product(a, b, m, sr, transpose_b=flip)
            _identical(got, _on_copies(a, b, m, sr, transpose_b=flip))
            results[flip] = got
        assert not results[False].isequal(results[True])

    def test_multiplies_that_read_other_values(self):
        """``plus.pair`` reads no values and resolves no entry positions;
        ``plus.first`` needs ``A``'s, ``plus.second`` ``B``'s,
        ``plus.times`` both — each on the same operands and mask."""
        a, b, m = _operands(9)
        steps = {"plus.pair": "miss", "plus.pair ": "hit",
                 "plus.first": "miss", "plus.first ": "hit",
                 "plus.pair  ": "miss", "plus.second": "miss",
                 "plus.second ": "hit", "plus.times": "miss",
                 "plus.first  ": "miss"}
        with obs.tracing() as trace:
            for sr in steps:
                sr = sr.strip()
                _identical(_product(a, b, m, sr), _on_copies(a, b, m, sr))
        records = trace.decisions("mxm")
        assert {e["rule"] for e in records} == {"mxm-masked-dot"}
        # each step is one product, then its fresh twin (always a miss)
        assert [e["plan_cache"] for e in records[::2]] == list(steps.values())
        assert {e["plan_cache"] for e in records[1::2]} == {"miss"}

    @pytest.mark.parametrize("sr", PAIR_AND_FIRST)
    def test_same_version_other_operand(self, sr):
        """A different object at the same store version, in either
        operand slot, under the same mask."""
        a, b, m = _operands(10)
        other = _operands(11)
        self._warm(a, b, m, sr)
        for a2, b2 in ((other[0], b), (a, other[1])):
            assert (a2.store_version, b2.store_version) == (
                a.store_version, b.store_version)
            got = _product(a2, b2, m, sr)
            _identical(got, _on_copies(a2, b2, m, sr))
            assert not got.isequal(_product(a, b, m, sr))

    def test_threads_make_the_first_call_together(self):
        """Eight threads make the first triangle count on one graph: each
        fills or reads the memo on the graph's cached mask."""
        g = random_graph_np(np.random.default_rng(12), n=120, p=0.15,
                            directed=False)
        want = tc.triangle_count_basic(
            lg.Graph(g.A.dup(), lg.ADJACENCY_UNDIRECTED))
        start = threading.Barrier(8)
        got = [None] * 8
        errors = []

        def count(k):
            try:
                start.wait()
                got[k] = tc.triangle_count_basic(g)
            except BaseException as exc:    # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=count, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors and got == [want] * 8
        st = plancache.stats()
        assert st.hits + st.misses >= 8    # every thread ran the rule
        assert tc.triangle_count_basic(g) == want


class TestSafety:
    def test_forced_dot_rule_reads_the_memo(self, monkeypatch):
        """A pinned kind still runs its rule's ``applies``: a pinned dot
        reads the memo, a pinned fallback never runs the analysis."""
        monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)
        rng = np.random.default_rng(6)
        a = _graphish(rng)
        _masked_mxm(a, a, a)               # memoize the analysis
        with obs.tracing() as trace:
            with engine.force_rule("mxm", "mxm-masked-dot"):
                _masked_mxm(a, a, a)
            with engine.force_rule("mxm", "mxm-expand"):
                _masked_mxm(a, a, a)
        dot, expand = trace.decisions()
        assert (dot["rule"], dot["plan_cache"]) == ("mxm-masked-dot", "hit")
        assert expand["rule"] == "mxm-expand"
        assert "plan_cache" not in expand

    def test_cost_constant_change_reroutes_a_hit(self, monkeypatch):
        """The memo holds counts, not a decision: monkeypatching a chooser
        constant re-routes the very next call, memo hit or not — the
        forcing idiom of the parity suite."""
        rng = np.random.default_rng(7)
        a = _graphish(rng)
        # more entries than columns: past mxm-small-expand's gate, so the
        # dot chooser's constants are what routes this product
        assert a.nvals > a.ncols
        with obs.tracing() as trace:
            monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)
            _masked_mxm(a, a, a)
            monkeypatch.setattr(cost, "DOT_PROBE_COST", float("inf"))
            _masked_mxm(a, a, a)
        records = trace.decisions()
        assert [e["rule"] for e in records] == ["mxm-masked-dot", "mxm-scipy"]
        assert [e["plan_cache"] for e in records] == ["miss", "hit"]

    def test_values_change_reaches_results(self):
        """The probe stage is structure-derived; a value-only mutation
        still bumps the version, so plus.times results track the new
        values."""
        rng = np.random.default_rng(8)
        a = _graphish(rng)
        sr = grb.semiring_by_name("plus.times")

        def prod():
            c = grb.Matrix(grb.FP64, a.nrows, a.ncols)
            grb.mxm(c, a, a, sr, mask=grb.structure(a))
            return c

        c1 = prod()
        prod()                             # hit
        i = int(np.flatnonzero(np.diff(a.indptr))[0])
        j = int(a.indices[a.indptr[i]])
        a[i, j] = 123.0
        c3 = prod()
        assert not np.array_equal(c3.values, c1.values)
