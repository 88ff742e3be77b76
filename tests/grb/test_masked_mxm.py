"""Masked-SpGEMM engine equivalence suite.

The contract under test: whatever path :func:`repro.grb.mxm` picks for a
masked multiply — the dot3 kernel, the mask-restricted SciPy / expand
fallbacks, or the pristine seed pipeline (full product + mask write-back) —
the result is **bit-identical**: same keys, same values, same dtype.
Covered axes: semiring (⊗ ∈ {pair, times, first, second} × ⊕ ∈ {plus, min,
any}), mask kind (structural / valued / complemented), replace, accum,
operand transposition, storage format of every participant, and the
chooser / decision-record machinery itself.

``_seed_path`` disables the whole engine, reproducing the pre-engine
behaviour exactly; ``_force_dot`` zeroes the cost constants so every
eligible multiply runs the dot kernel.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from helpers import MATRIX_LAYOUTS, ab_ratio, in_layout
from repro import grb, obs
from repro.gap import datasets
from repro.grb import engine
from repro.grb._kernels import masked_matmul as mm
from repro.grb.engine import cost
from repro.lagraph import algorithms as alg
from repro.lagraph.algorithms import bc
from repro.lagraph.experimental.ktruss import ktruss
from repro.lagraph.experimental.lcc import local_clustering_coefficient

DOT_SEMIRINGS = ["plus.pair", "plus.times", "plus.first", "plus.second",
                 "min.times", "min.first", "min.pair", "any.pair",
                 "any.times"]


def _force_dot(monkeypatch):
    monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)
    monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)


def _seed_path(monkeypatch):
    """The masked engine stands down: no chooser, no row restriction."""
    monkeypatch.setattr(cost, "MASKED_MIN_NNZ", float("inf"))


def _engine_default(monkeypatch):
    monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)


def assert_same_matrix(got: grb.Matrix, ref: grb.Matrix, ctx=""):
    np.testing.assert_array_equal(got.indptr, ref.indptr, err_msg=ctx)
    np.testing.assert_array_equal(got.indices, ref.indices, err_msg=ctx)
    np.testing.assert_array_equal(got.values, ref.values, err_msg=ctx)
    assert got.values.dtype == ref.values.dtype, ctx


def _rand_matrix(rng, m, n, density=0.3, negatives=False):
    vals = rng.random((m, n)) - (0.5 if negatives else 0.0)
    vals[vals == 0] = 0.25
    dense = (rng.random((m, n)) < density) * vals
    r, c = np.nonzero(dense)
    return grb.Matrix.from_coo(r, c, dense[r, c], m, n)


def _rand_mask_matrix(rng, m, n, density=0.4):
    """A mask object with a mix of truthy and explicit-zero entries."""
    present = rng.random((m, n)) < density
    vals = rng.integers(0, 2, (m, n)).astype(np.float64)  # some explicit 0s
    r, c = np.nonzero(present)
    return grb.Matrix.from_coo(r, c, vals[r, c], m, n)


def _mask_variants(mobj):
    return {
        "structural": grb.structure(mobj),
        "valued": grb.Mask(mobj),
        "complement-structural": grb.complement(grb.structure(mobj)),
        "complement-valued": grb.complement(grb.Mask(mobj)),
    }


class TestDotEquivalence:
    """Forced dot kernel == seed full-product pipeline, bit for bit."""

    @pytest.mark.parametrize("name", DOT_SEMIRINGS)
    @pytest.mark.parametrize("transpose_b", (False, True))
    def test_masked_dot_matches_seed(self, name, transpose_b, monkeypatch):
        rng = np.random.default_rng(hash(name) % (2**32))
        sr = grb.semiring_by_name(name)
        m, k, n = 17, 23, 19
        a = _rand_matrix(rng, m, k, negatives=True)
        b = _rand_matrix(rng, n, k) if transpose_b else _rand_matrix(rng, k, n)
        mobj = _rand_mask_matrix(rng, m, n)
        c0 = _rand_matrix(rng, m, n, density=0.2)
        for mk, mask in _mask_variants(mobj).items():
            for accum in (None, grb.binary.PLUS):
                for replace in (False, True):
                    ctx = f"{name} t_b={transpose_b} {mk} accum={accum} r={replace}"

                    def run():
                        c = c0.dup()
                        grb.mxm(c, a, b, sr, mask=mask, accum=accum,
                                replace=replace, transpose_b=transpose_b)
                        return c

                    _seed_path(monkeypatch)
                    ref = run()
                    monkeypatch.undo()
                    _force_dot(monkeypatch)
                    got = run()
                    monkeypatch.undo()
                    assert_same_matrix(got, ref, ctx)
                    # the default engine (chooser decides) must agree too
                    _engine_default(monkeypatch)
                    auto = run()
                    monkeypatch.undo()
                    assert_same_matrix(auto, ref, ctx + " [auto]")

    def test_dot_cancellation_keeps_structure(self, monkeypatch):
        """plus.times sums that cancel to 0.0 stay explicit entries."""
        _force_dot(monkeypatch)
        a = grb.Matrix.from_coo([0, 0], [0, 1], [1.0, -1.0], 1, 2)
        b = grb.Matrix.from_coo([0, 1], [0, 0], [1.0, 1.0], 2, 1)
        mobj = grb.Matrix.from_coo([0], [0], [1.0], 1, 1)
        c = grb.Matrix(grb.FP64, 1, 1)
        grb.mxm(c, a, b, grb.semiring_by_name("plus.times"),
                mask=grb.structure(mobj))
        assert c.nvals == 1 and c[0, 0] == 0.0

    def test_dot_never_reads_values_for_pair(self, monkeypatch):
        """Structure-only multiplies must not touch operand value arrays."""
        _force_dot(monkeypatch)
        rng = np.random.default_rng(7)
        a = _rand_matrix(rng, 12, 12, density=0.4)
        poisoned = a.dup()
        poisoned.values = np.full(poisoned.nvals, np.nan)
        c = grb.Matrix(grb.INT64, 12, 12)
        grb.mxm(c, poisoned, poisoned, grb.semiring_by_name("plus.pair"),
                mask=grb.structure(poisoned))
        ref = grb.Matrix(grb.INT64, 12, 12)
        _seed_path(monkeypatch)
        grb.mxm(ref, a, a, grb.semiring_by_name("plus.pair"),
                mask=grb.structure(a))
        assert c.isequal(ref)

    @pytest.mark.parametrize("name", ["plus.pair", "plus.first",
                                      "plus.second", "plus.times",
                                      "min.first"])
    @pytest.mark.parametrize("transpose_b", (False, True))
    def test_bitmap_and_bounded_probes_agree(self, name, transpose_b,
                                             monkeypatch):
        """The rank bitmap (membership, plus positions when the probed
        side's values feed the multiply) and the bounded search pick
        identical hits and positions: values agree bit for bit."""
        rng = np.random.default_rng(11)
        sr = grb.semiring_by_name(name)
        a = _rand_matrix(rng, 30, 24, density=0.25, negatives=True)
        b = _rand_matrix(rng, 28, 24, density=0.25, negatives=True)
        if not transpose_b:
            b = b.transpose()
        mobj = _rand_mask_matrix(rng, 30, 28)
        _force_dot(monkeypatch)

        def run():
            # a fresh mask each run, so no run reads the probe memoized on
            # the last one's
            c = grb.Matrix(grb.FP64, 30, 28)
            grb.mxm(c, a, b, sr, mask=grb.structure(mobj.dup()),
                    transpose_b=transpose_b)
            return c

        ran = []
        for resolver in ("_probe_membership", "_probe_bounded"):
            def spy(*args, _fn=getattr(mm, resolver), _name=resolver):
                ran.append((_name, args[4]))  # args[4] is need_pos
                return _fn(*args)
            monkeypatch.setattr(mm, resolver, spy)
        monkeypatch.setattr(mm, "BOUNDED_PROBE_NNZ_RATIO", 0.0)  # no bounded
        c1 = run()
        positioned = name.split(".")[1] != "pair"
        assert {r for r, _ in ran} == {"_probe_membership"}
        assert any(need_pos for _, need_pos in ran) == positioned
        ran.clear()
        monkeypatch.setattr(mm, "DOT_DENSE_GRID_CAP", 0)  # force bounded
        assert_same_matrix(run(), c1, "bounded")
        assert {r for r, _ in ran} == {"_probe_bounded"}


def _csr_of(dense: np.ndarray):
    """CSR structure ``(indptr, indices)`` of a bool grid."""
    indptr = np.concatenate(([0], np.cumsum(dense.sum(axis=1))))
    return indptr.astype(np.int64), np.nonzero(dense)[1].astype(np.int64)


class TestRankBitmap:
    """``_probe_membership`` against ``np.searchsorted`` over the sorted
    ``row · inner + col`` keys of a CSR structure."""

    @staticmethod
    def _check(dense: np.ndarray, seek: np.ndarray):
        indptr, indices = _csr_of(dense)
        inner = np.int64(dense.shape[1])
        keys = np.flatnonzero(dense)  # row-major: row · inner + col
        want_hit = np.isin(seek, keys)
        want_pos = np.searchsorted(keys, seek)[want_hit]
        for need_pos in (False, True):
            hit, pos = mm._probe_membership(indptr, indices, seek.copy(),
                                            inner, need_pos)
            np.testing.assert_array_equal(hit, want_hit)
            if need_pos:
                np.testing.assert_array_equal(pos[hit], want_pos)
            else:
                assert pos is None

    @pytest.mark.parametrize("seed", range(6))
    def test_random_structures(self, seed):
        """Every cell once (cell 0 and the last one included) and random
        repeated lanes, on grids that are rarely a multiple of 8."""
        rng = np.random.default_rng(seed)
        nrows, inner = rng.integers(1, 14, size=2)
        dense = rng.random((nrows, inner)) < rng.uniform(0.05, 0.95)
        grid = dense.size
        seek = np.concatenate((np.arange(grid),
                               rng.integers(0, grid, size=3 * grid)))
        self._check(dense, seek.astype(np.int64))

    @pytest.mark.parametrize("shape", [(3, 7), (1, 13), (1, 1), (5, 1)],
                             ids=["grid-21", "single-row", "one-cell",
                                  "one-column"])
    def test_grid_edges(self, shape):
        """A grid that is not a multiple of 8, with its first and last
        cells stored and probed, and a single row."""
        dense = np.zeros(shape, dtype=bool)
        dense.flat[0] = dense.flat[-1] = True
        dense.flat[dense.size // 2] = True
        self._check(dense, np.arange(dense.size, dtype=np.int64))

    def test_full_bytes(self):
        """Whole bytes set: every lane of a full row lands in a byte with
        all 8 bits set, and positions run across byte boundaries."""
        dense = np.ones((3, 16), dtype=bool)
        dense[1, 3] = False
        self._check(dense, np.arange(dense.size, dtype=np.int64)[::-1])

    def test_empty_operand(self):
        dense = np.zeros((4, 9), dtype=bool)
        self._check(dense, np.arange(dense.size, dtype=np.int64))


class TestCrossFormat:
    @pytest.mark.parametrize("fmt", MATRIX_LAYOUTS)
    def test_all_participants_in_format(self, fmt, monkeypatch):
        rng = np.random.default_rng(3)
        sr = grb.semiring_by_name("plus.pair")
        a = _rand_matrix(rng, 16, 16, density=0.35)
        mobj = _rand_mask_matrix(rng, 16, 16)
        _seed_path(monkeypatch)
        ref = grb.Matrix(grb.INT64, 16, 16)
        grb.mxm(ref, a.dup().set_format("csr"), a.dup().set_format("csr"),
                sr, mask=grb.structure(mobj.dup().set_format("csr")))
        monkeypatch.undo()
        _force_dot(monkeypatch)
        got = grb.Matrix(grb.INT64, 16, 16)
        grb.mxm(got, in_layout(a.dup(), fmt), in_layout(a.dup(), fmt),
                sr, mask=grb.structure(in_layout(mobj.dup(), fmt)))
        assert_same_matrix(got, ref, fmt)

    def test_preplanned_b_feeds_cached_transpose(self, monkeypatch):
        """After ``engine.preplan(b)`` the dot kernel's ``Bᵀ`` feed is the
        store's cached ``_csc`` triple itself: no conversion is re-run."""
        from repro.grb.storage import base
        rng = np.random.default_rng(5)
        a = _rand_matrix(rng, 20, 20, density=0.3)
        b = _rand_matrix(rng, 20, 20, density=0.3)
        mobj = _rand_mask_matrix(rng, 20, 20)
        sr = grb.semiring_by_name("plus.times")
        _seed_path(monkeypatch)
        ref = grb.Matrix(grb.FP64, 20, 20)
        grb.mxm(ref, a, b.dup(), sr, mask=grb.structure(mobj))
        monkeypatch.undo()

        engine.preplan(b)
        cached = b._S()._csc
        fed = []
        probe = mm.masked_dot_probe

        def spy(a_ip, a_ix, bt_ip, bt_ix, *args, **kw):
            fed.append((bt_ip, bt_ix))
            return probe(a_ip, a_ix, bt_ip, bt_ix, *args, **kw)

        def no_rebuild(*args):
            raise AssertionError("transpose rebuilt")

        monkeypatch.setattr(mm, "masked_dot_probe", spy)
        monkeypatch.setattr(base, "csr_to_csc_arrays", no_rebuild)
        _force_dot(monkeypatch)
        got = grb.Matrix(grb.FP64, 20, 20)
        with engine.force_rule("mxm", "mxm-masked-dot"):
            grb.mxm(got, a, b, sr, mask=grb.structure(mobj))
        assert_same_matrix(got, ref)
        assert len(fed) == 1
        assert fed[0][0] is cached[0] and fed[0][1] is cached[1]
        assert b._S()._csc is cached


class TestRestrictedFallbacks:
    """Mask-restricted SciPy / expand fallbacks == unrestricted seed path."""

    @pytest.mark.parametrize("name", ["plus.times", "min.plus", "any.secondi"])
    @pytest.mark.parametrize("complemented", (False, True))
    def test_restriction_matches_seed(self, name, complemented, monkeypatch):
        rng = np.random.default_rng(13)
        sr = grb.semiring_by_name(name)
        a = _rand_matrix(rng, 40, 40, density=0.15, negatives=True)
        b = _rand_matrix(rng, 40, 40, density=0.15)
        # concentrated mask: most rows dead -> the row restriction engages
        rsel = rng.choice(40, 6, replace=False)
        cells = [(int(r), int(c)) for r in rsel for c in range(40)
                 if rng.random() < 0.5]
        mobj = grb.Matrix.from_coo([r for r, _ in cells],
                                   [c for _, c in cells],
                                   np.ones(len(cells)), 40, 40)
        mask = grb.structure(mobj)
        if complemented:
            mask = grb.complement(mask)

        def run():
            c = grb.Matrix(grb.FP64, 40, 40)
            grb.mxm(c, a, b, sr, mask=mask, replace=True)
            return c

        _seed_path(monkeypatch)
        ref = run()
        monkeypatch.undo()
        monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)
        monkeypatch.setattr(cost, "DOT_PROBE_COST", float("inf"))  # isolate restriction
        got = run()
        assert_same_matrix(got, ref, f"{name} c={complemented}")

    def test_complement_full_rows_are_skipped_correctly(self, monkeypatch):
        """Rows whose mask row is full are dead under a complemented mask —
        skipping them must not change the result."""
        rng = np.random.default_rng(17)
        a = _rand_matrix(rng, 12, 12, density=0.4)
        b = _rand_matrix(rng, 12, 12, density=0.4)
        # mask with rows 0..5 completely full
        r, c = np.nonzero(np.vstack([np.ones((6, 12)), np.zeros((6, 12))]))
        mobj = grb.Matrix.from_coo(r, c, np.ones(r.size), 12, 12)
        mask = grb.complement(grb.structure(mobj))
        monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)
        monkeypatch.setattr(cost, "LIVE_ROW_FRACTION", 1.0)
        got = grb.Matrix(grb.FP64, 12, 12)
        grb.mxm(got, a, b, grb.semiring_by_name("plus.times"),
                mask=mask, replace=True)
        _seed_path(monkeypatch)
        ref = grb.Matrix(grb.FP64, 12, 12)
        grb.mxm(ref, a, b, grb.semiring_by_name("plus.times"),
                mask=mask, replace=True)
        assert_same_matrix(got, ref)


class TestAlgorithmParity:
    """End-to-end: TC and BC bit-identical with the engine on vs. off."""

    @pytest.fixture(scope="class")
    def suite_graphs(self):
        return {name: datasets.build(name, "tiny") for name in ("kron", "road")}

    @pytest.mark.parametrize("method", alg.tc.METHODS)
    def test_tc_methods_engine_parity(self, suite_graphs, method, monkeypatch):
        for name, g in suite_graphs.items():
            _engine_default(monkeypatch)
            monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)  # force the kernel
            on = alg.triangle_count_basic(g, method=method)
            monkeypatch.undo()
            _seed_path(monkeypatch)
            off = alg.triangle_count_basic(g, method=method)
            monkeypatch.undo()
            assert on == off, f"{name} {method}"

    def test_bc_batch_engine_parity(self, suite_graphs, monkeypatch):
        for name, g in suite_graphs.items():
            g.cache_at()
            _engine_default(monkeypatch)
            monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)
            on = bc.betweenness_centrality_batch(g, [0, 1, 2, 3])
            monkeypatch.undo()
            _seed_path(monkeypatch)
            off = bc.betweenness_centrality_batch(g, [0, 1, 2, 3])
            monkeypatch.undo()
            np.testing.assert_array_equal(on.indices, off.indices, err_msg=name)
            np.testing.assert_array_equal(on.values, off.values, err_msg=name)

    def test_ktruss_lcc_engine_parity(self, suite_graphs, monkeypatch):
        g = suite_graphs["kron"]
        _engine_default(monkeypatch)
        monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)
        k_on = ktruss(g, 4)
        l_on = local_clustering_coefficient(g)
        monkeypatch.undo()
        _seed_path(monkeypatch)
        k_off = ktruss(g, 4)
        l_off = local_clustering_coefficient(g)
        monkeypatch.undo()
        assert k_on.isequal(k_off)
        np.testing.assert_array_equal(l_on.values, l_off.values)

    def test_lcc_pinned_to_scipy(self, kron_small, monkeypatch):
        """LCC's raw ``T⟨s(A)⟩`` plan pinned to ``mxm-scipy``: the product
        is filtered by the mask before it is ordered, so ``finish`` skips
        its second masked write, and the output is the seed path's."""
        from repro.grb.engine import writeback
        writes = []
        real = writeback.masked_write

        def spy(*args, **kw):
            writes.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(writeback, "masked_write", spy)
        with engine.force_rule("mxm", "mxm-scipy"):
            got = local_clustering_coefficient(kron_small)
            assert not writes
            with monkeypatch.context() as m:
                m.setattr(cost, "MASKED_MIN_NNZ", float("inf"))
                unfiltered = local_clustering_coefficient(kron_small)
            assert len(writes) == 1
        _seed_path(monkeypatch)
        ref = local_clustering_coefficient(kron_small)
        for other in (unfiltered, ref):
            np.testing.assert_array_equal(got.indices, other.indices)
            assert got.values.tobytes() == other.values.tobytes()

    def test_dot_tc_beats_expand(self, kron_small):
        """Ratio guard: ``sandia_lut`` on kron-small as the chooser routes
        it (the dot kernel, one intersection per mask entry) against the
        same multiply pinned to the expand rule, which materialises every
        wedge (measured 23-24x)."""
        def dot():
            return alg.triangle_count(kron_small, method="sandia_lut",
                                      presort=None)

        def expand():
            with engine.force_rule("mxm", "mxm-expand"):
                return dot()

        with obs.tracing() as trace:
            count = dot()
        assert [e["rule"] for e in trace.decisions("mxm")] == ["mxm-masked-dot"]
        assert count == expand()
        assert ab_ratio(dot, expand) >= 10.0


class TestRankBitmapRatioGuard:
    """The rank bitmap against the bounded search that an over-budget
    grid takes (``DOT_DENSE_GRID_CAP = 0``).  Each call masks with a fresh
    copy of its mask, so neither arm finds the probe memoized on it."""

    def test_bc_backward_level(self, kron_small, monkeypatch):
        """Ratio guard: the heaviest backward level of one 4-source BC
        batch on kron-small, ``W⟨s(S[1])⟩ = W plus.first Aᵀ`` (288 516
        probes, most of them into ``W``'s 4 × n grid by position), on the
        dot kernel: positioned lookups in the bitmap's prefix count."""
        a, at, n = kron_small.A, kron_small.AT, kron_small.n
        sr = grb.semiring_by_name("plus.first")
        cand = np.flatnonzero(np.diff(a.indptr) > 0)
        sources = np.random.default_rng(0).choice(cand, 4, replace=False)
        # Alg. 3's forward sweep, as bc.betweenness_centrality_batch runs it
        p = grb.Matrix.from_coo(np.arange(4), sources, np.ones(4), 4, n)
        f = grb.Matrix(grb.FP64, 4, n)
        grb.mxm(f, p, a, sr, mask=grb.complement(grb.structure(p)))
        levels = []
        while f.nvals:
            levels.append(f.pattern())
            grb.update(p, f, accum=grb.binary.PLUS)
            grb.mxm(f, f, a, sr, mask=grb.complement(grb.structure(p)),
                    replace=True)
        w = grb.Matrix(grb.FP64, 4, n)
        grb.ewise_mult(w, grb.Matrix.from_dense(np.ones((4, n))), p,
                       grb.binary.DIV, mask=grb.structure(levels[2]),
                       replace=True)
        _force_dot(monkeypatch)

        def level():
            out = grb.Matrix(grb.FP64, 4, n)
            with engine.force_rule("mxm", "mxm-masked-dot"):
                grb.mxm(out, w, at, sr, mask=grb.structure(levels[1].dup()),
                        replace=True)
            return out

        def bounded():
            with monkeypatch.context() as m:
                m.setattr(mm, "DOT_DENSE_GRID_CAP", 0)
                return level()

        assert_same_matrix(level(), bounded())
        assert ab_ratio(level, bounded) >= 3.5

    def test_tc_kron_small(self, kron_small, monkeypatch):
        """Ratio guard: ``sandia_lut``'s ``C⟨s(L)⟩ = L plus.pair Uᵀ`` on
        kron-small, unpermuted (2.0 M membership lanes into a 2²⁴-cell
        grid), on the dot kernel."""
        a = kron_small.A.pattern()
        low, up = a.tril(-1), a.triu(1)
        sr = grb.semiring_by_name("plus.pair")
        _force_dot(monkeypatch)

        def tc():
            out = grb.Matrix(grb.INT64, a.nrows, a.ncols)
            with engine.force_rule("mxm", "mxm-masked-dot"):
                grb.mxm(out, low, up, sr, mask=grb.structure(low.dup()),
                        transpose_b=True)
            return out

        def bounded():
            with monkeypatch.context() as m:
                m.setattr(mm, "DOT_DENSE_GRID_CAP", 0)
                return tc()

        assert_same_matrix(tc(), bounded())
        assert ab_ratio(tc, bounded) >= 4.0


class TestScipyFilterRatioGuard:
    """``mxm-scipy`` drops the entries its mask discards from the unsorted
    product and orders only the survivors.  The slow arm stands the masked
    engine down (``MASKED_MIN_NNZ = inf``): the whole product is ordered,
    and the write-back discards what the mask drops."""

    def test_bc_forward_level(self, kron_small):
        """Ratio guard: the third forward level of one 4-source BC batch on
        kron-small, ``F⟨¬s(P), r⟩ = F plus.first A`` pinned to
        ``mxm-scipy`` (8 104 frontier entries; the mask keeps 315 of the
        product's 8 051).  Measured 1.30–1.37× over ten reads; half of that
        is below parity, so the floor is 1/1.2."""
        a, n = kron_small.A, kron_small.n
        sr = grb.semiring_by_name("plus.first")
        cand = np.flatnonzero(np.diff(a.indptr) > 0)
        sources = np.random.default_rng(0).choice(cand, 4, replace=False)
        # Alg. 3's forward sweep, as bc.betweenness_centrality_batch runs it
        p = grb.Matrix.from_coo(np.arange(4), sources, np.ones(4), 4, n)
        p.set_format("bitmap")
        f = grb.Matrix(grb.FP64, 4, n)
        grb.mxm(f, p, a, sr, mask=grb.complement(grb.structure(p)))
        for _ in range(3):
            grb.update(p, f, accum=grb.binary.PLUS)
            frontier = f.dup()
            grb.mxm(f, f, a, sr, mask=grb.complement(grb.structure(p)),
                    replace=True)
        mask = grb.complement(grb.structure(p))

        @engine.force_rule("mxm", "mxm-scipy")
        def level():
            out = frontier.dup()
            grb.mxm(out, out, a, sr, mask=mask, replace=True)
            return out

        def unfiltered():
            with mock.patch.object(cost, "MASKED_MIN_NNZ", float("inf")):
                return level()

        got = level()
        assert got.nvals * 10 < frontier.to_scipy().dot(a.to_scipy()).nnz
        assert_same_matrix(got, unfiltered())
        assert ab_ratio(level, unfiltered, reps=10) >= 1 / 1.2


class TestChooserAndTelemetry:
    def test_chooser_constants_flip_decision(self, monkeypatch):
        """One comparison, ``DOT_PROBE_COST · probes ≤ flops``, inclusive
        at the tie; the constant alone moves the boundary."""
        for probe_cost, tie in ((0.5, 2000), (2.0, 500)):
            monkeypatch.setattr(cost, "DOT_PROBE_COST", probe_cost)
            assert cost.choose_masked_method(tie, 1000) == "dot"
            assert cost.choose_masked_method(tie + 1, 1000) == "fallback"
        monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)
        assert cost.choose_masked_method(10**9, 0) == "dot"

    @pytest.mark.parametrize("record, want", [
        # kron-medium BC backward level, 4 sources: the mis-routed level
        ((1_038_316, 642_458), "fallback"),
        # kron-medium BC backward level (mask 2 451) that the dot wins
        ((445_731, 813_585), "dot"),
        # triangle_count_basic on kron-small and kron-medium
        ((1_544_688, 1_740_619), "dot"),
        ((10_255_630, 13_154_536), "dot"),
    ], ids=["bc-mask7122", "bc-mask2451", "tc-kron-small",
            "tc-kron-medium"])
    def test_recorded_benchmark_decisions(self, record, want):
        """Chooser inputs recorded on the benchmark graphs (dot probes,
        exact flops of the unmasked product) and the route each must keep.
        Their flop/probe ratios bound ``DOT_PROBE_COST`` to (0.619, 1.126]:
        above 0.619 the mask-7 122 BC level goes to SciPy, and up to 1.126
        (kron-small TC) every dot claim holds."""
        probes, flops = record
        assert cost.choose_masked_method(probes, flops) == want

    def test_infinite_probe_cost_forces_fallback(self, monkeypatch):
        monkeypatch.setattr(cost, "DOT_PROBE_COST", float("inf"))
        for probes in (0, 1, 10**6):
            assert cost.choose_masked_method(probes, 10**9) == "fallback"

    def test_chooser_record_schema(self, monkeypatch):
        """The masked-mxm chooser's decision record: both exact counts the
        chooser compared, whether or not a profiler is on."""
        _engine_default(monkeypatch)
        rng = np.random.default_rng(19)
        a = _rand_matrix(rng, 30, 30, density=0.3)
        # past mxm-small-expand's gate (more entries than columns), so the
        # product reaches the dot chooser whose record this is
        assert a.nvals > a.ncols

        def run():
            c = grb.Matrix(grb.INT64, 30, 30)
            grb.mxm(c, a, a, grb.semiring_by_name("plus.pair"),
                    mask=grb.structure(a))

        assert not obs.deep_active()
        with obs.tracing() as trace:
            run()
        (e,) = trace.decisions()
        assert e["op"] == "mxm" and e["method"] in ("dot", "fallback")
        assert e["rule"] in ("mxm-masked-dot", "mxm-scipy")
        assert e["semiring"] == "plus.pair"
        assert e["dot_probes"] >= 0 and e["expand_flops"] >= 0
        assert e["mask_nvals"] == a.nvals
        assert e["method"] == cost.choose_masked_method(e["dot_probes"],
                                                        e["expand_flops"])
        assert not obs.deciding()


class TestScipyPathSatellites:
    def test_pattern_operand_cached_per_store_version(self):
        rng = np.random.default_rng(29)
        a = _rand_matrix(rng, 10, 10, density=0.4)
        p1 = a.pattern_operand(np.int64)
        p2 = a.pattern_operand(np.int64)
        assert p1 is p2
        assert a.pattern_operand(np.float64) is not p1
        a[0, 0] = 5.0          # mutate: staged setElement
        p3 = a.pattern_operand(np.int64)
        assert p3 is not p1
        assert p3.nnz == a.nvals

    def test_values_min_cache(self):
        a = grb.Matrix.from_coo([0, 1], [1, 0], [1.0, 2.0], 2, 2)
        assert a.values_min() == 1.0
        a._vals_min = 7.0        # a cached floor is read, not recomputed
        assert a.values_min() == 7.0
        a[0, 1] = 0.5            # staged write: the cache dies with it
        assert a.values_min() == 0.5
        # integer matrices never qualify (wrapping sums can hit 0): NaN
        # makes every threshold test false
        ints = grb.Matrix.from_coo([0], [0], np.array([3], np.int64), 2, 2)
        assert np.isnan(ints.values_min())
        assert grb.Matrix(grb.FP64, 2, 2).values_min() == np.inf

    def test_ge_one_skip_matches_pattern_pass(self, monkeypatch):
        """With float values ≥ 1 the pattern pass is skipped; the result
        must equal the pattern-proofed one (identical structure)."""
        rng = np.random.default_rng(31)
        a = _rand_matrix(rng, 25, 25, density=0.3)
        a.values = a.values + 1.0                    # all in [1, 2)
        b = _rand_matrix(rng, 25, 25, density=0.3)
        b.values = b.values + 1.0
        assert a.values_min() >= 1 and b.values_min() >= 1
        sr = grb.semiring_by_name("plus.times")
        c1 = grb.Matrix(grb.FP64, 25, 25)
        grb.mxm(c1, a, b, sr)
        # force the pattern pass by defeating the value floor
        monkeypatch.setattr(grb.Matrix, "values_min",
                            lambda self: np.nan)
        c2 = grb.Matrix(grb.FP64, 25, 25)
        grb.mxm(c2, a, b, sr)
        assert_same_matrix(c1, c2)

    def test_pattern_pass_follows_the_multiply(self, kron_small,
                                               monkeypatch):
        """Spy: every SciPy product of a 4-source kron-small BC batch is
        one ``@``, the backward ``W plus.first Aᵀ`` levels whose ``W``
        holds values below 1 included (``first`` copies positive values,
        and their sums cannot reach 0); a ``times`` product of such
        values still runs the pattern product beside it."""
        from repro.grb.engine import mxm
        calls = []
        real_mxm, real_ordered = mxm.scipy_mxm, mxm._ordered

        def spy_mxm(a, b, semiring, **kw):
            calls.append([a.values_min(), 0])
            return real_mxm(a, b, semiring, **kw)

        def spy_ordered(*args):
            calls[-1][1] += 1
            return real_ordered(*args)

        monkeypatch.setattr(mxm, "scipy_mxm", spy_mxm)
        monkeypatch.setattr(mxm, "_ordered", spy_ordered)
        cand = np.flatnonzero(np.diff(kron_small.A.indptr) > 0)
        sources = np.random.default_rng(0).choice(cand, 4, replace=False)
        bc.betweenness_centrality_batch(kron_small, sources)
        assert any(lo < 1 for lo, _ in calls)      # a backward level
        assert [n for _, n in calls] == [1] * len(calls)
        calls.clear()
        rng = np.random.default_rng(37)
        a = _rand_matrix(rng, 25, 25, density=0.3)     # values in (0, 1)
        for name, products in (("plus.times", 2), ("plus.first", 1)):
            with engine.force_rule("mxm", "mxm-scipy"):
                grb.mxm(grb.Matrix(grb.FP64, 25, 25), a, a,
                        grb.semiring_by_name(name))
            assert calls.pop()[1] == products, name

    def test_negative_values_still_cancellation_proof(self):
        """1 + (-1) = 0 keeps its entry through mxm (structure ≠ values)."""
        a = grb.Matrix.from_coo([0, 0], [0, 1], [1.0, -1.0], 1, 2)
        b = grb.Matrix.from_coo([0, 1], [0, 0], [1.0, 1.0], 2, 1)
        c = grb.Matrix(grb.FP64, 1, 1)
        grb.mxm(c, a, b, grb.semiring_by_name("plus.times"))
        assert c.nvals == 1 and c[0, 0] == 0.0

    def test_underflow_products_keep_structure(self):
        """Positive-but-tiny values underflow to exact 0.0 in the product;
        the entry must survive (this is why the pattern-pass skip demands
        values ≥ 1, not mere positivity)."""
        a = grb.Matrix.from_coo([0, 0], [0, 1], [1e-200, 1e-200], 1, 2)
        b = grb.Matrix.from_coo([0, 1], [0, 0], [1e-200, 1e-200], 2, 1)
        c = grb.Matrix(grb.FP64, 1, 1)
        grb.mxm(c, a, b, grb.semiring_by_name("plus.times"))
        assert c.nvals == 1 and c[0, 0] == 0.0
