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

import numpy as np
import pytest

from helpers import ab_ratio
from repro import grb, obs
from repro.gap import datasets
from repro.grb import engine
from repro.grb._kernels import masked_matmul as mm
from repro.grb.engine import cost
from repro.lagraph import algorithms as alg
from repro.lagraph.algorithms import bc
from repro.lagraph.experimental.ktruss import ktruss
from repro.lagraph.experimental.lcc import local_clustering_coefficient

MATRIX_FORMATS = ("csr", "csc", "bitmap", "hypersparse")

DOT_SEMIRINGS = ["plus.pair", "plus.times", "plus.first", "plus.second",
                 "min.times", "min.first", "min.pair", "any.pair",
                 "any.times"]


def _force_dot(monkeypatch):
    monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)
    monkeypatch.setattr(cost, "DOT_WRITE_COST", 0.0)
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
    def test_dense_and_searchsorted_probes_agree(self, name, transpose_b,
                                                 monkeypatch):
        """The dense map (flags, or slots when the probed side's values feed
        the multiply), the global search and the bounded search pick
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
            c = grb.Matrix(grb.FP64, 30, 28)
            grb.mxm(c, a, b, sr, mask=grb.structure(mobj),
                    transpose_b=transpose_b)
            return c

        maps = []
        dense_map_dtype = mm._dense_map_dtype
        monkeypatch.setattr(
            mm, "_dense_map_dtype",
            lambda *args: maps.append(dense_map_dtype(*args)) or maps[-1])
        monkeypatch.setattr(mm, "BOUNDED_PROBE_NNZ_RATIO", 0.0)  # no bounded
        c1 = run()
        positioned = name.split(".")[1] != "pair"
        assert maps and all(m is not None for m in maps)
        assert (np.dtype(np.int32) in maps) == positioned
        monkeypatch.setattr(mm, "DOT_DENSE_GRID_CAP", 0)  # force global
        assert_same_matrix(run(), c1, "global")
        monkeypatch.setattr(mm, "BOUNDED_PROBE_NNZ_RATIO", 1e18)  # force bounded
        assert_same_matrix(run(), c1, "bounded")


class TestCrossFormat:
    @pytest.mark.parametrize("fmt", MATRIX_FORMATS)
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
        grb.mxm(got, a.dup().set_format(fmt), a.dup().set_format(fmt),
                sr, mask=grb.structure(mobj.dup().set_format(fmt)))
        assert_same_matrix(got, ref, fmt)

    def test_csc_pinned_b_feeds_natively(self, monkeypatch):
        """A CSC-pinned B operand reaches the dot kernel without ever
        deriving its CSR canonical view (transpose_csr is free)."""
        rng = np.random.default_rng(5)
        a = _rand_matrix(rng, 20, 20, density=0.3)
        b = _rand_matrix(rng, 20, 20, density=0.3).set_format("csc")
        mobj = _rand_mask_matrix(rng, 20, 20)
        _force_dot(monkeypatch)
        got = grb.Matrix(grb.FP64, 20, 20)
        grb.mxm(got, a, b, grb.semiring_by_name("plus.times"),
                mask=grb.structure(mobj))
        _seed_path(monkeypatch)
        ref = grb.Matrix(grb.FP64, 20, 20)
        grb.mxm(ref, a, b.dup().set_format("csr"),
                grb.semiring_by_name("plus.times"), mask=grb.structure(mobj))
        assert_same_matrix(got, ref)


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
            monkeypatch.setattr(cost, "DOT_WRITE_COST", 0.0)
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
            monkeypatch.setattr(cost, "DOT_WRITE_COST", 0.0)
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
        monkeypatch.setattr(cost, "DOT_WRITE_COST", 0.0)
        k_on = ktruss(g, 4)
        l_on = local_clustering_coefficient(g)
        monkeypatch.undo()
        _seed_path(monkeypatch)
        k_off = ktruss(g, 4)
        l_off = local_clustering_coefficient(g)
        monkeypatch.undo()
        assert k_on.isequal(k_off)
        np.testing.assert_array_equal(l_on.values, l_off.values)

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


class TestSlotMapRatioGuard:
    """Positioned probes: the dense slot map against the global
    ``searchsorted`` that an over-budget grid takes."""

    def test_bc_backward_level(self, kron_small, monkeypatch):
        """Ratio guard: the heaviest backward level of one 4-source BC
        batch on kron-small, ``W⟨s(S[1])⟩ = W plus.first Aᵀ`` (288 516
        probes, most of them into ``W``'s 4 × n grid by position), on the
        dot kernel; the slow arm sets ``DOT_DENSE_GRID_CAP = 0``.  Pinned
        to the rule, so the plan cache never replays the probe."""
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
                grb.mxm(out, w, at, sr, mask=grb.structure(levels[1]),
                        replace=True)
            return out

        def searchsorted():
            with monkeypatch.context() as m:
                m.setattr(mm, "DOT_DENSE_GRID_CAP", 0)
                return level()

        assert_same_matrix(level(), searchsorted())
        assert ab_ratio(level, searchsorted) >= 1.2


class TestChooserAndTelemetry:
    def test_chooser_constants_flip_decision(self):
        assert cost.choose_masked_method(100, 1000,
                                         scipy_path=True) == "dot"
        assert cost.choose_masked_method(10_000, 1000,
                                         scipy_path=True) == "fallback"
        # the expand kernel is pricier per flop than SciPy, so the same
        # probe count flips back to dot off the compiled path
        probes = 1000 / cost.DOT_PROBE_COST
        assert cost.choose_masked_method(probes * 2, 1000,
                                         scipy_path=False) == "dot"

    def test_chooser_write_cost_term(self):
        """A huge mask (one write per entry) can out-price a cheap product:
        the output-write term is what tips it (satellite of PR 4)."""
        assert cost.choose_masked_method(
            10, 100, scipy_path=True, mask_nvals=10_000,
            est_out_nnz=10) == "fallback"
        # same probe work, tiny mask: dot wins again
        assert cost.choose_masked_method(
            10, 100, scipy_path=True, mask_nvals=10,
            est_out_nnz=10) == "dot"

    # chooser inputs recorded on the benchmark graphs (mask_nvals, dot
    # probes, estimated flops, estimated product entries) and the route
    # each must keep: a refit of the per-unit constants that reopens the
    # BC mis-route or sends TC to SciPy fails here
    @pytest.mark.parametrize("record, want", [
        # kron-medium BC backward level, 4 sources: the mis-routed level
        ((7_122, 1_038_316, 683_289, 65_536), "fallback"),
        # kron-medium BC backward level that the dot wins
        ((2_451, 445_731, 868_924, 65_536), "dot"),
        # triangle_count_basic on kron-small and kron-medium
        ((48_820, 1_544_688, 1_817_547.7, 1_817_547.7), "dot"),
        ((211_799, 10_255_630, 12_472_607.8, 12_472_607.8), "dot"),
    ], ids=["bc-mask7122", "bc-mask2451", "tc-kron-small",
            "tc-kron-medium"])
    def test_recorded_benchmark_decisions(self, record, want):
        mask_nvals, probes, flops, out_nnz = record
        assert cost.choose_masked_method(
            probes, flops, scipy_path=True, mask_nvals=mask_nvals,
            est_out_nnz=out_nnz) == want

    def test_infinite_probe_cost_forces_fallback(self, monkeypatch):
        monkeypatch.setattr(cost, "DOT_PROBE_COST", float("inf"))
        for probes in (0, 1, 10**6):
            assert cost.choose_masked_method(probes, 10**9,
                                             scipy_path=True) == "fallback"

    def test_chooser_record_schema(self, monkeypatch):
        """The masked-mxm chooser's decision record; the exact flop count
        rides along under deep profiling only (it costs O(nnz))."""
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

        with obs.tracing() as trace:
            run()
        (e,) = trace.decisions()
        assert "dot_probes" in e and "expand_flops" not in e
        with obs.tracing() as trace, obs.profiling():
            run()
        (e,) = trace.decisions()
        assert e["op"] == "mxm" and e["method"] in ("dot", "fallback")
        assert e["rule"] in ("mxm-masked-dot", "mxm-scipy")
        assert e["semiring"] == "plus.pair"
        assert e["dot_probes"] >= 0 and e["expand_flops"] >= 0
        assert e["mask_nvals"] == a.nvals
        # estimate within sampling error of the exact count on this input
        assert e["expand_flops_est"] == pytest.approx(e["expand_flops"],
                                                      rel=0.5)
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

    def test_values_all_ge_one_cache(self):
        a = grb.Matrix.from_coo([0, 1], [1, 0], [1.0, 2.0], 2, 2)
        assert a.values_all_ge_one()
        a[0, 1] = 0.5            # positive but < 1: skip becomes unsound
        assert not a.values_all_ge_one()
        # integer matrices never qualify (wrapping sums can hit 0)
        ints = grb.Matrix.from_coo([0], [0], np.array([3], np.int64), 2, 2)
        assert not ints.values_all_ge_one()

    def test_ge_one_skip_matches_pattern_pass(self, monkeypatch):
        """With float values ≥ 1 the pattern pass is skipped; the result
        must equal the pattern-proofed one (identical structure)."""
        rng = np.random.default_rng(31)
        a = _rand_matrix(rng, 25, 25, density=0.3)
        a.values = a.values + 1.0                    # all in [1, 2)
        b = _rand_matrix(rng, 25, 25, density=0.3)
        b.values = b.values + 1.0
        assert a.values_all_ge_one() and b.values_all_ge_one()
        sr = grb.semiring_by_name("plus.times")
        c1 = grb.Matrix(grb.FP64, 25, 25)
        grb.mxm(c1, a, b, sr)
        # force the pattern pass by defeating the ≥1 cache
        monkeypatch.setattr(grb.Matrix, "values_all_ge_one",
                            lambda self: False)
        c2 = grb.Matrix(grb.FP64, 25, 25)
        grb.mxm(c2, a, b, sr)
        assert_same_matrix(c1, c2)

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
