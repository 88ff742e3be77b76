"""Planner parity: every registered rule, forced, equals the seed path.

The engine contract: whichever rule claims a plan — forced through the
unified cost constants (:mod:`repro.grb.engine.cost`) or pinned with
:func:`repro.grb.engine.force_rule` — the result is **bit-identical** to
the reference strategy, across storage formats × mask kinds × accumulate ×
replace.  The reference is the last-registered rule of each kind with the
masked engine and fusion switched off (exactly the seed pipeline).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from helpers import ab_ratio
from repro import grb, obs
from repro.grb import engine
from repro.grb.engine import cost

MATRIX_FORMATS = ("csr", "csc", "bitmap", "hypersparse")
VECTOR_FORMATS = ("sparse", "bitmap")

MXV_SEMIRINGS = ["plus.times", "plus.second", "min.plus", "any.pair"]


def _rand_matrix(rng, m, n, density=0.3):
    """Integer-valued float entries: cross-rule float sums are then exact
    in any accumulation order, so bit-parity across *different* kernels is
    well-defined (the seed suite uses the same convention)."""
    dense = (rng.random((m, n)) < density) * rng.integers(1, 5, (m, n))
    r, c = np.nonzero(dense)
    return grb.Matrix.from_coo(r, c, dense[r, c].astype(np.float64), m, n)


def _rand_vector(rng, n, density=0.5):
    present = rng.random(n) < density
    vals = rng.integers(1, 5, n).astype(np.float64)
    return grb.Vector.from_dense(vals, present=present)


def _mask_variants(mobj):
    return {
        "none": None,
        "structural": grb.structure(mobj),
        "valued": grb.Mask(mobj),
        "complement-structural": grb.complement(grb.structure(mobj)),
    }


def _seed(monkeypatch):
    """The pre-engine pipeline: reference rules, no masked engine, no
    fusion."""
    monkeypatch.setattr(cost, "MASKED_MIN_NNZ", float("inf"))
    monkeypatch.setattr(cost, "FUSION_ENABLED", False)


def assert_same_vector(got, ref, ctx=""):
    np.testing.assert_array_equal(got.indices, ref.indices, err_msg=ctx)
    np.testing.assert_array_equal(got.values, ref.values, err_msg=ctx)
    assert got.values.dtype == ref.values.dtype, ctx


class TestRegistry:
    #: The always-applicable reference strategy that must be tried LAST
    #: for each kind — registration order is dispatch order, so a reorder
    #: that puts a declining rule at the end could make dispatch fall
    #: through on ordinary calls.
    REFERENCE_RULES = {
        "mxm": "mxm-expand",
        "mxv": "mxv-gather",
        "vxm": "vxm-sparse-push",
        "ewise_add": "ewise-sorted-merge",
        "ewise_mult": "ewise-sorted-merge",
        "apply": "apply-entrywise",
        "select": "select-coords",
        "assign": "assign-region",
        "assign_scalar": "assign-scalar-region",
        "update": "update-write",
    }

    def test_decision_only_kind_is_gone(self):
        assert engine.rules_for("bfs_step") == []

    def test_every_kind_ends_with_its_reference_rule(self):
        for kind, ref in self.REFERENCE_RULES.items():
            rules = engine.rules_for(kind)
            assert rules, kind
            assert rules[-1].name == ref, (kind, [r.name for r in rules])

    def test_raw_output_plans_reject_accum_and_replace(self, rng):
        a = _rand_matrix(rng, 6, 6)
        u = _rand_vector(rng, 6)
        with pytest.raises(grb.InvalidValue):
            engine.plan_mxv(None, a, u, grb.semiring_by_name("plus.times"),
                            accum=grb.binary.PLUS)
        with pytest.raises(grb.InvalidValue):
            engine.plan_ewise_mult(None, u, u, grb.binary.MINUS,
                                   replace=True)

    def test_force_rule_unknown_name_raises(self):
        with pytest.raises(KeyError):
            with engine.force_rule("mxv", "no-such-rule"):
                pass

    def test_force_rule_is_context_local(self, rng):
        """A force_rule block in one thread never reroutes another thread's
        plans (the pin lives in a ContextVar, like the trace sink)."""
        import threading

        a = _rand_matrix(rng, 12, 12)
        u = _rand_vector(rng, 12, density=0.02)   # scipy-dense would decline
        errors = []

        def other_thread():
            try:
                w = grb.Vector(grb.FP64, 12)
                grb.mxv(w, a, u, grb.semiring_by_name("plus.times"))
            except Exception as exc:      # forced decline would raise here
                errors.append(exc)

        with engine.force_rule("mxv", "mxv-scipy-dense"):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert errors == []
        # and nesting restores cleanly
        with engine.force_rule("mxv", "mxv-gather"):
            with engine.force_rule("mxv", "mxv-scipy-dense"):
                pass
            w = grb.Vector(grb.FP64, 12)
            grb.mxv(w, a, u, grb.semiring_by_name("plus.times"))  # gather ok

    def test_forced_rule_that_declines_raises(self, rng):
        a = _rand_matrix(rng, 8, 8)
        u = _rand_vector(rng, 8, density=0.02)   # sparse: scipy declines
        w = grb.Vector(grb.FP64, 8)
        with engine.force_rule("mxv", "mxv-scipy-dense"):
            with pytest.raises(engine.PlanningError):
                grb.mxv(w, a, u, grb.semiring_by_name("plus.times"))


class TestMxvVxmRuleParity:
    """Each mxv/vxm rule × mask kind × accum × replace == the gather/push
    reference, across every operand storage format."""

    @pytest.mark.parametrize("name", MXV_SEMIRINGS)
    @pytest.mark.parametrize("op", ("mxv", "vxm"))
    def test_rules_agree(self, rng, name, op, monkeypatch):
        sr = grb.semiring_by_name(name)
        a = _rand_matrix(rng, 20, 20)
        u = _rand_vector(rng, 20, density=0.8)      # dense: every rule open
        mobj = _rand_vector(rng, 20, density=0.4)
        w0 = _rand_vector(rng, 20, density=0.3)
        run = grb.mxv if op == "mxv" else \
            (lambda w, a_, u_, s, **kw: grb.vxm(w, u_, a_, s, **kw))
        ref_rule = "mxv-gather" if op == "mxv" else "vxm-sparse-push"
        fast_rule = "mxv-scipy-dense" if op == "mxv" else "vxm-scipy-dense"
        for mk, mask in _mask_variants(mobj).items():
            for accum in (None, grb.binary.PLUS):
                for replace in (False, True):
                    ctx = f"{op} {name} {mk} accum={accum} r={replace}"
                    with engine.force_rule(op, ref_rule):
                        ref = w0.dup()
                        run(ref, a, u, sr, mask=mask, accum=accum,
                            replace=replace)
                    # the dense rule only opens for unmasked reducible
                    # calls; skip combinations it legitimately declines
                    if sr.scipy_reducible() and (mask is None
                                                 or op == "vxm"):
                        with engine.force_rule(op, fast_rule):
                            got = w0.dup()
                            run(got, a, u, sr, mask=mask, accum=accum,
                                replace=replace)
                        assert_same_vector(got, ref, ctx)
                    auto = w0.dup()
                    run(auto, a, u, sr, mask=mask, accum=accum,
                        replace=replace)
                    assert_same_vector(auto, ref, ctx + " [auto]")

    @pytest.mark.parametrize("fmt_a", MATRIX_FORMATS)
    @pytest.mark.parametrize("fmt_u", VECTOR_FORMATS)
    def test_formats_agree(self, rng, fmt_a, fmt_u):
        sr = grb.semiring_by_name("plus.times")
        a = _rand_matrix(rng, 16, 16, density=0.35)
        u = _rand_vector(rng, 16, density=0.8)
        ref = grb.Vector(grb.FP64, 16)
        grb.mxv(ref, a, u, sr)
        got = grb.Vector(grb.FP64, 16)
        grb.mxv(got, a.dup().set_format(fmt_a), u.dup().set_format(fmt_u),
                sr)
        assert_same_vector(got, ref, f"{fmt_a}/{fmt_u}")


class TestFusedDenseAccumParity:
    """The mxv-fused-dense-accum rule == the decomposed seed sequence."""

    def _one_step(self, rng, n=64):
        # arbitrary float values: the fused rule replays the very same
        # SciPy product array + element-wise add, so bit-parity holds even
        # where accumulation order would matter across different kernels
        dense = (rng.random((n, n)) < 0.2) * (rng.random((n, n)) + 0.25)
        i, j = np.nonzero(dense)
        a = grb.Matrix.from_coo(i, j, dense[i, j], n, n)
        present = rng.random(n) < 0.9
        u = grb.Vector.from_dense(rng.random(n) + 0.25, present=present)
        r = grb.Vector.from_dense(rng.random(n))     # full output
        return a, u, r

    def test_matches_seed(self, rng, monkeypatch):
        sr = grb.semiring_by_name("plus.second")
        a, u, r0 = self._one_step(rng)
        ref = r0.dup()
        _seed(monkeypatch)
        grb.mxv(ref, a, u, sr, accum=grb.binary.PLUS)
        monkeypatch.undo()
        got = r0.dup()
        with engine.force_rule("mxv", "mxv-fused-dense-accum"):
            grb.mxv(got, a, u, sr, accum=grb.binary.PLUS)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_array_equal(got.values, ref.values)

    def test_declines_when_output_not_full(self, rng):
        sr = grb.semiring_by_name("plus.second")
        a, u, _ = self._one_step(rng)
        r = _rand_vector(rng, 64, density=0.5)       # holes: rule must pass
        with engine.force_rule("mxv", "mxv-fused-dense-accum"):
            with pytest.raises(engine.PlanningError):
                grb.mxv(r, a, u, sr, accum=grb.binary.PLUS)

    def test_declines_when_fusion_disabled(self, rng, monkeypatch):
        sr = grb.semiring_by_name("plus.second")
        a, u, r = self._one_step(rng)
        monkeypatch.setattr(cost, "FUSION_ENABLED", False)
        with engine.force_rule("mxv", "mxv-fused-dense-accum"):
            with pytest.raises(engine.PlanningError):
                grb.mxv(r, a, u, sr, accum=grb.binary.PLUS)


class TestEwiseRuleParity:
    @pytest.mark.parametrize("kind", ("ewise_add", "ewise_mult"))
    def test_bitmap_equals_sorted(self, rng, kind, monkeypatch):
        run = grb.ewise_add if kind == "ewise_add" else grb.ewise_mult
        a = _rand_vector(rng, 40, density=0.6).set_format("bitmap")
        b = _rand_vector(rng, 40, density=0.6).set_format("bitmap")
        mobj = _rand_vector(rng, 40, density=0.4)
        for mk, mask in _mask_variants(mobj).items():
            for accum in (None, grb.binary.PLUS):
                ctx = f"{kind} {mk} accum={accum}"
                with engine.force_rule(kind, "ewise-sorted-merge"):
                    ref = grb.Vector(grb.FP64, 40)
                    run(ref, a, b, grb.binary.PLUS, mask=mask, accum=accum)
                with engine.force_rule(kind, "ewise-bitmap-merge"):
                    got = grb.Vector(grb.FP64, 40)
                    run(got, a, b, grb.binary.PLUS, mask=mask, accum=accum)
                assert_same_vector(got, ref, ctx)

    def test_bitmap_rule_declines_sparse_operands(self, rng):
        a = _rand_vector(rng, 40, density=0.6).set_format("sparse")
        b = _rand_vector(rng, 40, density=0.6).set_format("sparse")
        with engine.force_rule("ewise_add", "ewise-bitmap-merge"):
            with pytest.raises(engine.PlanningError):
                grb.ewise_add(grb.Vector(grb.FP64, 40), a, b,
                              grb.binary.PLUS)


class TestApplySelectRuleParity:
    def test_select_value_only_equals_coords(self, rng):
        m = _rand_matrix(rng, 18, 18, density=0.4)
        with engine.force_rule("select", "select-coords"):
            ref = grb.Matrix(grb.FP64, 18, 18)
            grb.select(ref, m, "valuegt", 0.5)
        with engine.force_rule("select", "select-value-only"):
            got = grb.Matrix(grb.FP64, 18, 18)
            grb.select(got, m, "valuegt", 0.5)
        assert got.isequal(ref)
        # value-only predicates decline the coords-only forcing in reverse:
        # a coordinate predicate cannot run the value-only rule
        with engine.force_rule("select", "select-value-only"):
            with pytest.raises(engine.PlanningError):
                grb.select(grb.Matrix(grb.FP64, 18, 18), m, "tril", 0)

    def test_apply_matches_object_method(self, rng, monkeypatch):
        v = _rand_vector(rng, 30, density=0.6)
        mobj = _rand_vector(rng, 30, density=0.5)
        for mask in (None, grb.structure(mobj)):
            ref = grb.Vector(grb.FP64, 30)
            _seed(monkeypatch)
            grb.apply(ref, v, grb.unary.SQRT, mask=mask)
            monkeypatch.undo()
            got = grb.Vector(grb.FP64, 30)
            grb.apply(got, v, grb.unary.SQRT, mask=mask)
            assert_same_vector(got, ref)


class TestFusedEpilogueParity:
    """Fused chains == the decomposed (FUSION_ENABLED=False) sequence."""

    def test_apply_epilogue_on_ewise(self, rng, monkeypatch):
        t = _rand_vector(rng, 50, density=0.9)
        d = _rand_vector(rng, 50, density=0.8)
        damp = grb.unary.unary_op("__par_damp", lambda x, k: x * k)
        plan = lambda out: engine.plan_ewise_mult(  # noqa: E731
            out, t, d, grb.binary.DIV).then_apply(damp, 0.85)
        got = grb.Vector(grb.FP64, 50)
        engine.execute(plan(got))
        monkeypatch.setattr(cost, "FUSION_ENABLED", False)
        ref = grb.Vector(grb.FP64, 50)
        engine.execute(plan(ref))
        assert_same_vector(got, ref)

    def test_select_epilogue_on_vxm(self, rng, monkeypatch):
        from repro.grb._kernels.apply_select import SelectOp
        a = _rand_matrix(rng, 25, 25)
        u = _rand_vector(rng, 25, density=0.3)
        op = SelectOp("__par_gt", lambda v, i, j, k: v > k,
                      uses_coords=False)
        plan = lambda: engine.plan_vxm(  # noqa: E731
            None, u, a, grb.semiring_by_name("min.plus")).then_select(op, 0.6)
        got = engine.execute(plan())
        monkeypatch.setattr(cost, "FUSION_ENABLED", False)
        ref = engine.execute(plan())
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    def test_masked_reduce_rowwise_epilogue_on_mxm(self, rng, monkeypatch):
        a = _rand_matrix(rng, 30, 30, density=0.3).pattern(grb.INT64)
        plan = lambda: engine.plan_mxm(  # noqa: E731
            None, a, a, grb.semiring_by_name("plus.pair"),
            mask=grb.structure(a)).then_reduce_rowwise(
                grb.monoid.PLUS_MONOID)
        got = engine.execute(plan())
        monkeypatch.setattr(cost, "FUSION_ENABLED", False)
        ref = engine.execute(plan())
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
        # and the raw-mask restriction equals a masked write into an
        # empty output followed by the object-level reduction
        monkeypatch.undo()
        c = grb.Matrix(grb.INT64, 30, 30)
        grb.mxm(c, a, a, grb.semiring_by_name("plus.pair"),
                mask=grb.structure(a))
        t = c.reduce_rowwise(grb.monoid.PLUS_MONOID)
        np.testing.assert_array_equal(got[0], t.indices)
        np.testing.assert_array_equal(got[1], t.values)

    def test_reduce_scalar_epilogue(self, rng, monkeypatch):
        t = _rand_vector(rng, 60, density=1.0)
        r = _rand_vector(rng, 60, density=1.0)
        plan = lambda: engine.plan_ewise_mult(  # noqa: E731
            None, t, r, grb.binary.MINUS).then_reduce_scalar(
                grb.monoid.PLUS_MONOID, absolute=True)
        got = engine.execute(plan())
        monkeypatch.setattr(cost, "FUSION_ENABLED", False)
        ref = engine.execute(plan())
        assert got == ref
        # equals the seed idiom: materialise the diff, then |·| sum
        diff = t.ewise_mult(r, grb.binary.MINUS)
        assert got == np.abs(diff.values).sum()


class TestAlgorithmFusionParity:
    """End-to-end: each rewritten hot loop, fusion on vs off."""

    @pytest.fixture(scope="class")
    def graphs(self):
        from repro.gap import datasets
        return {name: datasets.build(name, "tiny") for name in ("kron",
                                                                "road")}

    @pytest.fixture(scope="class")
    def graphs_weighted(self):
        from repro.gap import datasets
        return {"kron": datasets.build("kron", "tiny", weighted=True)}

    def test_pagerank_variants(self, graphs, monkeypatch):
        from repro.lagraph.algorithms.pagerank import pagerank
        for name, g in graphs.items():
            for variant in ("gap", "gx"):
                r_on, it_on = pagerank(g, variant=variant)
                monkeypatch.setattr(cost, "FUSION_ENABLED", False)
                r_off, it_off = pagerank(g, variant=variant)
                monkeypatch.undo()
                assert it_on == it_off, (name, variant)
                np.testing.assert_array_equal(r_on.indices, r_off.indices)
                np.testing.assert_array_equal(r_on.values, r_off.values,
                                              err_msg=f"{name} {variant}")

    def test_fused_pagerank_vs_decomposed(self, kron_small):
        """Ratio guard: the Alg. 4 loop on kron-small with its fused plans
        (dense accumulate, convergence delta off the merge's output pass)
        against the decomposed sequence with materialised intermediates
        (ranks bit-identical; measured 1.5-1.6x, so what is asserted is
        that fusion does not lose)."""
        from repro.lagraph.algorithms.pagerank import pagerank

        def fused():
            return pagerank(kron_small)

        decomposed = mock.patch.object(cost, "FUSION_ENABLED", False)(fused)
        (r_on, it_on), (r_off, it_off) = fused(), decomposed()
        assert it_on == it_off
        np.testing.assert_array_equal(r_on.indices, r_off.indices)
        np.testing.assert_array_equal(r_on.values, r_off.values)
        assert ab_ratio(fused, decomposed, reps=5) >= 1 / 1.2

    def test_sssp_variants(self, graphs_weighted, monkeypatch):
        from repro.lagraph.algorithms.sssp import (
            sssp_batch, sssp_bellman_ford, sssp_delta_stepping)
        g = graphs_weighted["kron"]
        on_bf = sssp_bellman_ford(g, 0)
        on_ds = sssp_delta_stepping(g, 0, 2.0)
        on_batch = sssp_batch(g, [0, 1, 2])
        monkeypatch.setattr(cost, "FUSION_ENABLED", False)
        off_bf = sssp_bellman_ford(g, 0)
        off_ds = sssp_delta_stepping(g, 0, 2.0)
        off_batch = sssp_batch(g, [0, 1, 2])
        monkeypatch.undo()
        assert on_bf.isequal(off_bf)
        assert on_ds.isequal(off_ds)
        assert on_batch.isequal(off_batch)
        # and delta-stepping equals its cross-check either way
        assert on_ds.isequal(on_bf)

    def test_cc_and_lcc(self, graphs, monkeypatch):
        from repro.lagraph.algorithms.cc import connected_components
        from repro.lagraph.experimental.lcc import (
            local_clustering_coefficient)
        for name, g in graphs.items():
            cc_on = connected_components(g)
            lcc_on = local_clustering_coefficient(g)
            monkeypatch.setattr(cost, "FUSION_ENABLED", False)
            cc_off = connected_components(g)
            lcc_off = local_clustering_coefficient(g)
            monkeypatch.undo()
            assert cc_on.isequal(cc_off), name
            np.testing.assert_array_equal(lcc_on.values, lcc_off.values,
                                          err_msg=name)

    def test_bfs_direction_forcing(self, graphs, monkeypatch):
        from repro import lagraph as lg
        g = graphs["kron"]
        g.cache_at()
        g.cache_row_degree()
        ref = lg.bfs_parent_push(g, 0)

        def directions(fn):
            with obs.tracing() as trace:
                assert fn(g, 0).isequal(ref)
            return {e["direction"] for e in trace.decisions("bfs_step")}

        # both thresholds at infinity: no level ever pushes
        monkeypatch.setattr(cost, "PUSHPULL_ALPHA", float("inf"))
        monkeypatch.setattr(cost, "PUSHPULL_BETA", float("inf"))
        assert directions(lg.bfs_parent_auto) == {"pull"}
        assert directions(lg.bfs_parent_do) == {"pull"}
        # alpha=0 pushes while any edge is unexplored (the final drained
        # level may still pull)
        monkeypatch.setattr(cost, "PUSHPULL_ALPHA", 0.0)
        monkeypatch.setattr(cost, "PUSHPULL_BETA", 18.0)
        assert "push" in directions(lg.bfs_parent_auto)
        assert "push" in directions(lg.bfs_parent_do)


class TestPreplan:
    def test_preplan_builds_and_reports(self, rng):
        a = _rand_matrix(rng, 12, 12)
        with obs.tracing() as trace:
            summary = engine.preplan(a, profile="msbfs")
        assert summary["op"] == "preplan"
        assert "transpose_csr" in summary["built"]
        assert "pattern_operand" in summary["built"]
        assert trace.decisions() == [summary]
