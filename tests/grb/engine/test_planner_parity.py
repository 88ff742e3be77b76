"""Planner parity: every registered rule, forced, equals the seed path.

The engine contract: whichever rule claims a plan — forced through the
unified cost constants (:mod:`repro.grb.engine.cost`) or pinned with
:func:`repro.grb.engine.force_rule` — the result is **bit-identical** to
the reference strategy, across storage formats × mask kinds × accumulate ×
replace.  The reference is the last-registered rule of each kind with the
masked engine and fusion switched off (exactly the seed pipeline).
"""

from __future__ import annotations

import itertools
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

import dense_model as dm
from helpers import ab_ratio, random_graph_np
from repro import grb, obs
from repro.grb import engine
from repro.grb.engine import cost, plancache

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
        u = _rand_vector(rng, 12)
        errors = []

        def other_thread():
            try:
                # an empty output: the fused rule would decline
                w = grb.Vector(grb.FP64, 12)
                grb.mxv(w, a, u, grb.semiring_by_name("plus.times"))
            except Exception as exc:      # forced decline would raise here
                errors.append(exc)

        with engine.force_rule("mxv", "mxv-fused-dense-accum"):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert errors == []
        # and nesting restores cleanly
        with engine.force_rule("mxv", "mxv-gather"):
            with engine.force_rule("mxv", "mxv-fused-dense-accum"):
                pass
            w = grb.Vector(grb.FP64, 12)
            grb.mxv(w, a, u, grb.semiring_by_name("plus.times"))  # gather ok

    def test_forced_rule_that_declines_raises(self, rng):
        a = _rand_matrix(rng, 8, 8)
        u = _rand_vector(rng, 8)
        w = grb.Vector(grb.FP64, 8)        # not full: the fused rule declines
        with engine.force_rule("mxv", "mxv-fused-dense-accum"):
            with pytest.raises(engine.PlanningError):
                grb.mxv(w, a, u, grb.semiring_by_name("plus.times"))


class TestMxvVxmRuleParity:
    """Routed mxv/vxm × output × mask kind × accum × replace == the
    gather/push reference, across every operand storage format."""

    @pytest.mark.parametrize("name", MXV_SEMIRINGS)
    @pytest.mark.parametrize("op", ("mxv", "vxm"))
    def test_rules_agree(self, rng, name, op):
        sr = grb.semiring_by_name(name)
        a = _rand_matrix(rng, 20, 20)
        u = _rand_vector(rng, 20, density=0.8)
        mobj = _rand_vector(rng, 20, density=0.4)
        # a full output opens mxv-fused-dense-accum to the unmasked
        # plus-accumulated mxv
        outputs = {"partial": _rand_vector(rng, 20, density=0.3),
                   "full": _rand_vector(rng, 20, density=1.0)}
        run = grb.mxv if op == "mxv" else \
            (lambda w, a_, u_, s, **kw: grb.vxm(w, u_, a_, s, **kw))
        ref_rule = "mxv-gather" if op == "mxv" else "vxm-sparse-push"
        for (wk, w0), (mk, mask) in itertools.product(
                outputs.items(), _mask_variants(mobj).items()):
            for accum in (None, grb.binary.PLUS):
                for replace in (False, True):
                    ctx = f"{op} {name} {wk} {mk} accum={accum} r={replace}"
                    with engine.force_rule(op, ref_rule):
                        ref = w0.dup()
                        run(ref, a, u, sr, mask=mask, accum=accum,
                            replace=replace)
                    auto = w0.dup()
                    run(auto, a, u, sr, mask=mask, accum=accum,
                        replace=replace)
                    assert_same_vector(auto, ref, ctx + " [auto]")

    @pytest.mark.parametrize("nvals", (23, 205))
    def test_gather_replays_scipy_on_arbitrary_floats(self, rng, nvals):
        """One answer at any frontier density: the gather/push rules sum
        a plus.times-reducible product in SciPy's order.  23 of 256 entries
        sit under the density the retired dense routes opened at, and
        still give every output 8 or more terms — where ``reduceat`` sums
        pairwise (2-3 ulp off SciPy before the replay)."""
        import scipy.sparse as sp
        dense = rng.random((64, 256))
        present = np.zeros(256, dtype=bool)
        present[rng.choice(256, nvals, replace=False)] = True
        u = grb.Vector.from_dense(rng.random(256), present=present)
        a = grb.Matrix.from_dense(dense)
        at = grb.Matrix.from_dense(dense.T.copy())
        _, u_dense = dm.to_model_vector(u)
        ones = np.ones_like(dense)
        # each multiply's operand substitution: the side it ignores is ones
        operands = {"plus.times": (dense, u_dense),
                    "plus.first": (dense, present.astype(np.float64)),
                    "plus.second": (ones, u_dense),
                    "plus.pair": (ones, present.astype(np.float64))}
        # uᵀ Aᵀ: the vector is ⊗'s first operand, so first/second swap
        flip = {"plus.first": "plus.second", "plus.second": "plus.first"}
        for name in MXM_REDUCIBLE:
            sr = grb.semiring_by_name(name)
            mat, vec = operands[name]
            want = sp.csr_matrix(mat) @ vec
            w = grb.Vector(grb.FP64, 64)
            grb.mxv(w, a, u, sr)
            assert w.nvals == 64, name
            assert w.values.tobytes() == want.tobytes(), "mxv " + name
            w = grb.Vector(grb.FP64, 64)
            grb.vxm(w, u, at, grb.semiring_by_name(flip.get(name, name)))
            assert w.values.tobytes() == want.tobytes(), "vxm " + name

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

    @pytest.mark.parametrize("fusion", (True, False),
                             ids=("fused", "decomposed"))
    @pytest.mark.parametrize("cache", ("warm", "cold"))
    def test_fusion_and_plan_cache_lattice(self, fusion, cache, monkeypatch):
        """Every shipped algorithm, fusion on/off × plan cache warm/cold,
        against the default run entry for entry (the warm arm runs twice,
        the second time cache-served)."""
        rng = np.random.default_rng(11)
        g = random_graph_np(rng, n=36, p=0.12, directed=True)
        gw = random_graph_np(rng, n=36, p=0.12, directed=True, weighted=True)
        gu = random_graph_np(rng, n=36, p=0.12, directed=False)
        for graph in (g, gw, gu):
            graph.cache_all()

        ref = _algo_results(g, gw, gu)        # defaults, fusion on

        monkeypatch.setattr(cost, "FUSION_ENABLED", fusion)
        if cache == "cold":
            monkeypatch.setattr(cost, "PLAN_CACHE_ENABLED", False)
        plancache.clear()
        runs = [_algo_results(g, gw, gu)]
        if cache == "warm":
            runs.append(_algo_results(g, gw, gu))
        plancache.clear()

        for name in ref:
            for got in runs:
                r, c = ref[name], got[name]
                ctx = f"{name} fusion={fusion} cache={cache}"
                if isinstance(r, int):
                    assert r == c, ctx
                elif isinstance(r, grb.Matrix):
                    assert r.isequal(c), ctx
                else:
                    assert_same_vector(c, r, ctx)

    def test_fusion_off_is_fully_decomposed(self, monkeypatch):
        """FUSION_ENABLED=False decomposes every epilogue chain: the
        Graphalytics PageRank carries an ``apply`` and a ``reduce_scalar``
        epilogue, fused by default and each replayed as its own stage when
        switched off, with the same ranks."""
        from repro import lagraph as lg

        def epilogues(trace):
            return {(r["name"], r["args"]["fused"])
                    for r in trace.find("epilogue:")}

        rng = np.random.default_rng(5)
        g = random_graph_np(rng, n=30, p=0.15)
        g.cache_all()
        with obs.tracing() as trace:
            ref, ref_iters = lg.pagerank_gx(g)
        kinds = {"epilogue:apply", "epilogue:reduce_scalar"}
        assert epilogues(trace) == {(k, True) for k in kinds}

        monkeypatch.setattr(cost, "FUSION_ENABLED", False)
        with obs.tracing() as trace:
            r, iters = lg.pagerank_gx(g)
        assert epilogues(trace) == {(k, False) for k in kinds}
        assert iters == ref_iters
        assert_same_vector(r, ref)


def _algo_results(g, gw, gu):
    from repro import lagraph as lg
    from repro.lagraph.experimental.lcc import local_clustering_coefficient

    return {
        "bfs_push": lg.bfs_parent_push(g, 0),
        "bfs_level": lg.bfs_level(g, 0),
        "sssp_bf": lg.sssp_bellman_ford(gw, 0),
        "sssp_delta": lg.sssp_delta_stepping(gw, 0, 2.0),
        "sssp_batch": lg.sssp_batch(gw, [0, 1, 2]),
        "pagerank": lg.pagerank(g)[0],
        "cc": lg.connected_components(gu),
        "lcc": local_clustering_coefficient(gu),
        "tc": lg.triangle_count_basic(gu),
    }


class TestPreplan:
    def test_preplan_builds_and_reports(self, rng):
        a = _rand_matrix(rng, 12, 12)
        with obs.tracing() as trace:
            summary = engine.preplan(a, profile="msbfs")
        assert summary["op"] == "preplan"
        assert "transpose_csr" in summary["built"]
        assert "pattern_operand" in summary["built"]
        assert trace.decisions() == [summary]


# ---------------------------------------------------------------------------
# mxm: every registered rule, walked from the registry
# ---------------------------------------------------------------------------

MXM_N = 64          # 64 x 64 outputs sit on the 4 096-cell bitmap floor
MXM_REDUCIBLE = ("plus.times", "plus.first", "plus.second", "plus.pair")
MXM_SEMIRINGS = MXM_REDUCIBLE + ("min.plus", "min.first", "any.pair",
                                 "any.secondi")
# the dot rule claims whatever it supports; the fallbacks restrict rows and
# filter keys by the mask
_MXM_ENGAGED = dict(MASKED_MIN_NNZ=0, DOT_PROBE_COST=0.0, DOT_WRITE_COST=0.0)


def _nonfinite(rng, size):
    v = rng.standard_normal(size)
    v[rng.random(size) < 0.3] = rng.choice([np.inf, -np.inf, np.nan])
    return v


def _with_zeros(v, rng):
    v[rng.random(v.size) < 0.25] = 0
    return v


#: value class -> values(rng, size): what the integer-valued-float
#: convention of ``_rand_matrix`` hides from every other parity grid
MXM_VALUES = {
    "fp64": lambda rng, size: rng.standard_normal(size) * 3,
    # below 1 with stored zeros: scipy_mxm's pattern-product branch
    "fp64-subunit-zeros": lambda rng, size: _with_zeros(rng.random(size),
                                                       rng),
    "fp64-nonfinite": _nonfinite,
    # +-1: sums of 8 cancel to exact (explicit) zeros
    "fp64-cancel": lambda rng, size: rng.choice([-1.0, 1.0], size),
    "fp32": lambda rng, size: (rng.standard_normal(size) * 3).astype(
        np.float32),
    "int64": lambda rng, size: rng.integers(-2, 3, size),
    "bool": lambda rng, size: rng.random(size) < 0.7,
}


def _small_product(rng, a_values, b_values=None):
    """``(A, B)``, 64 x 64 each, exactly on ``mxm-small-expand``'s bound:
    two rows of ``A`` hold 8 entries each, and the 16 rows of ``B`` they
    meet share one set of 4 columns — 64 flops = ``ncols(B)``, every output
    the sum of 8 contributions (where ``reduceat`` turns pairwise).  The
    other 48 rows of ``B`` are random and never touched."""
    n = MXM_N
    b_values = b_values or a_values
    k = rng.permutation(n)[:16]
    a = grb.Matrix.from_coo(np.repeat([0, 5], 8), k, a_values(rng, 16), n, n)
    j = np.sort(rng.permutation(n)[:4])
    dense = rng.random((n, n)) < 0.2
    dense[k] = False
    dense[np.ix_(k, j)] = True
    r, c = np.nonzero(dense)
    b = grb.Matrix.from_coo(r, c, b_values(rng, r.size), n, n)
    return a, b


def _big_product(rng, a_values, b_values=None):
    """``(A, B)`` above the gate: a dense 4 x 64 times a dense 64 x 64 —
    64 contributions per output, the shape the ISSUE 23 bugfix names."""
    b_values = b_values or a_values
    a = grb.Matrix.from_dense(
        a_values(rng, 4 * MXM_N).reshape(4, MXM_N), keep_zeros=True)
    b = grb.Matrix.from_dense(
        b_values(rng, MXM_N * MXM_N).reshape(MXM_N, MXM_N), keep_zeros=True)
    return a, b


def _mask_object(rng, nrows):
    """Sparse mask with stored zeros, so valued != structural."""
    dense = rng.random((nrows, MXM_N)) < 0.3
    r, c = np.nonzero(dense)
    return grb.Matrix.from_coo(r, c, rng.integers(0, 2, r.size)
                               .astype(np.float64), nrows, MXM_N)


def _mxm_masks(mobj):
    out = _mask_variants(mobj)
    out["complement-valued"] = grb.complement(grb.Mask(mobj))
    return out


def _triple(keys, vals):
    """Keys, value *bytes* (signed zeros and dtype width count) and dtype.
    NaNs are canonicalised first: which operand's sign and payload an
    ``inf - inf`` meeting a stored NaN keeps is the compiler's operand
    order inside one add, not a value."""
    if vals.dtype.kind == "f":
        vals = np.where(np.isnan(vals), vals.dtype.type(np.nan), vals)
    return np.array(keys), vals.tobytes(), vals.dtype


def _of(c):
    return _triple(c.keys(), c.values)


def _walk_mxm(run, ctx):
    """``run()`` under every rule registered for ``mxm`` — pinned, with the
    masked engine standing down and engaged — and as routed: whichever
    accept the plan return the reference's keys, value bytes and dtype.
    The reference is the seed pipeline (``mxm-expand``, masked engine off).
    Returns the names of the rules that accepted."""
    with mock.patch.object(cost, "MASKED_MIN_NNZ", float("inf")), \
            engine.force_rule("mxm", "mxm-expand"):
        ref = run()
    accepted = set()
    for costs in ({}, _MXM_ENGAGED):
        with ExitStack() as stack:
            for const, value in costs.items():
                stack.enter_context(mock.patch.object(cost, const, value))
            trials = [r.name for r in engine.rules_for("mxm")] + [None]
            for name in trials:
                where = f"{ctx} rule={name or 'routed'} engaged={bool(costs)}"
                try:
                    if name is None:
                        got = run()
                    else:
                        with engine.force_rule("mxm", name):
                            got = run()
                except engine.PlanningError:
                    continue
                accepted.add(name)
                np.testing.assert_array_equal(got[0], ref[0], err_msg=where)
                assert got[1] == ref[1], where
                assert got[2] == ref[2], where
    return accepted


class TestMxmRuleParity:
    """Every rule in ``engine.rules_for("mxm")`` that accepts a plan is
    byte-identical to the reference — walked from the registry, so the
    next registered rule is covered without anyone remembering it."""

    @pytest.mark.parametrize("name,values", [
        (name, values) for name in MXM_SEMIRINGS for values in MXM_VALUES
        # one float and one integer class cover the semirings SciPy cannot
        # run: there is no second kernel's arithmetic to replay
        if name in MXM_REDUCIBLE or values in ("fp64", "int64")])
    @pytest.mark.parametrize("build", (_small_product, _big_product),
                             ids=("small", "big"))
    def test_value_classes(self, rng, build, name, values):
        """Raw ``out=None`` plans (the kernel's own dtype is visible) and a
        plain write, unmasked and through a structural mask."""
        sr = grb.semiring_by_name(name)
        a, b = build(rng, MXM_VALUES[values])
        mobj = _mask_object(rng, a.nrows)
        accepted = set()
        for mk, mask in (("none", None),
                         ("structural", grb.structure(mobj))):
            def raw():
                return _triple(*engine.execute(
                    engine.plan_mxm(None, a, b, sr, mask=mask)))

            def written():
                c = grb.Matrix(grb.FP64, a.nrows, MXM_N)
                grb.mxm(c, a, b, sr, mask=mask)
                return _of(c)

            ctx = f"{name} {values} mask={mk}"
            accepted |= _walk_mxm(raw, ctx + " raw")
            accepted |= _walk_mxm(written, ctx + " written")
        assert "mxm-expand" in accepted
        if sr.scipy_reducible():
            assert "mxm-scipy" in accepted and "mxm-masked-dot" in accepted
            assert ("mxm-small-expand" in accepted) == \
                (build is _small_product)
        else:
            assert "mxm-small-expand" not in accepted

    def test_mixed_operand_dtypes(self, rng):
        """BC's shape: FP64 path counts below 1 times a bool adjacency."""
        for sr_name in ("plus.first", "plus.times", "plus.second"):
            sr = grb.semiring_by_name(sr_name)
            a, b = _small_product(rng, MXM_VALUES["fp64-subunit-zeros"],
                                  MXM_VALUES["bool"])

            def raw():
                return _triple(*engine.execute(
                    engine.plan_mxm(None, a, b, sr)))

            assert "mxm-small-expand" in _walk_mxm(raw, sr_name)

    @pytest.mark.parametrize("mask_fmt", ("sparse", "bitmap"))
    @pytest.mark.parametrize("out_fmt", ("csr", "bitmap"))
    @pytest.mark.parametrize("name", ("plus.first", "plus.times"))
    def test_mask_accum_replace(self, rng, name, out_fmt, mask_fmt):
        sr = grb.semiring_by_name(name)
        a, b = _small_product(rng, MXM_VALUES["fp64-subunit-zeros"])
        mobj = _mask_object(rng, MXM_N)
        if mask_fmt == "bitmap":
            mobj.set_format("bitmap")
        c0 = _rand_matrix(rng, MXM_N, MXM_N, density=0.1)
        for mk, mask in _mxm_masks(mobj).items():
            for accum in (None, grb.binary.PLUS):
                for replace in (False, True):
                    def run():
                        c = c0.dup().set_format(out_fmt)
                        grb.mxm(c, a, b, sr, mask=mask, accum=accum,
                                replace=replace)
                        return _of(c)

                    accepted = _walk_mxm(
                        run, f"{name} {mk} accum={accum} r={replace}")
                    assert "mxm-small-expand" in accepted

    @pytest.mark.parametrize("fmt_a", MATRIX_FORMATS)
    @pytest.mark.parametrize("fmt_b", MATRIX_FORMATS)
    @pytest.mark.parametrize("transpose_b", (False, True))
    def test_operand_pins(self, rng, fmt_a, fmt_b, transpose_b):
        sr = grb.semiring_by_name("plus.times")
        a, b = _small_product(rng, MXM_VALUES["fp64"])
        mobj = _mask_object(rng, MXM_N)
        a.set_format(fmt_a)
        # with transpose_b the stored operand is Bᵀ, so the product (and
        # its flop count against the bound) is the same A·B
        b = (b.transpose() if transpose_b else b).set_format(fmt_b)

        def run():
            c = grb.Matrix(grb.FP64, MXM_N, MXM_N)
            grb.mxm(c, a, b, sr, mask=grb.structure(mobj),
                    transpose_b=transpose_b)
            return _of(c)

        assert "mxm-small-expand" in _walk_mxm(
            run, f"{fmt_a}/{fmt_b} transpose_b={transpose_b}")

    def test_output_aliases_an_operand(self, rng):
        """``mxm(f, f, a, ...)`` — every level of BC and msbfs
        (``tests/grb/test_aliasing.py`` drives every other writer)."""
        sr = grb.semiring_by_name("plus.first")
        f0, b = _small_product(rng, MXM_VALUES["fp64-subunit-zeros"])
        p = _mask_object(rng, MXM_N).set_format("bitmap")
        for kw in (dict(mask=grb.complement(grb.structure(p)), replace=True),
                   dict(accum=grb.binary.PLUS),
                   dict()):
            def run():
                f = f0.dup()
                grb.mxm(f, f, b, sr, **kw)
                return _of(f)

            assert "mxm-small-expand" in _walk_mxm(run, f"alias {sorted(kw)}")

    def test_forced_expand_equals_scipy_on_arbitrary_floats(self, rng):
        """The README's "whatever claims a plan, results are bit-identical"
        on the shape the integer-float convention hid: ``reduceat`` sums a
        group of 8 or more pairwise, SciPy sequentially (4 / 2 / 6 ulp
        apart for ``times`` / ``first`` / ``second`` before the expansion
        kernel learnt to replay SciPy's order)."""
        a = grb.Matrix.from_dense(rng.random((4, 64)))
        b = grb.Matrix.from_dense(rng.random((64, 64)))
        for name in MXM_REDUCIBLE:
            out = {}
            for rule in ("mxm-scipy", "mxm-expand"):
                out[rule] = grb.Matrix(grb.FP64, 4, 64)
                with engine.force_rule("mxm", rule):
                    grb.mxm(out[rule], a, b, grb.semiring_by_name(name))
            assert out["mxm-expand"].isequal(out["mxm-scipy"]), name
            assert out["mxm-expand"].values.tobytes() == \
                out["mxm-scipy"].values.tobytes(), name


class TestMxmSmallExpandGate:
    """``mxm-small-expand`` claims a plus.times-reducible product of at
    most ``ncols(B)`` flops, and looks at an array only when ``nnz(A)`` is
    itself within that bound."""

    SR = grb.semiring_by_name("plus.times")

    def _claim(self, a, b, **kw):
        with obs.tracing() as trace:
            c = grb.Matrix(grb.FP64, a.nrows,
                           b.nrows if kw.get("transpose_b") else b.ncols)
            grb.mxm(c, a, b, self.SR, **kw)
        (e,) = trace.decisions("mxm")
        return e

    def test_record_carries_flops_and_bound(self, rng):
        a, b = _small_product(rng, MXM_VALUES["fp64"])
        e = self._claim(a, b)
        assert e["rule"] == "mxm-small-expand"
        assert (e["flops"], e["flop_bound"]) == (64, MXM_N)
        # the transposed spelling of the same product counts the same flops
        e = self._claim(a, b.transpose(), transpose_b=True)
        assert (e["rule"], e["flops"]) == ("mxm-small-expand", 64)

    def test_one_flop_over_the_bound_declines(self, rng):
        a, b = _small_product(rng, MXM_VALUES["fp64"])
        k = int(a.indices[0])
        free = np.setdiff1d(np.arange(MXM_N), b.extract_row(k).indices)
        b[k, int(free[0])] = 1.0           # B(k,:) grows by one: 65 flops
        e = self._claim(a, b)
        assert e["rule"] == "mxm-scipy"
        # a declined trial leaves nothing of its own in the record
        assert "flops" not in e and "flop_bound" not in e

    def test_heavy_operand_declines_without_touching_an_array(self, rng):
        """``a.nvals > ncols(B)``: two integer compares, no gather — the
        row-pointer read is poisoned and never reached."""
        from repro.grb.engine import executors
        a = _rand_matrix(rng, MXM_N, MXM_N)          # ~1 200 entries
        b = _rand_matrix(rng, MXM_N, MXM_N)
        assert a.nvals > b.ncols

        def boom(*args):
            raise AssertionError("flop count attempted past the O(1) gate")

        with mock.patch.object(executors, "csr_row_lengths", boom):
            assert self._claim(a, b)["rule"] == "mxm-scipy"
            # ... while an operand inside the gate does reach the gather
            with pytest.raises(AssertionError, match="O\\(1\\) gate"):
                self._claim(*_small_product(rng, MXM_VALUES["fp64"]))

    def test_empty_operand_reaches_the_reference_rule(self, rng):
        _, b = _small_product(rng, MXM_VALUES["fp64"])
        empty = grb.Matrix(grb.FP64, MXM_N, MXM_N)
        assert self._claim(empty, b)["rule"] == "mxm-expand"
        assert self._claim(b, empty)["rule"] == "mxm-expand"

    def test_other_semirings_decline(self, rng):
        a, b = _small_product(rng, MXM_VALUES["fp64"])
        with engine.force_rule("mxm", "mxm-small-expand"):
            with pytest.raises(engine.PlanningError):
                grb.mxm(grb.Matrix(grb.FP64, MXM_N, MXM_N), a, b,
                        grb.semiring_by_name("min.plus"))


class TestSmallExpandAlgorithmParity:
    """The three algorithms whose levels ``mxm-small-expand`` claims, as
    routed (the trace shows the rule ran) against every product pinned to
    ``mxm-scipy``."""

    @pytest.fixture(scope="class")
    def graphs(self):
        from repro import lagraph as lg
        from repro.gap import datasets
        # two islands out of reach of each other (and a few isolated
        # nodes): a 5-ring with a chord, and a triangle with a tail
        ring = [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)]
        kite = [(8, 9), (9, 10), (8, 10), (10, 11)]
        r, c = np.array(ring + kite).T
        islands = grb.Matrix.from_coo(
            np.concatenate((r, c)), np.concatenate((c, r)),
            np.ones(2 * r.size, dtype=np.bool_), 16, 16)
        out = {"road": datasets.build("road", "tiny"),
               "kron": datasets.build("kron", "tiny"),
               "islands": lg.Graph(islands, lg.ADJACENCY_UNDIRECTED)}
        for g in out.values():
            g.cache_all()
        return out

    @staticmethod
    def _sources(g):
        live = np.flatnonzero(np.diff(g.A.indptr) > 0)
        return live[np.linspace(0, live.size - 1, 4).astype(np.int64)]

    @staticmethod
    def _both_ways(fn):
        with obs.tracing() as trace:
            routed = fn()
        with engine.force_rule("mxm", "mxm-scipy"):
            pinned = fn()
        return routed, pinned, {e["rule"] for e in trace.decisions("mxm")}

    @pytest.mark.parametrize("name", ("road", "kron", "islands"))
    def test_bc_batch(self, graphs, name):
        from repro.lagraph.algorithms.bc import betweenness_centrality_batch
        g = graphs[name]
        routed, pinned, rules = self._both_ways(
            lambda: betweenness_centrality_batch(g, self._sources(g)))
        assert "mxm-small-expand" in rules
        np.testing.assert_array_equal(routed.indices, pinned.indices)
        assert routed.values.tobytes() == pinned.values.tobytes()

    @pytest.mark.parametrize("name", ("road", "kron", "islands"))
    def test_msbfs_levels(self, graphs, name, monkeypatch):
        from repro import lagraph as lg
        g = graphs[name]
        fused = lg.msbfs_levels(g, self._sources(g))
        # one masked plus.pair mxm per level instead of msbfs's own
        # raw-array path
        monkeypatch.setattr(cost, "MSBFS_FUSE_FRONTIER_K", 0)
        routed, pinned, rules = self._both_ways(
            lambda: lg.msbfs_levels(g, self._sources(g)))
        assert "mxm-small-expand" in rules
        assert routed.isequal(pinned) and routed.isequal(fused)

    @pytest.mark.parametrize("name", ("road", "kron", "islands"))
    def test_triangle_count(self, graphs, name):
        from repro.lagraph.algorithms.tc import triangle_count_basic
        g = graphs[name]
        routed, pinned, rules = self._both_ways(
            lambda: triangle_count_basic(g))
        assert routed == pinned
        # L holds more entries than it has columns on the suite graphs
        # (the O(1) gate); the islands' L fits
        assert ("mxm-small-expand" in rules) == (name == "islands")


class TestSmallExpandRatioGuard:
    """What ``mxm-small-expand`` is for, on the 72 x 72 road grid: the
    slow arm is the same call with the product pinned to ``mxm-scipy``."""

    def test_near_empty_level(self, road_small):
        """One forward BC level — 16 frontier entries, ~64 flops, the
        ``⟨¬s(P), r⟩`` write — with a fresh frontier operand per call, as
        every level of a traversal has (measured 1.69-1.78x over ten runs;
        half of that is below parity, so parity is the floor)."""
        n = road_small.n
        rng = np.random.default_rng(23)
        cols = np.sort(rng.choice(n, 16, replace=False))
        rows = np.repeat(np.arange(4), 4)
        p = grb.Matrix.from_coo(np.arange(4), cols[::4], np.ones(4), 4, n)
        p.set_format("bitmap")
        sr = grb.semiring_by_name("plus.first")

        def level():
            f = grb.Matrix.from_coo(rows, cols, np.full(16, 0.5), 4, n)
            grb.mxm(f, f, road_small.A, sr,
                    mask=grb.complement(grb.structure(p)), replace=True)
            return f

        pinned = engine.force_rule("mxm", "mxm-scipy")(level)
        assert level().isequal(pinned()) and level().nvals
        assert ab_ratio(level, pinned, reps=100) >= 1 / 1.2

    def test_bc_batch(self, road_small):
        """The whole 4-source batch: ~230 such levels (measured 1.19-1.52x
        over ten runs — the pinned arm also skips the plan cache — so parity
        is the floor)."""
        from repro.lagraph.algorithms.bc import betweenness_centrality_batch
        live = np.flatnonzero(np.diff(road_small.A.indptr) > 0)
        srcs = np.random.default_rng(23).choice(live, 4, replace=False)

        def batch():
            return betweenness_centrality_batch(road_small, srcs)

        pinned = engine.force_rule("mxm", "mxm-scipy")(batch)
        assert batch().values.tobytes() == pinned().values.tobytes()
        assert ab_ratio(batch, pinned) >= 1 / 1.2
