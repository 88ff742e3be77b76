"""Semantics of the lazy expression layer itself.

Read boundaries force exactly the ready subgraph; explicit ``.new()`` /
``evaluate()`` materialise on demand; a scope that raises discards its
unobserved work; dependencies — including anti-dependencies — keep
program order; the ``lazy`` descriptor bit records outside any scope; and
scopes are context-local, so concurrent threads never capture each
other's calls.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import grb

SR = grb.semiring_by_name("plus.times")


def _fixtures():
    a = grb.Matrix.from_coo([0, 0, 1, 2], [1, 2, 2, 0],
                            [1.0, 2.0, 3.0, 4.0], 3, 3)
    u = grb.Vector.from_coo([0, 1], [1.0, 1.0], 3)
    return a, u


class TestReadBoundaries:
    @pytest.mark.parametrize("read", [
        lambda w: w.nvals,
        lambda w: w.to_coo(),
        lambda w: list(w),
        lambda w: w.get(1),
        lambda w: w.isequal(grb.Vector(grb.FP64, 3)),
        lambda w: w.to_dense(),
        lambda w: w.bitmap(),
        lambda w: w.values,
    ])
    def test_vector_reads_force(self, read):
        a, u = _fixtures()
        w = grb.Vector(grb.FP64, 3)
        with grb.deferred():
            h = grb.mxv(w, a, u, SR)
            assert not h.done
            read(w)
            assert h.done

    @pytest.mark.parametrize("read", [
        lambda c: c.nvals,
        lambda c: c.to_coo(),
        lambda c: list(c),
        lambda c: c.values,
        lambda c: c.isequal(grb.Matrix(grb.FP64, 3, 3)),
    ])
    def test_matrix_reads_force(self, read):
        a, _ = _fixtures()
        c = grb.Matrix(grb.FP64, 3, 3)
        with grb.deferred():
            h = grb.mxm(c, a, a, SR)
            assert not h.done
            read(c)
            assert h.done

    def test_iteration_yields_stored_entries(self):
        a, u = _fixtures()
        w = grb.Vector(grb.FP64, 3)
        with grb.deferred():
            grb.mxv(w, a, u, SR)
            got = list(w)                 # __iter__ is a read boundary
        idx, vals = w.to_coo()
        assert got == list(zip(idx.tolist(), vals.tolist()))
        assert ((0, 1), 1.0) in list(a)   # ((i, j), value) pairs

    def test_scope_exit_flushes_everything(self):
        a, u = _fixtures()
        w = grb.Vector(grb.FP64, 3)
        x = grb.Vector(grb.FP64, 3)
        with grb.deferred() as g:
            grb.mxv(w, a, u, SR)
            grb.mxv(x, a, u, SR)
            assert g.pending == 2
        assert g.pending == 0
        assert w.nvals and x.nvals


class TestExplicitMaterialisation:
    def test_new_returns_output(self):
        a, u = _fixtures()
        w = grb.Vector(grb.FP64, 3)
        with grb.deferred():
            h = grb.mxv(w, a, u, SR)
            assert h.out is w
            out = h.new()
            assert out is w and h.done
            assert h.new() is w           # idempotent

    def test_evaluate_forces_given_objects(self):
        a, u = _fixtures()
        w = grb.Vector(grb.FP64, 3)
        x = grb.Vector(grb.FP64, 3)
        with grb.deferred():
            grb.mxv(w, a, u, SR)
            hx = grb.mxv(x, a, u, SR)
            got = grb.evaluate(w)
            assert got is w
            assert not hx.done            # only w's subgraph ran
            grb.evaluate()                # no args: flush everything
            assert hx.done

    def test_lazy_descriptor_records_outside_scope(self):
        a, u = _fixtures()
        w = grb.Vector(grb.FP64, 3)
        h = grb.vxm(w, u, a, SR, desc=grb.DESC_LAZY)
        assert isinstance(h, grb.Deferred) and not h.done
        assert w.nvals >= 0               # read boundary materialises
        assert h.done

    def test_forcing_only_ready_subgraph(self):
        """Forcing one output runs its dependency chain, not unrelated
        pending work."""
        a, u = _fixtures()
        w = grb.Vector(grb.FP64, 3)
        x = grb.Vector(grb.FP64, 3)
        y = grb.Vector(grb.FP64, 3)
        with grb.deferred():
            hw = grb.mxv(w, a, u, SR)          # independent
            hx = grb.mxv(x, a, u, SR)
            hy = grb.ewise_add(y, x, x, grb.binary.PLUS)  # depends on x
            y.nvals
            assert hy.done and hx.done and not hw.done


class TestOrdering:
    def test_anti_dependency(self):
        """A write recorded after a read must not run before it."""
        a, u = _fixtures()
        w = grb.Vector(grb.FP64, 3)
        with grb.deferred():
            grb.mxv(w, a, u, SR)               # writes w
            x = grb.Vector(grb.FP64, 3)
            grb.ewise_add(x, w, w, grb.binary.PLUS)   # reads w
            grb.assign_scalar(w, 9.0)          # overwrites w afterwards
            # forcing the *overwrite* must run the read first
            assert w.to_dense().tolist() == [9.0, 9.0, 9.0]
        ref = grb.Vector(grb.FP64, 3)
        grb.mxv(ref, a, u, SR)
        np.testing.assert_array_equal(x.to_dense(), 2 * ref.to_dense())

    def test_eager_mutation_of_recorded_operand(self):
        """Mutating an operand a recorded call has read must flush that
        reader first — the recorded op computes against the pre-mutation
        state, exactly as blocking mode would."""
        a, u = _fixtures()
        ref = grb.Vector(grb.FP64, 3)
        grb.mxv(ref, a, u, SR)
        w = grb.Vector(grb.FP64, 3)
        with grb.deferred():
            h = grb.mxv(w, a, u, SR)
            u[0] = 100.0                  # mutation boundary: forces h
            assert h.done
        np.testing.assert_array_equal(w.to_dense(), ref.to_dense())
        # matrix operands too (setitem stages, but the reader runs first)
        u2 = grb.Vector.from_coo([0, 1], [1.0, 1.0], 3)
        ref2 = grb.Vector(grb.FP64, 3)
        grb.mxv(ref2, a, u2, SR)
        w2 = grb.Vector(grb.FP64, 3)
        with grb.deferred():
            h2 = grb.mxv(w2, a, u2, SR)
            a[0, 0] = 50.0
            assert h2.done
        np.testing.assert_array_equal(w2.to_dense(), ref2.to_dense())

    def test_eager_write_runs_a_pending_vector_reader_first(self):
        """An eager operation writing an object a recorded call reads is a
        mutation boundary too: the reader sees the content it was
        recorded against, not the overwrite."""
        u = grb.Vector.from_coo([0, 1], [1.0, 2.0], 4)
        w = grb.Vector(grb.FP64, 4)
        h = grb.ewise_add(w, u, u, grb.binary.PLUS, desc=grb.DESC_LAZY)
        grb.assign_scalar(u, 100.0, [0, 1, 2, 3])
        assert h.done
        idx, vals = w.to_coo()
        assert idx.tolist() == [0, 1] and vals.tolist() == [2.0, 4.0]
        assert u.to_dense().tolist() == [100.0] * 4

    def test_eager_write_runs_a_pending_matrix_reader_first(self):
        a, _ = _fixtures()
        ref = a.dup()
        a2 = grb.Matrix.from_coo([2], [2], [7.0], 3, 3)
        c = grb.Matrix(grb.FP64, 3, 3)
        grb.apply(c, a, grb.unary.IDENTITY, desc=grb.DESC_LAZY)
        grb.ewise_add(a, a2, a2, grb.binary.PLUS)
        assert c.isequal(ref)
        assert a.to_coo()[2].tolist() == [14.0]

    def test_eager_write_runs_a_pending_mask_reader_first(self):
        """A recorded call reads its mask object: overwriting the mask
        eagerly must not widen what the call was allowed to write."""
        _, u = _fixtures()
        m = grb.Vector.from_coo([0], [1.0], 3)
        w = grb.Vector(grb.FP64, 3)
        grb.apply(w, u, grb.unary.IDENTITY, mask=grb.structure(m),
                  desc=grb.DESC_LAZY)
        grb.assign_scalar(m, 1.0, [0, 1, 2])
        assert w.to_coo()[0].tolist() == [0]
        assert m.nvals == 3

    def test_ambient_graph_compacts_after_force(self):
        """DESC_LAZY one-shots must not accumulate done nodes in the
        ambient graph (a long-running process would leak plans)."""
        from repro.grb.expr import _ambient

        a, u = _fixtures()
        for _ in range(5):
            w = grb.Vector(grb.FP64, 3)
            grb.mxv(w, a, u, SR, desc=grb.DESC_LAZY)
            w.nvals                        # force through the read boundary
        assert len(_ambient()._nodes) == 0

    def test_unsupported_descriptor_transpose_raises(self):
        a, u = _fixtures()
        w = grb.Vector(grb.FP64, 3)
        with pytest.raises(grb.InvalidValue):
            grb.mxv(w, a, u, SR, desc=grb.DESC_T0)
        # mxm honours them
        c = grb.Matrix(grb.FP64, 3, 3)
        grb.mxm(c, a, a, SR, desc=grb.DESC_T1)
        ref = grb.Matrix(grb.FP64, 3, 3)
        grb.mxm(ref, a, a, SR, transpose_b=True)
        assert c.isequal(ref)

    def test_setitem_and_clear_sequence_with_pending(self):
        a, u = _fixtures()
        w = grb.Vector(grb.FP64, 3)
        with grb.deferred():
            grb.mxv(w, a, u, SR)
            w[0] = 42.0                   # sequential: producer first
        assert w.get(0) == 42.0
        x = grb.Vector(grb.FP64, 3)
        with grb.deferred():
            grb.mxv(x, a, u, SR)
            x.clear()                     # producer's effect then cleared
        assert x.nvals == 0

    def test_scope_exception_discards_pending(self):
        a, u = _fixtures()
        w = grb.Vector(grb.FP64, 3)
        with pytest.raises(RuntimeError):
            with grb.deferred():
                h = grb.mxv(w, a, u, SR)
                raise RuntimeError("boom")
        assert w.nvals == 0 and not h.done     # never executed

    def test_nested_scopes_join(self):
        a, u = _fixtures()
        w = grb.Vector(grb.FP64, 3)
        with grb.deferred() as outer:
            with grb.deferred() as inner:
                assert inner is outer
                h = grb.mxv(w, a, u, SR)
            assert not h.done             # inner exit is not a boundary
        assert h.done


class TestContextLocality:
    def test_scopes_do_not_leak_across_threads(self):
        a, u = _fixtures()
        seen = {}

        def other():
            w = grb.Vector(grb.FP64, 3)
            out = grb.mxv(w, a, u, SR)    # no scope in this thread: eager
            seen["eager"] = not isinstance(out, grb.Deferred)

        with grb.deferred():
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert seen["eager"]
