"""The in-place (delta) write-back against the rebuild it replaces.

A write-back that can only touch entries it names scatters them into a
writable bitmap output instead of rebuilding the store
(``engine.writeback._transact``).  The contract is bit-identity with the
rebuild path and unchanged snapshot semantics for everything handed out
before the write:

* a hypothesis suite drives random operation sequences into a
  bitmap-pinned output and its csr-pinned twin (the csr twin can only
  ever rebuild) and compares them after every step;
  (values are drawn from -2..2; ``TestCastChain`` adds the integers
  the float round-trips cannot hold);
* directed cases pin the aliasing rules — output as operand or mask,
  ``dup()`` / ``bitmap()`` snapshots, the ownership predicate (frozen,
  exported and foreign-view buffers rebuild) — and the output's read
  boundary: what was staged for an output lands before a write-back, also
  one that never reads the old content (both twins skip that read, so
  these compare against spelled-out expectations, not against each
  other);
* a ``Vector`` handed to a select predicate as its thunk is the read
  that does *not* export: it sees the vector as it is when the predicate
  runs and leaves the vector writable in place;
* an un-skipped in-process ratio guard holds the speed claim.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import ab_ratio, store_bytes
from repro import grb, obs
from repro.grb import engine
from repro.lagraph.algorithms.sssp import _IMPROVES_VEC
from repro.obs import memory

DTYPES = (np.int64, np.float64, np.bool_)
ACCUMS = (None, grb.binary.PLUS, grb.binary.MIN, grb.binary.SECOND)
PLUS_TIMES = grb.semiring_by_name("plus.times")


# ---------------------------------------------------------------------------
# strategies: one random object, one random step
# ---------------------------------------------------------------------------

@st.composite
def _entries(draw, nkeys, dtype):
    """(keys, values) over ``range(nkeys)`` — zeros are explicit entries."""
    n = draw(st.integers(0, nkeys))
    keys = np.array(sorted(draw(st.permutations(range(nkeys)))[:n]),
                    dtype=np.int64)
    vals = np.array(draw(st.lists(st.integers(-2, 2), min_size=n,
                                  max_size=n)), dtype=dtype)
    return keys, vals


def _matrix(keys, vals, nrows, ncols, fmt):
    m = grb.Matrix.from_coo(keys // ncols, keys % ncols, vals, nrows, ncols,
                            typ=vals.dtype)
    return m.set_format(fmt)


def _vector(keys, vals, size, fmt):
    return grb.Vector.from_coo(keys, vals, size,
                               typ=vals.dtype).set_format(fmt)


@st.composite
def _steps(draw, nkeys, kinds):
    """A list of step descriptions; objects are built by the test."""
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        steps.append({
            "kind": draw(st.sampled_from(kinds)),
            "t": draw(_entries(nkeys, draw(st.sampled_from(DTYPES)))),
            "t_fmt": draw(st.booleans()),            # bitmap operand?
            "t_is_out": draw(st.integers(0, 5)) == 0,
            "mask": draw(st.sampled_from(
                ("none", "other", "other", "out"))),
            "m": draw(_entries(nkeys, draw(st.sampled_from(DTYPES)))),
            "m_fmt": draw(st.booleans()),
            "structural": draw(st.booleans()),
            "complemented": draw(st.booleans()),
            "accum": draw(st.sampled_from(ACCUMS)),
            "replace": draw(st.booleans()),
            "region": draw(st.lists(st.integers(0, 64), max_size=4)),
            "scalar": draw(st.integers(-2, 2)),
        })
    return steps


def _mask(step, out, build):
    if step["mask"] == "none":
        return None
    obj = out if step["mask"] == "out" else build(
        *step["m"], "bitmap" if step["m_fmt"] else None)
    m = grb.structure(obj) if step["structural"] else grb.Mask(obj)
    return grb.complement(m) if step["complemented"] else m


def _shared_step(kind, out, t, kw) -> bool:
    """The step kinds that read the same for matrices and vectors."""
    if kind == "update":
        grb.update(out, t, **kw)
    elif kind == "ewise_add":
        grb.ewise_add(out, out, t, grb.binary.PLUS, **kw)
    elif kind == "ewise_mult":
        grb.ewise_mult(out, t, out, grb.binary.TIMES, **kw)
    else:
        return False
    return True


def _check_twins(bm, ref, ctx):
    """The bitmap output equals its csr twin, and its store is sound."""
    assert bm.isequal(ref), ctx
    assert bm.dtype == ref.dtype, ctx
    assert bm.format == "bitmap" and ref.format != "bitmap", ctx
    store = bm._store
    assert store.nvals == int(store.present.sum()) == ref.nvals, ctx
    # absent positions carry 0: the dense matvec paths multiply through
    assert not store.dense[~store.present].any(), ctx
    # the exported footprint gauge is the live stores' nbytes(), in-place
    # writes included
    owners = memory._owners()     # held: none can die during the read
    exported = obs.json_snapshot()["metrics"]["grb_store_bytes"]["samples"]
    assert sum(s["value"] for s in exported) == store_bytes(owners), ctx


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

class TestTwinSequences:
    """Random transactions into a bitmap output and its csr twin."""

    @given(data=st.data())
    @settings(max_examples=60)
    def test_matrix(self, data):
        nrows = data.draw(st.integers(1, 5))
        ncols = data.draw(st.integers(1, 6))
        nkeys = nrows * ncols
        dtype = data.draw(st.sampled_from(DTYPES))

        def build(keys, vals, fmt):
            return _matrix(keys, vals, nrows, ncols, fmt or "csr")

        init = data.draw(_entries(nkeys, dtype))
        bm, ref = build(*init, "bitmap"), build(*init, "csr")
        kinds = ("update", "ewise_add", "ewise_mult", "mxm", "assign",
                 "assign_scalar")
        for i, step in enumerate(data.draw(_steps(nkeys, kinds))):
            for out in (bm, ref):
                t = out if step["t_is_out"] else build(
                    *step["t"], "bitmap" if step["t_fmt"] else None)
                kw = dict(mask=_mask(step, out, build),
                          accum=step["accum"], replace=step["replace"])
                kind = step["kind"]
                if _shared_step(kind, out, t, kw):
                    pass
                elif kind == "mxm":
                    grb.mxm(out, t, _square(step, ncols), PLUS_TIMES, **kw)
                elif kind == "assign":
                    rows = sorted({r % nrows for r in step["region"]})
                    sub = t.extract(rows, range(ncols))
                    grb.assign(out, sub, (rows, None), **kw)
                else:
                    rows = sorted({r % nrows for r in step["region"]})
                    grb.assign_scalar(out, step["scalar"],
                                      (rows or None, None), **kw)
            _check_twins(bm, ref, f"step {i}: {step}")

    @given(data=st.data())
    @settings(max_examples=60)
    def test_vector(self, data):
        size = data.draw(st.integers(1, 24))
        dtype = data.draw(st.sampled_from(DTYPES))

        def build(keys, vals, fmt):
            return _vector(keys, vals, size, fmt or "sparse")

        init = data.draw(_entries(size, dtype))
        bm, ref = build(*init, "bitmap"), build(*init, "sparse")
        kinds = ("update", "ewise_add", "ewise_mult", "vxm", "assign",
                 "assign_scalar")
        for i, step in enumerate(data.draw(_steps(size, kinds))):
            for out in (bm, ref):
                t = out if step["t_is_out"] else build(
                    *step["t"], "bitmap" if step["t_fmt"] else None)
                kw = dict(mask=_mask(step, out, build),
                          accum=step["accum"], replace=step["replace"])
                kind = step["kind"]
                if _shared_step(kind, out, t, kw):
                    pass
                elif kind == "vxm":
                    grb.vxm(out, t, _square(step, size), PLUS_TIMES, **kw)
                elif kind == "assign":
                    idx = sorted({r % size for r in step["region"]})
                    sub = grb.Vector(t.type, len(idx))
                    grb.extract(sub, t, idx)
                    grb.assign(out, sub, idx, **kw)
                else:
                    idx = sorted({r % size for r in step["region"]})
                    grb.assign_scalar(out, step["scalar"], idx or None, **kw)
            _check_twins(bm, ref, f"step {i}: {step}")


def _square(step, n):
    """The step's mask entries re-read as an ``n × n`` multiplier."""
    keys, vals = step["m"]
    keep = keys < n * n
    return _matrix(keys[keep], vals[keep], n, n, "csr")


# ---------------------------------------------------------------------------
# directed cases
# ---------------------------------------------------------------------------

NROWS, NCOLS = 4, 6


def _dense(seed, density=0.5, dtype=np.float64):
    rng = np.random.default_rng(seed)
    keep = rng.random((NROWS, NCOLS)) < density
    return keep, (rng.integers(-3, 4, (NROWS, NCOLS)) * keep).astype(dtype)


def _twins(seed=0):
    keep, vals = _dense(seed)
    r, c = np.nonzero(keep)
    bm = grb.Matrix.from_coo(r, c, vals[r, c], NROWS, NCOLS)
    return bm.dup().set_format("bitmap"), bm.set_format("csr")


def _other(seed, fmt="csr", density=0.3):
    keep, vals = _dense(seed, density)
    r, c = np.nonzero(keep)
    return grb.Matrix.from_coo(r, c, vals[r, c], NROWS, NCOLS).set_format(fmt)


def _write_deltas(fn):
    """The ``delta`` attribute of every ``write`` span ``fn`` opens."""
    with obs.tracing() as tr:
        fn()
    return [r["args"]["delta"] for r in tr.find("write")]


class TestAliasing:
    def test_store_is_kept_and_caches_dropped(self):
        bm, ref = _twins()
        store, version = bm._store, bm.store_version
        stale = bm.values                      # a derived CSR cache
        for out in (bm, ref):
            grb.update(out, _other(1), accum=grb.binary.PLUS)
        assert bm._store is store and bm.store_version > version
        assert bm.values is not stale
        _check_twins(bm, ref, "accumulate")

    @pytest.mark.parametrize("accum", ACCUMS)
    def test_output_is_an_operand(self, accum):
        bm, ref = _twins()
        for out in (bm, ref):
            grb.update(out, out, accum=accum, mask=grb.structure(_other(2)))
            grb.ewise_mult(out, out, _other(3, "bitmap"), grb.binary.TIMES,
                           accum=grb.binary.PLUS)
            grb.ewise_mult(out, _other(4), out, grb.binary.MINUS,
                           accum=accum, mask=_other(5))
        _check_twins(bm, ref, f"accum={accum}")

    @pytest.mark.parametrize("structural", (True, False))
    @pytest.mark.parametrize("complemented", (True, False))
    @pytest.mark.parametrize("accum", (None, grb.binary.PLUS))
    def test_output_is_its_own_mask(self, structural, complemented, accum):
        bm, ref = _twins()
        for out in (bm, ref):
            m = grb.structure(out) if structural else grb.Mask(out)
            grb.update(out, _other(6, density=0.6), accum=accum,
                       mask=grb.complement(m) if complemented else m)
        _check_twins(bm, ref, (structural, complemented, accum))

    def test_dup_taken_before_a_write_keeps_the_old_content(self):
        bm, ref = _twins()
        before = bm.dup()
        grb.update(bm, _other(1), accum=grb.binary.PLUS)
        assert before.isequal(ref) and not bm.isequal(ref)

    def test_bitmap_taken_before_a_write_keeps_the_old_content(self):
        v = grb.Vector.from_dense(np.arange(8.0)).set_format("bitmap")
        t = grb.Vector.from_coo([1, 5], [10.0, 10.0], 8)
        present, dense = v.bitmap()
        held = present.copy(), dense.copy()
        store = v._store
        assert _write_deltas(
            lambda: grb.update(v, t, accum=grb.binary.PLUS)) == [False]
        np.testing.assert_array_equal(present, held[0])
        np.testing.assert_array_equal(dense, held[1])
        assert v._store is not store and v[5] == 15.0
        # the rebuilt store was handed to nobody: written in place again
        assert _write_deltas(
            lambda: grb.update(v, t, accum=grb.binary.PLUS)) == [True]
        assert v[5] == 25.0

    def test_sssp_thunks_read_pre_merge_distances(self):
        # sssp_delta_stepping / sssp_bellman_ford hand ``t.bitmap()`` to an
        # improvement filter as its thunk and min-merge into ``t``; the
        # filter must see the distances as they were when the thunk was
        # taken — also when the merge is an accumulate (the transaction
        # the in-place path takes) and lands before the filter runs
        n = 8
        t = grb.Vector.from_dense(np.full(n, 9.0)).set_format("bitmap")
        req = grb.Vector.from_coo([2, 3], [1.0, 20.0], n)
        nxt = grb.Vector(grb.FP64, n)
        thunk = t.bitmap()
        grb.update(t, req, accum=grb.binary.MIN)
        grb.select(nxt, req, _IMPROVES_VEC, thunk)
        assert nxt.to_coo()[0].tolist() == [2]      # 1 < 9; 20 is not
        assert t[2] == 1.0 and t[3] == 9.0


class TestWriteBoundary:
    """A write-back is a read boundary of its output: staged ``setElement``
    calls land *before* it — also when the transaction never looks at the
    old content."""

    T = {(1, 1): 2.0, (2, 3): 4.0}

    @staticmethod
    def _of(entries, fmt="csr", typ=grb.FP64):
        m = grb.Matrix(typ, NROWS, NCOLS).set_format(fmt)
        for (i, j), v in entries.items():
            m[i, j] = v
        m.nvals                                # flush: nothing left staged
        return m

    @staticmethod
    def _content(m):
        r, c, v = m.to_coo()
        return dict(zip(zip(r.tolist(), c.tolist()), v.tolist()))

    DEAD = {
        "update": lambda c, t, m: grb.update(c, t),
        "update-replace": lambda c, t, m: grb.update(
            c, t, mask=grb.structure(m), replace=True),
        "apply": lambda c, t, m: grb.apply(c, t, grb.unary.IDENTITY),
        "transpose": lambda c, t, m: grb.transpose(c, t.transpose()),
        "mxm": lambda c, t, m: grb.mxm(
            c, t, grb.Matrix.from_dense(np.eye(NCOLS)), PLUS_TIMES),
        "assign": lambda c, t, m: grb.assign(c, t, None),
    }

    @pytest.mark.parametrize("fmt", ("csr", "bitmap"))
    @pytest.mark.parametrize("kind", sorted(DEAD))
    def test_staged_set_element_does_not_outlive_an_overwrite(self, fmt,
                                                              kind):
        c = self._of({(3, 3): 1.0}, fmt)
        c[0, 0] = 5.0                          # staged, then overwritten
        self.DEAD[kind](c, self._of(self.T), self._of(self.T))
        assert self._content(c) == self.T
        assert c.format == fmt

    @pytest.mark.parametrize("fmt", ("csr", "bitmap"))
    def test_staged_set_element_is_seen_by_a_write_that_keeps_content(
            self, fmt):
        c = self._of({(3, 3): 1.0}, fmt)
        c[0, 0] = 5.0
        c[1, 1] = 1.0
        grb.update(c, self._of(self.T), accum=grb.binary.PLUS)
        assert self._content(c) == {(0, 0): 5.0, (1, 1): 3.0, (2, 3): 4.0,
                                    (3, 3): 1.0}


class TestCastChain:
    """Values beyond what the hypothesis suite draws: where the merge's
    promoted dtype cannot hold them, the two paths must still round the
    entries they write the same way."""

    BIG = 2 ** 53 + 2 ** 29 + 1     # int64 -> fp32 differs via fp64

    @pytest.mark.parametrize("stored", ({}, {(0, 0): 1.0}))
    def test_written_entries_round_like_the_rebuild(self, stored):
        t = TestWriteBoundary._of({(1, 1): self.BIG}, typ=grb.INT64)
        outs = []
        for fmt in ("bitmap", "csr"):
            c = TestWriteBoundary._of(stored, fmt, grb.FP32)
            grb.update(c, t, accum=grb.binary.PLUS)
            outs.append(c)
        assert outs[0].values.tobytes() == outs[1].values.tobytes()
        assert outs[0].isequal(outs[1])

    def test_entries_not_written_are_not_touched(self):
        # the rebuild carries them through float64 and back (2**53 + 1 is
        # not a float64); in place they are simply left alone
        c = TestWriteBoundary._of({(0, 0): 2 ** 53 + 1}, "bitmap", grb.INT64)
        t = TestWriteBoundary._of({(1, 1): 0.5})
        assert _write_deltas(
            lambda: grb.update(c, t, accum=grb.binary.PLUS)) == [True]
        assert int(c[0, 0]) == 2 ** 53 + 1


class TestOwnership:
    """Which transactions, into which stores, are written in place."""

    @staticmethod
    def _accumulate(out):
        return _write_deltas(
            lambda: grb.update(out, _other(1), accum=grb.binary.PLUS))

    def test_transaction_shapes(self):
        plus, t = grb.binary.PLUS, _other(1)
        m = grb.structure(_other(2))
        shapes = {
            (plus, None, False): True, (plus, m, False): True,
            (plus, grb.complement(m), False): True,
            (None, m, False): True,
            (None, grb.complement(m), False): False,   # names ¬M: the grid
            (None, None, False): False,                # C = T wholesale
            (plus, m, True): False, (None, m, True): False,
        }
        for (accum, mask, replace), delta in shapes.items():
            bm, ref = _twins()
            got = _write_deltas(lambda: grb.update(
                bm, t, accum=accum, mask=mask, replace=replace))
            grb.update(ref, t, accum=accum, mask=mask, replace=replace)
            assert got == [delta], (accum, mask, replace)
            _check_twins(bm, ref, (accum, mask, replace))

    def test_sparse_output_rebuilds(self):
        assert self._accumulate(_twins()[1]) == [False]

    @pytest.mark.parametrize("buffer", ("present", "dense"))
    def test_frozen_buffer_rebuilds(self, buffer):
        bm, ref = _twins()
        getattr(bm._store, buffer).flags.writeable = False
        frozen = bm._store
        assert self._accumulate(bm) == [False]
        self._accumulate(ref)
        assert bm._store is not frozen
        _check_twins(bm, ref, buffer)

    def test_view_of_a_callers_array_is_not_owned(self):
        bm, _ = _twins()
        st_ = bm._store
        grid = np.zeros((NROWS, NCOLS))
        bm._store = type(st_)(NROWS, NCOLS, st_.present.copy(),
                              grid.reshape(-1))
        assert not bm._store.writable()

    def test_auto_format_rereads_the_density_policy(self):
        full = grb.Matrix.from_dense(np.ones((NROWS, NCOLS)))
        assert full.format == "bitmap" and full.format_pin == "auto"
        # C⟨s(M)⟩ = ∅ erases every entry M names: below the density line
        assert _write_deltas(lambda: grb.update(
            full, grb.Matrix(grb.FP64, NROWS, NCOLS),
            mask=grb.structure(full.dup()))) == [True]
        assert full.nvals == 0 and full.format == "csr"


class TestVectorThunk:
    """``select(..., thunk=t)`` with ``t`` a Vector: the predicate gets
    ``t``'s ``(present, dense)`` as they are when it runs (the SSSP
    relaxations filter against the distances they are about to merge
    into), through a read that marks nothing exported."""

    N = 8
    MIN = grb.binary.MIN

    def _objects(self, fmt="bitmap"):
        t = grb.Vector.from_dense(np.full(self.N, 9.0)).set_format(fmt)
        req = grb.Vector.from_coo([2, 3], [1.0, 20.0], self.N)
        return t, req, grb.Vector(grb.FP64, self.N)

    @staticmethod
    def _improving(nxt):
        return nxt.to_coo()[0].tolist()

    SELECTS = {
        "operation": lambda nxt, req, t: grb.select(nxt, req, _IMPROVES_VEC,
                                                    t),
        "method": lambda nxt, req, t: grb.update(
            nxt, req.select(_IMPROVES_VEC, t), replace=True),
        "epilogue": lambda nxt, req, t: engine.execute(
            engine.plan_apply(nxt, req, grb.unary.IDENTITY, replace=True)
                  .then_select(_IMPROVES_VEC, t)),
    }

    @pytest.mark.parametrize("fused", (True, False))
    @pytest.mark.parametrize("how", sorted(SELECTS))
    def test_eager_read_sees_the_state_at_call_time(self, how, fused,
                                                    monkeypatch):
        monkeypatch.setattr(engine.cost, "FUSION_ENABLED", fused)
        t, req, nxt = self._objects()
        self.SELECTS[how](nxt, req, t)
        assert self._improving(nxt) == [2]           # 1 < 9; 20 is not
        # the read exported nothing: the merge lands in place ...
        assert _write_deltas(
            lambda: grb.update(t, req, accum=self.MIN)) == [True]
        # ... and the next read sees it (1 < 1 is no improvement)
        self.SELECTS[how](nxt, req, t)
        assert self._improving(nxt) == []

    @pytest.mark.parametrize("how", ("sparse", "exported", "frozen"))
    def test_store_that_may_not_be_written_reads_right_and_rebuilds(
            self, how):
        t, req, nxt = self._objects("sparse" if how == "sparse" else "bitmap")
        if how == "exported":
            t.bitmap()
        elif how == "frozen":
            t._store.dense.flags.writeable = False
        held = t._store
        grb.select(nxt, req, _IMPROVES_VEC, t)
        assert self._improving(nxt) == [2]
        assert _write_deltas(
            lambda: grb.update(t, req, accum=self.MIN)) == [False]
        assert t._store is not held
        grb.select(nxt, req, _IMPROVES_VEC, t)   # reads the new store
        assert self._improving(nxt) == [] and t[2] == 1.0

    def test_result_is_not_a_deterministic_derivation(self):
        # same source version, same op, same thunk *object* — different
        # thunk content: an operand key must never name them alike
        def key(x):
            return x._uid, x.store_version    # the masked-dot memo's key

        t, req, _ = self._objects()
        first = req.select(_IMPROVES_VEC, t)
        grb.update(t, req, accum=self.MIN)
        second = req.select(_IMPROVES_VEC, t)
        assert key(first) != key(second)
        assert not first.isequal(second)
        rows = grb.selectops.SelectOp("__test_row_flagged",
                                      lambda v, i, j, k: k[0][i])
        flags = grb.Vector.from_coo([1], [True], NROWS)
        m = _other(1)
        assert key(m.select(rows, flags)) != key(m.select(rows, flags))


# ---------------------------------------------------------------------------
# in-process A/B ratio guard (helpers.ab_ratio)
# ---------------------------------------------------------------------------

class TestDeltaRatioGuard:
    """The delta path against the rebuild path on one accumulate, the
    rebuild arm chosen by the real ownership predicate (its ``dense``
    buffer is marked read-only before each call), not by a switch.  Only
    the ratio is asserted."""

    @staticmethod
    def _speedup(t_nvals, reps, rng):
        ns, n = 4, 5184                          # a road-small BC batch
        t_keys = np.sort(rng.choice(ns * n, t_nvals, replace=False))
        t = grb.Matrix.from_coo(t_keys // n, t_keys % n,
                                rng.random(t_nvals), ns, n)
        t.keys()                                  # warm the key cache
        in_place, rebuilt = (
            grb.Matrix.from_dense(np.ones((ns, n))).set_format("bitmap")
            for _ in range(2))

        def delta():
            assert in_place._writable_bitmap() is not None
            grb.update(in_place, t, accum=grb.binary.PLUS)

        def rebuild():
            rebuilt._store.dense.flags.writeable = False
            assert rebuilt._writable_bitmap() is None
            grb.update(rebuilt, t, accum=grb.binary.PLUS)

        ratio = ab_ratio(delta, rebuild, reps)
        assert in_place.isequal(rebuilt)
        return ratio

    def test_frontier_sized_accumulate(self, rng):
        # P += F on a road level: 64 entries into 4 x 5184 (measured ~12x)
        assert self._speedup(64, 20, rng) >= 3.0

    def test_grid_sized_accumulate_holds_parity(self, rng):
        # T covers the whole grid: nothing to save, nothing may be lost
        assert self._speedup(4 * 5184, 5, rng) >= 1 / 1.2
