"""The extended ``mxv-fused-dense-accum`` rule (ROADMAP Open item 1).

``times``/``first`` multiplies may take the fused dense-accumulate path
when every stored matrix value is finite (``values_all_finite``): the
fused form adds the *full* dense product, whose off-structure positions
are ``a_ij · 0`` sums — exactly 0 for finite terms, NaN for ``±inf · 0``.
The suite pins: bit-identity against the decomposed reference for the
newly fused semirings, the rule *declining* when an ``inf`` is stored
(and the decomposed path remaining correct), and the guard's cache dying
with the store version.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import grb, obs
from repro.grb import engine
from repro.grb.engine import cost


@pytest.fixture
def rng():
    return np.random.default_rng(21)


def _dense_setup(rng, n=30, density=0.4, a_vals=None):
    dense = (rng.random((n, n)) < density) * rng.integers(1, 5, (n, n))
    r, c = np.nonzero(dense)
    vals = dense[r, c].astype(np.float64) if a_vals is None \
        else a_vals(r.size)
    a = grb.Matrix.from_coo(r, c, vals, n, n)
    u = grb.Vector.from_dense(rng.integers(1, 4, n).astype(np.float64))
    return a, u


def _run(a, u, sr_name, fused: bool):
    n = a.nrows
    w = grb.Vector(grb.FP64, n)
    grb.assign_scalar(w, 0.25)            # full output: the rule's regime
    old = cost.FUSION_ENABLED
    cost.FUSION_ENABLED = fused
    try:
        with obs.tracing() as trace:
            grb.mxv(w, a, u, grb.semiring_by_name(sr_name),
                    accum=grb.binary.PLUS)
    finally:
        cost.FUSION_ENABLED = old
    return w, [e["rule"] for e in trace.decisions("mxv")]


@pytest.mark.parametrize("sr", ("plus.times", "plus.first", "plus.second",
                                "plus.pair"))
def test_fused_equals_decomposed(rng, sr):
    a, u = _dense_setup(rng)
    w_f, rules_f = _run(a, u, sr, fused=True)
    w_d, rules_d = _run(a, u, sr, fused=False)
    assert rules_f == ["mxv-fused-dense-accum"], sr
    assert rules_d != ["mxv-fused-dense-accum"], sr
    np.testing.assert_array_equal(w_f.indices, w_d.indices)
    np.testing.assert_array_equal(w_f.values, w_d.values)


def test_values_all_finite_guard(rng):
    a, u = _dense_setup(rng)
    assert a.values_all_finite()
    # integer matrices are finite by construction
    ai = grb.Matrix.from_coo([0], [1], [3], 2, 2)
    assert ai.values_all_finite()
    # cache dies with the store version
    a[0, 1] = np.inf
    assert not a.values_all_finite()
    a[0, 1] = 1.0
    assert a.values_all_finite()


def test_inf_operand_declines_and_reference_agrees(rng):
    """A stored ±inf is exactly the ``inf·0`` NaN edge: the fused rule
    must decline, and the decomposed result (which the rule would have
    had to match) keeps untouched positions NaN-free."""
    a, u = _dense_setup(
        rng, a_vals=lambda k: np.full(k, np.inf))
    w_f, rules_f = _run(a, u, "plus.times", fused=True)
    w_d, rules_d = _run(a, u, "plus.times", fused=False)
    assert "mxv-fused-dense-accum" not in rules_f
    np.testing.assert_array_equal(w_f.indices, w_d.indices)
    np.testing.assert_array_equal(w_f.values, w_d.values)
    # the full output stayed full and finite where A has no row entries
    counts = np.diff(a.indptr)
    empty_rows = np.flatnonzero(counts == 0)
    if empty_rows.size:
        assert np.isfinite(w_f.to_dense()[empty_rows]).all()


def test_second_never_needed_the_guard(rng):
    """The pattern-side case keeps working with inf values present —
    ``second`` never reads the matrix values."""
    a, u = _dense_setup(rng, a_vals=lambda k: np.full(k, np.inf))
    w_f, rules_f = _run(a, u, "plus.second", fused=True)
    w_d, _ = _run(a, u, "plus.second", fused=False)
    assert rules_f == ["mxv-fused-dense-accum"]
    np.testing.assert_array_equal(w_f.values, w_d.values)


def test_update_rule_is_registered_reference():
    rules = engine.rules_for("update")
    assert [r.name for r in rules] == ["update-write"]
