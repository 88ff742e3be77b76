"""Masked-SpGEMM benchmarks: what the dot3 engine buys TC and batched BC.

Groups:

``masked-mxm-tc``
    ``sandia_lut`` triangle counting (the Alg. 6 hot path) with the masked
    engine on (cost-model default) vs. fully off (seed behaviour: full
    product + mask write-back).  On the skewed kron graph the chooser
    routes the ``C⟨s(L)⟩ = L plus.pair Uᵀ`` multiply to the dot kernel —
    one neighbourhood intersection per edge instead of the full wedge
    count.
``masked-mxm-tc-kernels``
    The same multiply with each engine leg *forced*: dot kernel vs. the
    SciPy compiled path vs. the expand (gather + sort) kernel — the raw
    kernel-for-kernel ablation behind the chooser's constants.
``masked-mxm-bc``
    Batched betweenness centrality (Alg. 3, 4 sources): the backward
    ``W⟨s(S)⟩`` levels are dot-eligible, the forward ``⟨¬s(P)⟩`` levels get
    the complemented-mask row restriction.

``test_acceptance_masked_tc_3x`` is the acceptance guard from the
masked-SpGEMM issue: the dot kernel must beat the expand-path multiply by
≥ 3× on the kron suite graph (pinned to the ``small`` tier EXPERIMENTS
quotes — at the tiny tier both legs sit in fixed-overhead territory).
Like every wall-clock assert it is disabled under ``REPRO_SKIP_PERF``.
"""

import os

import numpy as np
import pytest

from repro.gap import datasets
from repro.grb.engine import cost
from repro.grb.ops.semiring import Semiring
from repro.lagraph import algorithms as alg
from repro.lagraph.algorithms import bc


def _engine_off(monkeypatch):
    monkeypatch.setattr(cost, "MASKED_MIN_NNZ", float("inf"))


def _force_dot(monkeypatch):
    monkeypatch.setattr(cost, "DOT_PROBE_COST", 0.0)
    monkeypatch.setattr(cost, "DOT_WRITE_COST", 0.0)
    monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)


def _force_expand_kernel(monkeypatch):
    """Route plus-reducible semirings off SciPy onto the expand kernel."""
    monkeypatch.setattr(Semiring, "scipy_reducible", lambda self: False)


@pytest.mark.parametrize("name", ("kron", "urand"))
@pytest.mark.parametrize("engine", ("masked", "off"))
@pytest.mark.benchmark(group="masked-mxm-tc")
def test_tc_sandia_lut(benchmark, suite, name, engine, monkeypatch):
    g = suite[name]
    if engine == "off":
        _engine_off(monkeypatch)
    benchmark(alg.triangle_count, g, method="sandia_lut", presort=None)


@pytest.mark.parametrize("kernel", ("dot", "scipy", "expand"))
@pytest.mark.benchmark(group="masked-mxm-tc-kernels")
def test_tc_kernel_forced(benchmark, suite, kernel, monkeypatch):
    g = suite["kron"]
    if kernel == "dot":
        _force_dot(monkeypatch)
    else:
        _engine_off(monkeypatch)
        if kernel == "expand":
            _force_expand_kernel(monkeypatch)
    benchmark(alg.triangle_count, g, method="sandia_lut", presort=None)


@pytest.mark.parametrize("engine", ("masked", "off"))
@pytest.mark.benchmark(group="masked-mxm-bc")
def test_bc_batch(benchmark, suite, sources, engine, monkeypatch):
    g = suite["kron"]
    srcs = [int(s) for s in sources(g)]
    if engine == "off":
        _engine_off(monkeypatch)
    benchmark(bc.betweenness_centrality_batch, g, srcs)


def test_masked_engine_results_match(suite, monkeypatch):
    """Smoke-level identity: engine on == engine off on the bench inputs
    (the exhaustive property suite lives in tests/grb/test_masked_mxm.py)."""
    g = suite["kron"]
    tc_on = alg.triangle_count(g, method="sandia_lut", presort=None)
    v_on = bc.betweenness_centrality_batch(g, [0, 1, 2, 3])
    _engine_off(monkeypatch)
    assert tc_on == alg.triangle_count(g, method="sandia_lut", presort=None)
    v_off = bc.betweenness_centrality_batch(g, [0, 1, 2, 3])
    np.testing.assert_array_equal(v_on.values, v_off.values)


@pytest.mark.skipif("REPRO_SKIP_PERF" in os.environ,
                    reason="perf assertion disabled (noisy shared runner)")
def test_acceptance_masked_tc_3x(monkeypatch):
    """Acceptance guard: masked-dot TC ≥ 3× expand-path TC on kron.

    The dot kernel exists to stop paying the full wedge count for a
    mask-selective product; on the small-tier kron graph it must beat the
    expand-path multiply (the general-kernel reference that materialises
    every wedge) by at least 3× wall-clock, best-of-3 each, with identical
    counts."""
    import time

    g = datasets.build("kron", "small")
    g.cache_all()

    def best_of(fn, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    _force_expand_kernel(monkeypatch)   # both legs off the compiled path
    _engine_off(monkeypatch)
    tc_expand = alg.triangle_count(g, method="sandia_lut", presort=None)
    t_expand = best_of(
        lambda: alg.triangle_count(g, method="sandia_lut", presort=None))
    _force_dot(monkeypatch)             # re-engages the masked engine
    tc_dot = alg.triangle_count(g, method="sandia_lut", presort=None)
    t_dot = best_of(
        lambda: alg.triangle_count(g, method="sandia_lut", presort=None))
    assert tc_dot == tc_expand
    assert t_expand >= 3.0 * t_dot, \
        f"masked dot {t_dot:.4f}s vs expand {t_expand:.4f}s " \
        f"({t_expand / t_dot:.2f}x < 3x)"
