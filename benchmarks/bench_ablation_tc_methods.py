"""Ablation — triangle-counting method catalogue (Alg. 6 design choices).

Times all six LAGraph TC methods plus the presort on/off choice, on the
skewed Kron graph where the ascending-degree permutation matters most.

``test_tc_chooser_mispredictions`` additionally replays every method
under ``obs.tracing()`` + ``obs.profiling()`` and reports how often the
masked-SpGEMM chooser picked the slower path (judged against the *exact*
work counts the decision records carry under deep profiling) —
mispredictions surface in the test output instead of hiding as silent
slow paths.
"""

import pytest

from repro import obs
from repro.grb.engine import cost
from repro.lagraph import algorithms as alg
from repro.lagraph.algorithms.tc import METHODS


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.benchmark(group="ablation-tc-methods")
def test_tc_method(benchmark, suite, method):
    g = suite["kron"]
    benchmark(alg.triangle_count, g, method=method, presort=None)


@pytest.mark.parametrize("presort", [None, "ascending", "descending"])
@pytest.mark.benchmark(group="ablation-tc-presort")
def test_tc_presort(benchmark, suite, presort):
    g = suite["kron"]
    benchmark(alg.triangle_count, g, method="sandia_lut", presort=presort)


def _judged(event):
    """Re-judge a chooser decision against the exact counts it recorded."""
    ideal = cost.choose_masked_method(
        event["dot_probes"], event["expand_flops"],
        scipy_path=event["scipy_path"], mask_nvals=event["mask_nvals"],
        est_out_nnz=event["est_out_nnz"])
    return {**event, "ideal": ideal,
            "mispredicted": event["method"] != ideal}


def test_tc_chooser_mispredictions(suite, monkeypatch, capsys):
    """Report (never fail on) chooser mispredictions across all methods.

    A misprediction here means the *sampled* flop estimate steered the
    chooser differently than the exact flop count would have — the cost of
    sampling, made visible.  The event schema itself is asserted."""
    monkeypatch.setattr(cost, "MASKED_MIN_NNZ", 0)   # observe every decision
    g = suite["kron"]
    with obs.tracing() as trace, obs.profiling():
        for method in METHODS:
            alg.triangle_count(g, method=method, presort=None)
    # every dispatch records a decision; the chooser records are the mxm
    # ones carrying the probe/flop analysis
    events = [e for e in trace.decisions("mxm") if "dot_probes" in e]
    assert events, "masked multiplies should record chooser decisions"
    judged = [_judged(e) for e in events]
    for e in judged:
        assert e["op"] == "mxm" and e["method"] in ("dot", "fallback")
        assert e["expand_flops"] >= 0 and e["dot_probes"] >= 0
    missed = [e for e in judged if e["mispredicted"]]
    with capsys.disabled():
        print(f"\n[tc-chooser] {len(judged)} decisions, "
              f"{len(missed)} mispredicted")
        for e in missed:
            print(f"  {e['semiring']}: picked {e['method']} "
                  f"(ideal {e['ideal']}; probes={e['dot_probes']}, "
                  f"flops={e['expand_flops']}, "
                  f"est={e['expand_flops_est']:.0f})")
