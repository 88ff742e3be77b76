"""Ablation — fusing vxm + assign in the BFS (Sec. VI-B, item 2).

The paper attributes part of its remaining BFS gap to the two-call
structure (``GrB_vxm`` then ``GrB_assign``) that non-blocking mode could
fuse.  ``bfs_parent_push`` records each level's pair into a deferred scope,
so the engine's ``fused-frontier-parent`` rule runs both in one output
pass; with ``cost.FUSION_ENABLED`` off the same sweep decomposes into the
two calls of Alg. 1.  The road graph shows the effect best: thousands of
tiny levels mean the per-level write-back dominates.
"""

import pytest

from repro.grb.engine import cost
from repro.lagraph import algorithms as alg


@pytest.mark.parametrize("name", ["kron", "road"])
@pytest.mark.parametrize("fusion", [False, True], ids=["two-call", "fused"])
@pytest.mark.benchmark(group="ablation-fusion")
def test_bfs_fusion(benchmark, suite, sources, name, fusion, monkeypatch):
    monkeypatch.setattr(cost, "FUSION_ENABLED", fusion)
    g = suite[name]
    src = int(sources(g)[0])
    benchmark(alg.bfs_parent_push, g, src)
