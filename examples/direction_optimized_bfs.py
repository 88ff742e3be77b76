"""Direction-optimised BFS on the storage engine, and the format knobs.

Shows the three layers the ``repro.grb.storage`` subsystem adds:

1. per-object storage formats (CSR / bitmap) with the auto-policy
   picking them from observed density, and ``set_format`` to pin one;
2. the push/pull step chooser (Basic ``bfs()``'s parents, the one-row
   case of the batched sweep): push through sparse frontiers, pull
   through the store's CSC view + a bitmap frontier on heavy ones —
   bit-identical to the GAP reference BFS;
3. what that buys on the two extreme graph shapes of Table IV, the
   low-diameter RMAT graph and the high-diameter road grid, against the
   same sweep forced to push (``cost.PUSHPULL_ALPHA = 0``).

Run:  python examples/direction_optimized_bfs.py [scale] [side]
"""

import sys
import time
from unittest import mock

import numpy as np

from repro import grb
from repro import lagraph as lg
from repro.gap import baselines, generators
from repro.grb.engine import cost

scale = int(sys.argv[1]) if len(sys.argv) > 1 else 12
side = int(sys.argv[2]) if len(sys.argv) > 2 else 72

# --- storage formats in two lines -----------------------------------------
m = grb.Matrix.from_coo([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0], 3, 3)
print(f"fresh matrix: format={m.format} (policy) — pin with set_format:")
for fmt in ("bitmap", "csr"):
    m.set_format(fmt)
    print(f"  set_format({fmt!r:>8}) -> format={m.format}, "
          f"same entries: {m.nvals} nvals")

v = grb.Vector.from_dense(np.arange(128, dtype=np.float64))
print(f"dense vector of size 128: format={v.format} (auto-policy); "
      f"sparse one stays {grb.Vector.from_coo([5], [1.0], 128).format}")

# --- the two extreme graph shapes ------------------------------------------
for label, g in (
    (f"kron (scale {scale}, low diameter)", generators.kron(scale=scale)),
    (f"road ({side}x{side} grid, high diameter)",
     generators.road(side=side)),
):
    src = int(np.flatnonzero(np.diff(g.A.indptr) > 0)[0])
    print(f"\n{label}: n={g.n:,}, nvals={g.nvals:,}")

    lg.bfs(g, src)                        # caches G.AT, warms the CSC view
    with mock.patch.object(cost, "PUSHPULL_ALPHA", 0.0):  # push-heavy
        t0 = time.perf_counter()
        p_push, _ = lg.bfs(g, src)
        t_push = time.perf_counter() - t0

    t0 = time.perf_counter()
    p_auto, _ = lg.bfs(g, src)
    t_auto = time.perf_counter() - t0

    ref = baselines.bfs_parent(g, src)    # the GAP reference BFS
    for p in (p_push, p_auto):            # bit-identical, always
        idx, par = p.to_coo()
        assert np.array_equal(idx, np.flatnonzero(ref >= 0))
        assert np.array_equal(par, ref[idx])
    print(f"  push-forced:                  {t_push:.4f}s")
    print(f"  direction-optimised (engine): {t_auto:.4f}s "
          f"({t_push / max(t_auto, 1e-9):.1f}x) — identical parents")

# --- batched frontiers: the same loop, one row per source ------------------
g = generators.road(side=side)
sources = np.flatnonzero(np.diff(g.A.indptr) > 0)[:32]
t0 = time.perf_counter()
levels = lg.msbfs_levels(g, sources)
t_batch = time.perf_counter() - t0
print(f"\nroad msbfs, {sources.size} sources: {t_batch:.3f}s "
      f"(each row chooses push or pull per level)")
print(f"  level matrix: {levels.nrows}x{levels.ncols}, "
      f"format={levels.format}, nvals={levels.nvals:,}")
