"""Serving workload: a GraphService answering a mixed query stream.

Run:  python examples/serving_workload.py

Builds two suite graphs, registers them with a GraphService, and pushes a
mixed stream of BFS / SSSP / PageRank / component / triangle queries at it
from several client threads.  Along the way it shows the three things the
engine does beyond calling algorithms:

1. **coalescing** — a burst of BFS queries on one graph is answered by
   one batched multi-source kernel sweep (``msbfs``), not one traversal
   per query; SSSP queries run one Bellman-Ford each;
2. **memoization** — repeated questions hit an LRU cache keyed by the
   graph's (epoch, version);
3. **invalidation** — mutating a graph and declaring it
   (``svc.invalidate``) bumps its version, so stale entries can never be
   served again.
"""

import threading
import time

import numpy as np

from repro import lagraph as lg
from repro import serve
from repro.gap import datasets

# ---------------------------------------------------------------------------
# 1. Stand up the service: two graphs, four worker threads.
# ---------------------------------------------------------------------------
kron = datasets.build("kron", "tiny")                  # RMAT, low diameter
road = datasets.build("road", "tiny", weighted=True)   # grid, high diameter

svc = serve.GraphService(max_workers=4, cache_capacity=512, max_batch=64)
svc.register("kron", kron).register("road", road)
print(f"serving: kron n={kron.n} nvals={kron.nvals}, "
      f"road n={road.n} nvals={road.nvals}")

# ---------------------------------------------------------------------------
# 2. One coalesced burst: 48 BFS queries -> a single batched kernel sweep.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(7)
sources = [int(s) for s in rng.integers(0, kron.n, size=48)]

t0 = time.perf_counter()
levels = svc.query_many("kron", [serve.BFSLevels(s) for s in sources])
batched_ms = (time.perf_counter() - t0) * 1e3

t0 = time.perf_counter()
direct = [lg.bfs_level(kron, s) for s in sources]
direct_ms = (time.perf_counter() - t0) * 1e3

assert all(a.isequal(b) for a, b in zip(levels, direct))
st = svc.stats()
print(f"\n48 BFS queries: service {batched_ms:.1f} ms "
      f"vs sequential {direct_ms:.1f} ms "
      f"({st.kernel_calls} kernel calls, {st.kernel_calls_saved} sweeps "
      f"saved, results identical)")

# ---------------------------------------------------------------------------
# 3. A mixed multi-client stream against both graphs.
# ---------------------------------------------------------------------------
def client(seed: int, out: list):
    rng = np.random.default_rng(seed)
    for _ in range(12):
        if rng.random() < 0.5:
            q = serve.BFSParents(int(rng.integers(0, kron.n)))
            out.append(svc.submit("kron", q))
        elif rng.random() < 0.6:
            q = serve.SSSP(int(rng.integers(0, road.n)))
            out.append(svc.submit("road", q))
        elif rng.random() < 0.5:
            out.append(svc.submit("kron", serve.PageRank()))
        else:
            out.append(svc.submit("road", serve.ConnectedComponents()))


futures: list = []
threads = [threading.Thread(target=client, args=(i, futures))
           for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
svc.flush()
results = [f.result() for f in futures]
st = svc.stats()
print(f"\nmixed stream: {len(results)} answers from 4 clients — "
      f"{st.batches} batches, {st.cache_hits} cache hits, "
      f"{st.deduplicated} shared duplicates")

# ---------------------------------------------------------------------------
# 4. Memoization and invalidation.
# ---------------------------------------------------------------------------
before = svc.stats().cache_hits
svc.query("kron", serve.TriangleCount())
svc.query("kron", serve.TriangleCount())      # memo hit
print(f"\nrepeat TriangleCount: +{svc.stats().cache_hits - before} cache hit")

# Mutate the road graph (close a lane: drop one edge), declare it, re-query.
dense = road.A.to_dense()
r, c = np.nonzero(dense)
dense[r[0], c[0]] = 0
road.A = type(road.A).from_dense(dense)
new_version = svc.invalidate("road")
d = svc.query("road", serve.SSSP(0))
assert d.isequal(lg.sssp_bellman_ford(road, 0))
print(f"after mutation: road at version {new_version}, "
      f"SSSP recomputed fresh (still identical to a direct call)")

svc.shutdown()
print("\ndone:", svc.stats())
