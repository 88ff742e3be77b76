"""``repro.grb.engine`` — the unified plan/dispatch layer.

Every GraphBLAS call is first described as a small :class:`Plan` object
(op, operands + formats, mask kind, accumulator, descriptor bits, output
target), then routed through the registered planner rules
(:mod:`~repro.grb.engine.rules`) under one cost model
(:mod:`~repro.grb.engine.cost`).  The scattered pre-engine choosers — the
masked-mxm dot-vs-fallback decision, the Beamer push/pull heuristic, the
per-kernel format fast paths — all live here now, as rules and choosers
whose decisions share one record channel (:func:`repro.obs.decision`) and
whose constants are monkeypatchable in one module.

Quick tour::

    from repro.grb import engine

    # the operations layer does this for every call:
    engine.execute(engine.plan_mxv(w, A, u, sr, accum=plus))

    # algorithm hot loops fuse consumers onto the producing kernel:
    tri, vals = engine.execute(
        engine.plan_mxm(None, A, A, plus_pair, mask=structure(A))
              .then_reduce_rowwise(PLUS_MONOID))

    # and force paths for tests / ablations:
    with engine.force_rule("mxv", "mxv-gather"):
        ...

``out=None`` plans return raw ``(keys, values)`` arrays (or a scalar after
``then_reduce_scalar``) — the single-consumer fusion contract.  Setting
``cost.FUSION_ENABLED = False`` decomposes every fused chain into the seed
sequence with materialised intermediates, the bit-identity reference.
"""

from __future__ import annotations

from ...obs import profile as _profile
from . import cost
from . import plancache
from .cost import choose_direction
from .plan import (
    Epilogue,
    Plan,
    plan_apply,
    plan_assign,
    plan_assign_scalar,
    plan_ewise_add,
    plan_ewise_mult,
    plan_mxm,
    plan_mxv,
    plan_select,
    plan_update,
    plan_vxm,
)
from .rules import (
    PlanningError,
    Rule,
    dispatch,
    force_rule,
    register,
    rules_for,
)
# importing each family registers its rules, in trial order per kind
from . import mxm, mxv, entrywise, assign  # noqa: F401
from .writeback import write_back

__all__ = [
    "cost", "plancache", "Plan", "Epilogue",
    "execute", "dispatch",
    "plan_mxm", "plan_mxv", "plan_vxm", "plan_ewise_add", "plan_ewise_mult",
    "plan_apply", "plan_select", "plan_assign", "plan_assign_scalar",
    "plan_update", "choose_direction", "preplan",
    "Rule", "register", "rules_for", "force_rule", "PlanningError",
    "write_back",
]


def execute(plan: Plan):
    """Route a plan through the rule registry and run the claiming rule."""
    return dispatch(plan)


def preplan(a, *, profile: str = "default") -> dict:
    """Warm the planner's operand state.

    Serving stacks call this at graph-registration time so the first query
    pays no one-off conversions: the canonical CSR view, the cached
    CSC/transpose arrays (what ``mxm-masked-dot`` feeds as ``Bᵀ`` and the
    pull kernels probe), and — under the ``"msbfs"`` profile — the all-ones
    pattern operands of the structural multiplies (which the batched BFS
    sweep no longer reads: it probes the CSR and CSC arrays directly).
    Returns a summary dict (also delivered as an ``op="preplan"``
    decision record when something consumes them).
    """
    import numpy as np

    st = a._S()
    st.csr()
    st.transpose_csr()
    built = ["csr", "transpose_csr"]
    if profile == "msbfs":
        a.pattern_operand(np.int64)
        built.append("pattern_operand")
    summary = {
        "op": "preplan", "profile": profile, "format": a.format,
        "nrows": a.nrows, "ncols": a.ncols, "nvals": a.nvals,
        "built": tuple(built),
    }
    if _profile.deciding():
        _profile.decision(summary)
    return summary
