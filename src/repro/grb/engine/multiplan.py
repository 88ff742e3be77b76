"""MultiPlan execution: a ready expression subgraph, fused where possible.

When the lazy layer (:mod:`repro.grb.expr`) materialises a subgraph, the
nodes arrive here in record order (a valid topological order).  Before
dispatching them one by one, :class:`MultiPlan` tries the registered
**multi-output fusion rules**: patterns where two consumers of one
producer can execute inside the producer's single output pass, so the
intermediate write-back machinery between them is never paid.  This is the
step beyond PR 4's epilogue fusion, which could only fuse consumers
hanging off a *single* producing call.

Shipped rule
------------
``fused-frontier-parent``
    ``vxm``/``mxv`` (no accum, ``replace=True``) into a frontier ``q``
    immediately followed by ``update(p, q, mask=structure(q))`` — the two
    calls of Alg. 1's BFS level.  The kernel's raw output writes the
    frontier directly (the replace write-back degenerates to a plain set)
    and the parents take one disjoint union merge, skipping the update's
    full mask-resolution pass — the level body of every parents BFS in
    :mod:`repro.lagraph.algorithms.bfs`.

(A consumer that only filters or maps the producer's output needs no rule
here: it rides the producing plan as a ``then_select`` / ``then_apply``
epilogue — how the SSSP relaxations carry their improvement filter.)

Every fused group replays the decomposed sequence bit for bit: a rule only
claims patterns whose write-backs it can reproduce exactly, and with
:data:`~repro.grb.engine.cost.FUSION_ENABLED` switched off the nodes
simply dispatch one at a time — the identity reference the parity suite
pins.  Each fused group emits one decision record (``op="multiplan"``,
attached to the ``multiplan`` span) naming the rule and the ops it
consumed.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from ...obs import metrics as _metrics
from ...obs import profile as _profile
from ...obs import trace as _trace
from .. import cancel as _cancel
from ..expr import _DONE
from .._kernels.ewise import setdiff_keys
from ..vector import Vector
from . import cost
from .plan import Plan
from .rules import dispatch

__all__ = ["MultiPlan", "register_fusion", "fusion_rules"]

_FUSIONS: List[tuple] = []

#: Always-on fusion counter: groups actually executed fused, by rule.
_FUSED = _metrics.counter(
    "grb_multiplan_fused_total", "Fused groups executed, by fusion rule",
    labels=("rule",))


def register_fusion(name: str):
    """Register ``fn(nodes, i) -> int`` as a multi-output fusion rule.

    ``fn`` inspects ``nodes[i:]`` and either executes a fused group —
    returning how many nodes it consumed — or returns 0 to decline.
    Rules are tried in registration order at every unexecuted position.
    """
    def deco(fn: Callable):
        _FUSIONS.append((name, fn))
        return fn
    return deco


def fusion_rules() -> List[str]:
    """Names of the registered multi-output fusion rules, in trial order."""
    return [name for name, _ in _FUSIONS]


class MultiPlan:
    """An ordered ready subgraph, executed with multi-output fusion."""

    def __init__(self, nodes):
        self.nodes = list(nodes)

    def execute(self):
        nodes = self.nodes
        with _trace.span("multiplan", cat="plan", nodes=len(nodes)):
            self._execute(nodes)

    def _execute(self, nodes):
        fuse = cost.FUSION_ENABLED
        i = 0
        while i < len(nodes):
            # the engine executor's per-node cancellation checkpoint: a
            # deadline-carrying serve request unwinds between DAG nodes
            # rather than computing results nobody is waiting for
            _cancel.checkpoint()
            if fuse:
                consumed = 0
                for name, rule in _FUSIONS:  # cancel: checkpoint-exempt (bounded by the registered-rule count; stepping loop checkpoints per node)
                    consumed = rule(nodes, i)
                    if consumed:
                        if _metrics.ENABLED:
                            _FUSED.labels(name).inc()
                        # the fused group's kernel dispatches traced their
                        # own spans and records; this one names the rule
                        # that grouped them (declined attempts stay silent
                        # — they are a handful of attribute checks)
                        if _profile.deciding():
                            _profile.decision({
                                "op": "multiplan", "rule": name,
                                "fused_ops": tuple(
                                    n.plan.op for n in
                                    nodes[i:i + consumed]),
                            })
                        break
                if consumed:
                    i += consumed
                    continue
            node = nodes[i]
            node.result = dispatch(node.plan)
            node.state = _DONE
            i += 1


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _raw_twin(plan):
    """The producer plan re-targeted to raw output.

    Valid only for accum-free ``replace=True`` writes: there the final
    output is exactly ``T⟨M⟩`` — the same arrays the raw plan yields (its
    mask restricts the computed result itself).  Built directly (not via
    ``dataclasses.replace``) — this sits on the per-level hot path.
    """
    return Plan(plan.op, None, plan.args, plan.operator, mask=plan.mask,
                transpose_b=plan.transpose_b, meta=dict(plan.meta))


def _simple_producer(plan) -> bool:
    """vxm/mxv whose write-back degenerates to a plain set of ``T⟨M⟩``."""
    return (plan.op in ("vxm", "mxv") and plan.out is not None
            and isinstance(plan.out, Vector) and plan.accum is None
            and plan.replace and not plan.epilogues)


def _set_raw(w: Vector, keys, vals):
    """``w = raw`` exactly as ``write_back`` would land it."""
    w._set_sparse(keys.astype(np.int64, copy=False),
                  vals.astype(w.type.dtype, copy=False))
    return w


# ---------------------------------------------------------------------------
# fusion rules
# ---------------------------------------------------------------------------

@register_fusion("fused-frontier-parent")
def _fuse_frontier_parent(nodes, i) -> int:
    """``q⟨M, r⟩ = kernel`` then ``p⟨s(q)⟩ = q`` in one output pass.

    The producer's raw arrays become ``q`` wholesale (replace + no accum:
    nothing of the old frontier survives) and land in ``p`` through one
    disjoint union merge — ``q ⊆ ¬s(p)`` is *not* assumed; only the exact
    ``masked_write`` selection is replayed: every ``q`` entry is inside
    its own structural mask, and the surviving ``p`` entries are the ones
    outside ``q``'s keys.
    """
    if i + 1 >= len(nodes):
        return 0
    p_node, c_node = nodes[i], nodes[i + 1]
    prod, cons = p_node.plan, c_node.plan
    if not _simple_producer(prod):
        return 0
    q = prod.out
    m = cons.mask
    if not (cons.op == "update" and cons.args[0] is q
            and isinstance(cons.out, Vector) and cons.out is not q
            and cons.accum is None and not cons.replace
            and m is not None and m.obj is q and m.structural
            and not m.complemented and not cons.epilogues):
        return 0

    keys, vals = dispatch(_raw_twin(prod))
    _set_raw(q, keys, vals)
    p_node.result = q
    p_node.state = _DONE

    p = cons.out
    q_idx, q_vals = q._idx, q._vals       # post-cast stored arrays
    st = p._writable_bitmap()
    if st is not None:
        # the output pass proper: O(|q|) scatter into the parents' flag /
        # value grids — the decomposed update's own in-place path, minus
        # its mask resolution (every q entry is inside s(q))
        st.scatter(q_idx, q_vals)
        p._wrote_in_place()
    else:
        keep = setdiff_keys(p._idx, q_idx)  # p entries q doesn't overwrite
        m_keys = np.concatenate((q_idx, p._idx[keep]))
        m_vals = np.concatenate((
            q_vals.astype(p.type.dtype, copy=False),
            p._vals[keep].astype(p.type.dtype, copy=False)))
        order = np.argsort(m_keys, kind="stable")
        p._set_sparse(m_keys[order], m_vals[order])
    c_node.result = p
    c_node.state = _DONE
    return 2
