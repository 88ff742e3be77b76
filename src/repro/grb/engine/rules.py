"""The planner rule registry: one place where execution strategies live.

Every :class:`~repro.grb.engine.plan.Plan` is routed through the ordered
rule list registered for its operation kind.  A rule inspects the plan
(operand formats, mask kind, the cost model in
:mod:`repro.grb.engine.cost`) and either *claims* it — returning a decision
detail dict — or declines with ``None``.  The first claiming rule executes
the plan; its name and detail become one decision record delivered to
:func:`repro.obs.decision`, so every chooser in the system is observable
through the same trace collector and profiler table.

Rules are tried in registration order, most-specialised first; the last
rule for each kind is an always-applicable reference strategy, so dispatch
cannot fall through.  A rule that declines may stash partial analysis in
``plan.meta`` (e.g. the masked-mxm chooser's probe/flop counts) — dispatch
merges it into whichever record is eventually emitted.

Forcing
-------
Most forcing goes through the cost constants (zero a cost, raise a
threshold — the idiom the parity suite uses), but :func:`force_rule` pins a
kind to one named rule outright::

    with engine.force_rule("mxv", "mxv-gather"):
        ...   # every mxv in this block runs the gather strategy
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from ...obs import metrics as _metrics
from ...obs import profile as _profile
from ...obs import trace as _trace
from ...testing import faults as _faults
from .. import cancel as _cancel
from .plan import Plan

__all__ = ["Rule", "register", "rules_for", "dispatch",
           "force_rule", "PlanningError"]


class PlanningError(RuntimeError):
    """No registered rule claimed a plan (a registry misconfiguration)."""


#: Always-on dispatch counter: one bump per executed plan, labelled by the
#: operation kind and the claiming rule — the cheapest possible answer to
#: "which strategies actually run in production".
_DISPATCHES = _metrics.counter(
    "grb_dispatch_total", "Plans dispatched, by operation and claiming rule",
    labels=("op", "rule"))


@dataclass(frozen=True)
class Rule:
    """One named execution strategy for one operation kind."""

    op: str
    name: str
    applies: Callable[[Plan], Optional[dict]]
    run: Callable[[Plan, dict], object]
    #: this rule's ``grb_dispatch_total{op, rule}`` child, bound once
    dispatched: object = field(compare=False, repr=False)


_REGISTRY: Dict[str, List[Rule]] = {}
# context-local like the trace sink: a force_rule block in one request
# or thread can never reroute the plans of another (and nested blocks
# restore cleanly — each block snapshots an immutable mapping)
_forced_var: ContextVar[Mapping[str, str]] = ContextVar(
    "repro_grb_engine_forced_rules", default={})


def register(op: str, name: str):
    """Class/function decorator registering ``(applies, run)`` for ``op``.

    The decorated object must expose ``applies(plan) -> Optional[dict]``
    and ``run(plan, detail)``.  Registration order is trial order.
    """
    def deco(obj):
        rule = Rule(op, name, obj.applies, obj.run,
                    _DISPATCHES.labels(op, name))
        _REGISTRY.setdefault(op, []).append(rule)
        return obj
    return deco


def rules_for(op: str) -> List[Rule]:
    """The registered rules for an operation kind, in trial order."""
    return list(_REGISTRY.get(op, ()))


@contextmanager
def force_rule(op: str, name: str):
    """Pin operation kind ``op`` to the rule called ``name`` for the block.

    The pinned rule's ``applies`` is still consulted (it may compute the
    detail the executor needs) but every other rule is skipped; a pinned
    rule that declines raises :class:`PlanningError` rather than falling
    through, so a test forcing a path can never silently measure another.
    """
    if not any(r.name == name for r in _REGISTRY.get(op, ())):
        raise KeyError(f"no rule {name!r} registered for op {op!r}")
    token = _forced_var.set({**_forced_var.get(), op: name})
    try:
        yield
    finally:
        _forced_var.reset(token)


def _emit(plan: Plan, rule_name: str, detail: dict):
    event = plan.describe()
    event.update(plan.meta)
    event.update(detail)
    event["rule"] = rule_name
    # private planner scratch (underscore keys: builder operands,
    # rule work arrays) never belongs in a record
    for k in [k for k in event if k.startswith("_")]:
        del event[k]
    _profile.decision(event)  # obs: gated-by-caller (_claim's ``decide`` is dispatch's one read of the obs gates)


def _claim(plan: Plan, forced: Optional[str], decide: bool):
    """Find the claiming rule; returns ``(rule, detail)``.

    ``decide`` is the caller's reading of :func:`repro.obs.deciding` — the
    decision record is built only when something consumes it.
    """
    try:
        rules = _REGISTRY[plan.op]
    except KeyError:
        raise PlanningError(f"no rules registered for op {plan.op!r}") \
            from None
    for rule in rules:
        if forced is not None and rule.name != forced:
            continue
        detail = rule.applies(plan)
        if detail is None:
            if forced is not None:
                raise PlanningError(
                    f"forced rule {forced!r} declined plan {plan.op!r}")
            continue
        if decide:
            _emit(plan, rule.name, detail)
        return rule, detail
    raise PlanningError(f"no rule claimed plan {plan.op!r}")


def _priced_units(plan: Plan, detail: dict):
    """The work the masked-mxm chooser priced this claim at: the exact probe
    count of a dot claim, or the exact flop count of a product it
    declined; ``None`` for a claim no chooser priced, and for one whose
    analysis the mask's memo served (``plan_cache == "hit"``: the probe
    work is re-used, not done)."""
    if detail.get("method") == "dot":
        units, cached = detail.get("dot_probes"), detail.get("plan_cache")
    else:       # both left in plan.meta only by a declined dot
        units, cached = (plan.meta.get("expand_flops"),
                         plan.meta.get("plan_cache"))
    return None if cached == "hit" else units


def _run_rule(plan: Plan, rule: Rule, detail: dict, deep: bool):
    """Execute the claiming rule, timing it when deep profiling is on.

    The timing row also sums the claim's priced units, so the rule table
    reads seconds per probe or per flop, the inputs a fit of the cost
    constants needs."""
    if not deep:
        return rule.run(plan, detail)
    nnz_in = sum(int(getattr(a, "nvals", 0) or 0) for a in plan.args)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    out = rule.run(plan, detail)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    _profile.record_rule(plan.op, rule.name, wall, cpu, nnz_in,
                         int(getattr(out, "nvals", 0) or 0),
                         _priced_units(plan, detail))
    return out


def dispatch(plan: Plan):
    """Route ``plan`` through its rule list and execute the claiming rule.

    Observability: every dispatch bumps ``grb_dispatch_total{op, rule}``;
    with a trace sink installed the dispatch becomes a ``plan:<op>`` span
    wrapping a ``plan-choose`` span (the ``applies`` chain, and the
    decision record attached to it) and a ``kernel:<rule>`` span (the
    rule's execution, epilogues and write-back included —
    :func:`repro.grb.engine.executors.finish` opens child spans for those
    stages).  The two obs gates (trace sink, deep profiling) are each read
    once here and handed down.

    Resilience: dispatch is a cooperative cancellation checkpoint (a
    deadline-carrying serve request aborts here between kernel steps,
    see :mod:`repro.grb.cancel`) and the ``"kernel"`` fault-injection
    site (:mod:`repro.testing.faults`) — both cost one global/ContextVar
    read when unused.
    """
    _cancel.checkpoint()
    if _faults.ACTIVE:
        _faults.fire("kernel", op=plan.op)
    forced = _forced_var.get().get(plan.op)
    deep = _profile.deep_active()
    if _trace.active():
        with _trace.span("plan:" + plan.op, cat="plan", op=plan.op) as sp:
            with _trace.span("plan-choose", cat="plan"):
                rule, detail = _claim(plan, forced, True)
            sp.set(rule=rule.name)
            if _metrics.ENABLED:
                rule.dispatched.inc()
            with _trace.span("kernel:" + rule.name, cat="kernel",
                             op=plan.op):
                return _run_rule(plan, rule, detail, deep)
    rule, detail = _claim(plan, forced, deep)
    if _metrics.ENABLED:
        rule.dispatched.inc()
    return _run_rule(plan, rule, detail, deep)
