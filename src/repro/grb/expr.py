"""``repro.grb.expr`` — the lazy expression layer (non-blocking mode).

The GraphBLAS spec's *non-blocking* execution mode lets an implementation
defer operations as long as every value a user can observe is the one
blocking mode would have produced.  This module is that mode made real:
inside a :func:`deferred` scope (or with the ``lazy`` descriptor
bit), the operations façade records each call into an **expression DAG**
instead of executing it, and returns a lightweight :class:`Deferred`
handle.  Materialisation happens

* at an explicit :meth:`Deferred.new` / :func:`evaluate` call,
* at any *read boundary* of an output object — ``nvals``, ``to_coo``,
  ``values``/``indices``, ``bitmap()``, ``__iter__``, ``isequal``,
  element access: anything that observes stored entries forces the
  object's pending subgraph first, or
* when the ``deferred()`` scope exits (the whole remaining graph flushes).

At a materialisation boundary the *ready subgraph* — the forced node plus
everything it transitively depends on — is dispatched node by node in
record order, so the lazy API is pure deferral: the results are the
eager call-at-a-time sequence's, bit for bit.  No algorithm loop opens a
scope: a BFS level or PageRank iteration recorded and fused across calls
measures no faster than the same calls run eagerly.  (Fusion happens one
level down, on a single plan's epilogue chain.)

Dependency tracking is exact: a node depends on the pending producers of
every operand it reads (its arguments, its mask's object, a ``Vector``
handed to a select predicate as its thunk, and its own output —
accumulators and masks read the output's prior state) and, for
writes, on every pending reader of the object it overwrites (anti-
dependencies), so forcing one output never reorders visible effects.

Quick tour::

    from repro import grb

    with grb.deferred():
        h = grb.vxm(q, q, A, sr, mask=grb.complement(grb.structure(p)),
                    replace=True)          # records; returns a Deferred
        grb.update(p, q, mask=grb.structure(q))
        # nothing has executed yet
    # scope exit materialised both calls, in record order

    with grb.deferred():
        grb.mxv(w, A, u, sr)
        print(w.nvals)                     # read boundary: forces w now
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Optional

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ._kernels.apply_select import live_thunk

#: Always-on recording counter: calls deferred into an expression DAG
#: instead of executing eagerly, by operation kind.
_RECORDED = _metrics.counter(
    "grb_expr_recorded_total", "Plans recorded into expression DAGs, by op",
    labels=("op",))

__all__ = ["Deferred", "ExprGraph", "deferred", "evaluate", "submit",
           "active_graph"]

_PENDING, _DONE, _DISCARDED = 0, 1, 2

# Context-local like the trace sink and force_rule: a deferred scope in
# one request/thread never captures the calls of another.
_scope_var: ContextVar[Optional["ExprGraph"]] = ContextVar(
    "repro_grb_expr_scope", default=None)
# While a ready subgraph executes, read boundaries must NOT re-enter the
# graph: execution follows record order, so an object's current state is
# exactly what the running node is entitled to see — in particular, an
# object whose *later* producer is still pending must be read as-is, not
# forced out of program order.
_executing_var: ContextVar[bool] = ContextVar(
    "repro_grb_expr_executing", default=False)
# The ambient graph serves one-shot ``lazy`` descriptor-bit calls made
# outside any scope (reads still force through the recorded node).
_ambient_var: ContextVar[Optional["ExprGraph"]] = ContextVar(
    "repro_grb_expr_ambient", default=None)


class ExprNode:
    """One recorded-but-not-executed call in an expression DAG."""

    __slots__ = ("graph", "plan", "deps", "index", "state", "result")

    def __init__(self, graph: "ExprGraph", plan, deps, index: int):
        self.graph = graph
        self.plan = plan
        self.deps = deps          # ExprNode list (record-time dependencies)
        self.index = index        # record order == a valid topological order
        self.state = _PENDING
        self.result = None

    def force(self):
        """Materialise this node (and its ready subgraph); returns result.

        A no-op while a subgraph is already executing in this context:
        reads made *by* executing nodes legitimately observe intermediate
        state (execution follows record order)."""
        if self.state == _DISCARDED:
            raise RuntimeError(
                f"recorded {self.plan.op!r} call was discarded (its "
                f"deferred scope exited with an exception)")
        if self.state == _PENDING and not _executing_var.get():
            self.graph.force(self)
        return self.result

    def force_pending(self):
        """Materialise if still pending; silently skip discarded nodes.

        The mutation-boundary variant (``Matrix``/``Vector`` eager
        mutators flushing an object's pending *readers*): a reader
        discarded by a failed scope must not make an unrelated mutation
        raise."""
        if self.state == _PENDING and not _executing_var.get():
            self.graph.force(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = {_PENDING: "pending", _DONE: "done",
                 _DISCARDED: "discarded"}[self.state]
        return f"ExprNode(#{self.index} {self.plan.op} [{state}])"


class Deferred:
    """Lightweight handle for a call recorded into an expression DAG.

    Returned by the :mod:`repro.grb.operations` façade inside a
    :func:`deferred` scope (or under the ``lazy`` descriptor bit) in place
    of the eagerly computed output.  The handle is inert until
    :meth:`new` / :meth:`evaluate` — or until any read boundary of the
    output object forces the pending subgraph.
    """

    __slots__ = ("_node",)

    def __init__(self, node: ExprNode):
        self._node = node

    def new(self):
        """Materialise the recorded call and return its output object.

        The GraphBLAS-style name: the point where a lazily described
        result becomes a concrete ``Matrix``/``Vector``.  Evaluating the
        same handle twice is a no-op returning the same object.
        """
        return self._node.force()

    def evaluate(self):
        """Alias of :meth:`new`."""
        return self._node.force()

    @property
    def out(self):
        """The output object the recorded call will write (unforced)."""
        return self._node.plan.out

    @property
    def done(self) -> bool:
        """Whether the recorded call has been materialised (``False`` for
        pending *and* for discarded work)."""
        return self._node.state == _DONE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deferred({self._node!r})"


class ExprGraph:
    """An expression DAG: recorded plans plus their data dependencies.

    Pending-*reader* lists live on the objects themselves
    (``obj._expr_reads``), not in the graph: a recorded overwrite takes
    its anti-dependencies from there, and — crucially — the objects'
    eager mutators (``__setitem__``, ``clear``, the array setters) and
    eager writes (:func:`submit`) flush the same lists, so mutating an
    operand a recorded call has read can never retroactively change what
    that call computes.
    """

    def __init__(self):
        self._nodes: list[ExprNode] = []

    # -- recording -------------------------------------------------------
    @staticmethod
    def _inputs(plan):
        objs = list(plan.args)
        if plan.mask is not None:
            objs.append(plan.mask.obj)
        if plan.out is not None:
            objs.append(plan.out)    # accum/mask write-back reads old state
        # a select predicate reads a Vector thunk when it runs: a recorded
        # write into that vector stays ordered after this node
        thunk = plan.meta.get("_thunk")
        if thunk is not None and live_thunk(thunk):
            objs.append(thunk)
        for e in plan.epilogues:
            if live_thunk(e.thunk):
                objs.append(e.thunk)
        return objs

    def record(self, plan) -> Deferred:
        """Append ``plan`` to the DAG; returns its :class:`Deferred`."""
        if _metrics.ENABLED:
            _RECORDED.labels(plan.op).inc()
        if _trace.active():
            _trace.instant("record:" + plan.op, cat="record")
        inputs = self._inputs(plan)
        deps = []
        for obj in inputs:
            producer = getattr(obj, "_expr", None)
            if producer is not None and producer.state == _PENDING:
                deps.append(producer)
        out = plan.out
        # anti-dependencies: pending readers of the object being written
        prior = out._expr_reads
        if prior is not None:
            out._expr_reads = None
            deps.extend(n for n in prior if n.state == _PENDING)
        node = ExprNode(self, plan, deps, len(self._nodes))
        self._nodes.append(node)
        for obj in inputs:
            if obj is not out:
                reads = obj._expr_reads
                if reads is None:
                    obj._expr_reads = [node]
                    continue
                if len(reads) >= 8:      # long-lived operands (an
                    # adjacency read by many DESC_LAZY calls): drop
                    # completed readers so the list never pins dead nodes
                    reads = [n for n in reads if n.state == _PENDING]
                    obj._expr_reads = reads
                reads.append(node)
        out._expr = node
        return Deferred(node)

    # -- materialisation ---------------------------------------------------
    def force(self, node: ExprNode):
        """Execute the ready subgraph reaching ``node``, in record order."""
        if node.state != _PENDING:
            return
        stack = [node]
        need = {}
        while stack:
            n = stack.pop()
            if n.state != _PENDING or n.index in need:
                continue
            need[n.index] = n
            stack.extend(n.deps)
        ready = [need[i] for i in sorted(need)]
        self._run(ready)
        # drop completed nodes once nothing is pending, so a long-lived
        # graph (the ambient DESC_LAZY graph above all) never pins dead
        # plans and their operand/feed arrays
        self._compact()

    def flush(self):
        """Materialise every pending node (scope exit / ``evaluate()``)."""
        pending = [n for n in self._nodes if n.state == _PENDING]
        if pending:
            self._run(pending)
        self._compact()

    def _run(self, nodes):
        # clear the producer markers of the nodes about to materialise
        # (an object whose *latest* producer is outside this closure keeps
        # its marker — it is still pending afterwards)
        for n in nodes:
            out = n.plan.out
            if getattr(out, "_expr", None) is n:
                out._expr = None
        from .engine.rules import dispatch   # the per-node cancel checkpoint
        token = _executing_var.set(True)
        try:
            for node in nodes:
                node.result = dispatch(node.plan)
                node.state = _DONE
        finally:
            _executing_var.reset(token)

    def discard(self):
        """Drop every pending node (a deferred scope that raised)."""
        for n in self._nodes:
            if n.state == _PENDING:
                n.state = _DISCARDED
                out = n.plan.out
                if getattr(out, "_expr", None) is n:
                    out._expr = None
        self._compact()

    def _compact(self):
        if all(n.state != _PENDING for n in self._nodes):
            self._nodes.clear()

    @property
    def pending(self) -> int:
        return sum(1 for n in self._nodes if n.state == _PENDING)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExprGraph(nodes={len(self._nodes)}, pending={self.pending})"


# ---------------------------------------------------------------------------
# the public scope / submission API
# ---------------------------------------------------------------------------

def active_graph() -> Optional[ExprGraph]:
    """The innermost active :func:`deferred` scope's graph, if any."""
    return _scope_var.get()


class deferred:
    """Enter non-blocking mode: record GraphBLAS calls instead of running.

    Inside the scope the operations façade returns :class:`Deferred`
    handles; execution happens at read boundaries, explicit
    :meth:`Deferred.new` / :func:`evaluate` calls, and — for everything
    still pending — when the scope exits cleanly.  A scope that exits with
    an exception *discards* its unforced work instead of running it (the
    recorded calls' effects were never observable).

    Scopes are context-local and re-entrant: nesting joins the existing
    scope rather than stacking a new flush boundary.  (A plain class, not
    a ``@contextmanager`` generator: a caller may open one scope per loop
    iteration, so entry/exit stays a handful of attribute operations.)
    """

    __slots__ = ("_token", "graph")

    def __enter__(self) -> ExprGraph:
        g = _scope_var.get()
        if g is not None:
            self._token = None        # nested: join the enclosing scope
            self.graph = g
            return g
        g = ExprGraph()
        self._token = _scope_var.set(g)
        self.graph = g
        return g

    def __exit__(self, exc_type, exc, tb):
        if self._token is None:
            return False
        try:
            if exc_type is None:
                self.graph.flush()
            else:
                self.graph.discard()
        finally:
            _scope_var.reset(self._token)
        return False


def evaluate(*objs):
    """Force pending computation.

    ``evaluate(x, y)`` materialises the ready subgraphs of the given
    objects / :class:`Deferred` handles (returning the materialised
    objects); ``evaluate()`` with no arguments flushes *everything*
    pending in the active scope (and the ambient graph).  The explicit
    spelling of the spec's ``GrB_wait``.
    """
    if objs:
        out = []
        for obj in objs:
            if isinstance(obj, Deferred):
                out.append(obj.new())
                continue
            node = getattr(obj, "_expr", None)
            if node is not None:
                node.force()
            out.append(obj)
        return out[0] if len(out) == 1 else tuple(out)
    for g in (_scope_var.get(), _ambient_var.get()):
        if g is not None:
            g.flush()
    return None


def _ambient() -> ExprGraph:
    g = _ambient_var.get()
    if g is None:
        g = ExprGraph()
        _ambient_var.set(g)
    return g


_dispatch = None        # bound on first use (engine imports expr first)


def submit(plan, lazy: bool = False):
    """Record ``plan`` when a deferred scope (or ``lazy``) is active; else run.

    The single entry point the operations façade uses: eager mode is one
    extra ``ContextVar`` read.  Raw-output plans (``out=None``) always run
    eagerly — their callers consume arrays, not handles.  An eager write
    is a mutation boundary of its output: recorded calls still pending
    that read it run first, on the content they were recorded against.
    """
    out = plan.out
    if out is not None:
        g = _scope_var.get()
        if g is None and lazy:
            g = _ambient()
        if g is not None:
            return g.record(plan)
        if out._expr_reads is not None:
            out._force_lazy_state()
    global _dispatch
    if _dispatch is None:
        from .engine.rules import dispatch as _d
        _dispatch = _d
    return _dispatch(plan)
