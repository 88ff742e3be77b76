"""``lock-discipline``: lock bodies stay small; GC/exit paths stay lock-free.

Two hazards the PR-8/9 postmortem notes hand-audited:

**Hot-lock bodies** — ``self._lock`` in ``serve/`` guards bookkeeping
(stats, maps, queues).  A kernel dispatch, a blocking ``Condition.wait``
on some *other* object, or a query submission inside a
``with self._lock`` body turns every concurrent submitter into a convoy
(and ``wait`` while holding a foreign mutex is a deadlock waiting for its
second participant).  The rule flags, lexically inside any ``with``
whose context expression names a ``*lock*`` attribute, calls named like
kernel dispatch / query submission (:data:`DISPATCH_CALLS`) and any
``.wait(...)`` call.

**GC / exit callbacks** — a ``weakref.finalize`` callback may run on any
thread mid-GC: taking *any* lock there can self-deadlock against the
very thread that triggered collection (the obs footprint registry's
weakref callback only enqueues to a lock-free deque — that is the
contract).  An ``atexit`` callback runs while daemon threads are frozen
at arbitrary points, so it may only take a lock with a bounded
``acquire(timeout=...)`` — never ``with lock:`` or a bare ``acquire()``.
The rule resolves callbacks registered in the same module (plain
functions and ``self._method`` bound methods, one level of same-module
callees deep) and flags offending acquisitions inside them.

Opt-out: ``# lock: discipline-exempt (reason)``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from ..core import Checker, Diagnostic, FileContext, dotted_tail

#: call names that mean "kernel dispatch or query submission" — work that
#: must never run while holding a serve bookkeeping lock.
DISPATCH_CALLS = {
    "dispatch", "execute", "submit", "submit_many",
    "query", "query_many", "_run_one", "_run_batch", "_run_unit",
}


def _names_a_lock(expr: ast.AST) -> bool:
    tail = dotted_tail(expr)
    return tail is not None and "lock" in tail.lower()


def _lock_with_items(node: ast.With) -> bool:
    return any(_names_a_lock(item.context_expr) for item in node.items)


def _is_bounded_acquire(call: ast.Call) -> bool:
    """``lock.acquire(False)`` / ``acquire(timeout=...)`` — cannot hang."""
    return bool(call.args) or any(kw.arg in ("timeout", "blocking")
                                  for kw in call.keywords)


class LockDiscipline(Checker):
    rule_id = "lock-discipline"
    pragma = "lock: discipline-exempt"
    description = ("no dispatch/wait/submission under serve locks; "
                   "no lock acquisition in weakref.finalize "
                   "callbacks; only bounded acquires at atexit")
    doc_anchor = "docs/LINTING.md#lock-discipline"

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        out: List[Diagnostic] = []
        if "/serve/" in ctx.display_path:
            out.extend(self._check_lock_bodies(ctx))
        out.extend(self._check_gc_exit_callbacks(ctx))
        return out

    # -- hot-lock bodies ---------------------------------------------------

    def _check_lock_bodies(self, ctx: FileContext) -> List[Diagnostic]:
        out = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.With) and _lock_with_items(node)):
                continue
            for call in self._body_calls(node.body):
                name = dotted_tail(call.func)
                if name in DISPATCH_CALLS:
                    kind = "kernel dispatch / query submission"
                elif name == "wait":
                    kind = "blocking wait"
                else:
                    continue
                if self.waived(ctx, call,
                               anchor=ctx.enclosing_function(call) or call):
                    continue
                out.append(self.diag(
                    ctx, call,
                    f"{kind} ({name}(...)) inside a 'with ...lock' body — "
                    f"move it outside the critical section or add "
                    f"'# {self.pragma} (reason)'",
                    detail=f"with-lock:{name}"))
        return out

    def _body_calls(self, body: List[ast.stmt]) -> Iterable[ast.Call]:
        """Calls in a statement list, not descending into nested defs
        (deferred code does not run under the lock)."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    # -- GC / exit callbacks -----------------------------------------------

    def _check_gc_exit_callbacks(self, ctx: FileContext) -> List[Diagnostic]:
        out = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = dotted_tail(node.func)
            if tail == "finalize" and len(node.args) >= 2:
                cb, strict = node.args[1], True
                origin = "weakref.finalize callback"
            elif tail == "register" and "atexit" in (
                    dotted_tail(getattr(node.func, "value", None)) or ""):
                if not node.args:
                    continue
                cb, strict = node.args[0], False
                origin = "atexit callback"
            else:
                continue
            fn = self._resolve_callback(ctx, node, cb)
            if fn is None:
                continue
            for call_fn, acq in self._lock_acquisitions(ctx, fn):
                if not strict and isinstance(acq, ast.Call) \
                        and _is_bounded_acquire(acq):
                    continue
                if self.waived(ctx, acq, anchor=call_fn):
                    continue
                spelling = ("with-statement" if isinstance(acq, ast.With)
                            else "acquire()")
                out.append(self.diag(
                    ctx, acq,
                    f"lock {spelling} reachable from {origin} "
                    f"'{fn.name}' — GC/exit context must stay lock-free "
                    f"(enqueue to a lock-free structure"
                    + ("" if strict else
                       ", or use a bounded acquire(timeout=...)")
                    + f") or add '# {self.pragma} (reason)'",
                    detail=f"{origin.split()[0]}:{fn.name}"))
        return out

    def _resolve_callback(self, ctx: FileContext, site: ast.Call,
                          cb: ast.AST) -> Optional[ast.FunctionDef]:
        if isinstance(cb, ast.Name):
            return self._module_function(ctx, cb.id)
        if (isinstance(cb, ast.Attribute)
                and isinstance(cb.value, ast.Name)
                and cb.value.id == "self"):
            for anc in ctx.ancestors(site):
                if isinstance(anc, ast.ClassDef):
                    for stmt in anc.body:
                        if isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)) \
                                and stmt.name == cb.attr:
                            return stmt
        return None

    def _module_function(self, ctx: FileContext,
                         name: str) -> Optional[ast.FunctionDef]:
        for stmt in getattr(ctx.tree, "body", []):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and stmt.name == name:
                return stmt
        return None

    def _lock_acquisitions(self, ctx: FileContext, fn: ast.FunctionDef,
                           depth: int = 2
                           ) -> List[Tuple[ast.FunctionDef, ast.AST]]:
        """``(owner_fn, with_or_acquire_node)`` in ``fn`` and one level of
        same-module callees."""
        found: List[Tuple[ast.FunctionDef, ast.AST]] = []
        seen = {fn.name}
        frontier = [(fn, depth)]
        while frontier:
            cur, d = frontier.pop()
            for node in ast.walk(cur):
                if isinstance(node, ast.With) and _lock_with_items(node):
                    found.append((cur, node))
                elif isinstance(node, ast.Call):
                    tail = dotted_tail(node.func)
                    if tail == "acquire" and _names_a_lock(
                            getattr(node.func, "value", node.func)):
                        found.append((cur, node))
                    elif d > 1 and isinstance(node.func, ast.Name) \
                            and node.func.id not in seen:
                        callee = self._module_function(ctx, node.func.id)
                        if callee is not None:
                            seen.add(callee.name)
                            frontier.append((callee, d - 1))
        return found
