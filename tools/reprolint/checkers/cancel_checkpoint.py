"""``cancel-checkpoint``: algorithm loops stay cooperatively cancellable.

The serve layer's latency contract (``docs/RESILIENCE.md``) relies on
every potentially-long kernel loop reaching :func:`repro.grb.cancel.
checkpoint` at iteration boundaries — a deadline-carrying request must
unwind instead of computing a result nobody is waiting for.  The reaper
resolves the *future* on time regardless, but only the checkpoint stops
the wasted compute, and a new algorithm that forgets it silently erodes
the deadline story PR 8 hand-audited.

The rule: inside the algorithm tiers (``lagraph/algorithms/``,
``lagraph/experimental/``), every ``while`` loop and every ``for`` loop
over a data-dependent iterable, inside a function body, must lexically
contain a ``checkpoint()`` call (its own or an inner loop's).  Loops over
compile-time-bounded iterables — ``range()`` of literals, literal
collections — are exempt: they cannot scale with the input.

Deliberate exceptions carry ``# cancel: checkpoint-exempt (reason)`` on
the loop header (or the line above it) — e.g. a pointer-jumping loop
whose trip count is bounded by construction.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Checker, Diagnostic, FileContext, dotted_tail

#: call names that satisfy the rule inside a loop body.
CHECKPOINT_CALLS = ("checkpoint",)


def _is_bounded_iterable(node: ast.AST) -> bool:
    """Can this ``for`` iterable be proven small at compile time?"""
    if isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
        return True
    if isinstance(node, ast.Constant):           # strings / bytes
        return True
    if isinstance(node, ast.Call):
        name = dotted_tail(node.func)
        if name in ("range", "enumerate", "zip", "reversed", "sorted"):
            return all(_is_bounded_iterable(a) or _is_literal(a)
                       for a in node.args)
    return False


def _is_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_literal(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_literal(node.left) and _is_literal(node.right)
    return False


def _contains_checkpoint(loop: ast.AST) -> bool:
    for n in ast.walk(loop):
        if isinstance(n, ast.Call) and dotted_tail(
                n.func) in CHECKPOINT_CALLS:
            return True
    return False


class CancelCheckpoint(Checker):
    rule_id = "cancel-checkpoint"
    pragma = "cancel: checkpoint-exempt"
    description = ("algorithm loops must call cancel.checkpoint() "
                   "at an iteration boundary")
    doc_anchor = "docs/LINTING.md#cancel-checkpoint"

    def interested(self, posix_path: str) -> bool:
        return ("lagraph/algorithms/" in posix_path
                or "lagraph/experimental/" in posix_path)

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        out = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.While, ast.For, ast.AsyncFor)):
                continue
            if ctx.enclosing_function(node) is None:
                continue                      # import-time table building
            if (isinstance(node, (ast.For, ast.AsyncFor))
                    and _is_bounded_iterable(node.iter)):
                continue
            if _contains_checkpoint(node):
                continue
            header_end = node.body[0].lineno - 1 if node.body else node.lineno
            if self.waived(ctx, node, end_line=max(header_end, node.lineno)):
                continue
            kind = ("while" if isinstance(node, ast.While) else "for")
            out.append(self.diag(
                ctx, node,
                f"{kind} loop without a cancel checkpoint — call "
                f"cancel.checkpoint() at the iteration boundary or add "
                f"'# {self.pragma} (reason)' "
                f"(deadline contract, docs/RESILIENCE.md)",
                detail=kind))
        return out
