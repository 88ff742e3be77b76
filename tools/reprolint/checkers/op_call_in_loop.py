"""``op-call-in-loop``: GraphBLAS operators are applied to arrays, not elements.

Every ``BinaryOp`` / ``Monoid`` / ``UnaryOp`` here is a vectorised NumPy
callable with a fixed cost per call (the Python frames, the ufunc's
dispatch) of about a microsecond, whatever the length of its arrays.
Calling the operator a parameter hands in once per element of a Python
loop pays that fixed cost per element: a tuple build
folding a Kronecker edge list's 10⁵ duplicates one ``dup_op`` call each
spends more time in those calls than in the rest of graph set-up.

The rule: under ``grb/``, a call of a function parameter named ``op`` or
``*_op`` lexically inside a ``for`` / ``while`` body (or a ``while``
test, which runs every iteration) is a violation.  Apply the operator
once to the gathered arrays instead.

A loop whose every iteration is itself a whole-array pass — the build's
one pass per duplicate rank — carries ``# op: array-pass (reason)`` on
the call or the line above it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Checker, Diagnostic, FileContext, runs_every_iteration

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_op_name(name: str) -> bool:
    return name == "op" or name.endswith("_op")


def _is_parameter(ctx: FileContext, node: ast.Call) -> bool:
    """Does ``node`` call a parameter of an enclosing function?"""
    name = node.func.id
    for anc in ctx.ancestors(node):
        if isinstance(anc, _FUNCTIONS):
            a = anc.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
            if any(p.arg == name for p in params):
                return True
    return False


class OpCallInLoop(Checker):
    rule_id = "op-call-in-loop"
    pragma = "op: array-pass"
    description = ("no per-element call of an op parameter inside a "
                   "Python loop under grb/ (apply it to arrays)")
    doc_anchor = "docs/LINTING.md#op-call-in-loop"

    def interested(self, posix_path: str) -> bool:
        return "grb/" in posix_path

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        out = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and _is_op_name(node.func.id)
                    and _is_parameter(ctx, node)):
                continue
            if not runs_every_iteration(ctx, node) or self.waived(ctx, node):
                continue
            what = f"{node.func.id}()"
            out.append(self.diag(
                ctx, node,
                f"{what} called inside a loop — each call pays the "
                f"operator's fixed cost for one element; gather the "
                f"operands and apply it once to arrays, or waive with "
                f"'# {self.pragma} (reason)' if every iteration is a "
                f"whole-array pass",
                detail=what))
        return out
