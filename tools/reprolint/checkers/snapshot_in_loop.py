"""``snapshot-in-loop``: algorithm loops do not export what they write into.

``Vector.bitmap()`` hands a bitmap store's arrays to the caller and marks
the store *exported*: from then on the arrays are a snapshot, and every
write-back into that object builds a new store instead of writing the
named entries in place (``grb/storage/bitmap.py``).  Inside
an algorithm's level loop that silently turns an O(frontier) merge back
into an O(n) rebuild per level — nothing fails, the loop is just slow
again, which is the trap ``sssp_bellman_ford``'s ``d.bitmap()`` thunk sat
in.

The rule: under ``lagraph/``, a ``.bitmap()`` call lexically inside a
``for`` / ``while`` body (or a ``while`` test, which runs every
iteration) is a violation.  Take the snapshot once outside the
loop, or hand the vector itself to the consumer (a select predicate takes
a ``Vector`` thunk and reads it without exporting).

Sites that mean it — the object is rebuilt whole every iteration anyway —
carry ``# store: snapshot (reason)``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Checker, Diagnostic, FileContext, runs_every_iteration

EXPORTING_CALLS = ("bitmap",)


class SnapshotInLoop(Checker):
    rule_id = "snapshot-in-loop"
    pragma = "store: snapshot"
    description = ("no exporting .bitmap() inside an "
                   "algorithm loop (later write-backs would rebuild)")
    doc_anchor = "docs/LINTING.md#snapshot-in-loop"

    def interested(self, posix_path: str) -> bool:
        return "lagraph/" in posix_path

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        out = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in EXPORTING_CALLS
                    and not node.args and not node.keywords):
                continue
            if not runs_every_iteration(ctx, node) or self.waived(ctx, node):
                continue
            what = f".{node.func.attr}()"
            out.append(self.diag(
                ctx, node,
                f"exporting {what} inside a loop — it marks the store "
                f"exported, so every later write-back into that object "
                f"rebuilds it; take it outside the loop, pass the vector "
                f"itself as the select thunk, or waive with "
                f"'# {self.pragma} (reason)'",
                detail=what))
        return out
