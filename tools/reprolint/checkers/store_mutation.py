"""``store-mutation``: bitmap buffers are written only by their store.

A bitmap store keeps three things in step — the ``present`` flags, the
``dense`` values (0 wherever absent: the dense matvec paths multiply
straight through it) and the ``_nvals`` count — and its owner trusts
:meth:`writable` to say when they may be written in place at all (an
exported or frozen buffer must be rebuilt instead, see
``grb/storage/bitmap.py``).  A write from anywhere else skips all of
that: a stale ``nvals`` mis-steers the format policy, a non-zero value
left under a cleared flag leaks into products, a write into an exported
buffer rewrites somebody's snapshot.

The rule: outside ``grb/storage/bitmap.py``, a subscript store through a
``.present`` / ``.dense`` attribute (``st.present[k] = …``, augmented
forms and ``del`` included) and any assignment to a ``._nvals`` or
``._exported`` attribute are violations — call the store's ``scatter`` /
``erase`` / ``set_element`` / ``mark_exported`` instead.  Stores into
local arrays that merely happen to be called ``present`` or ``dense`` are
not attribute stores and pass.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Checker, Diagnostic, FileContext

_BUFFERS = ("present", "dense")
_STATE = ("_nvals", "_exported")


def _violation(target: ast.AST):
    """The offending spelling when ``target`` writes a bitmap buffer."""
    if (isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr in _BUFFERS):
        return f".{target.value.attr}[...]"
    if isinstance(target, ast.Attribute) and target.attr in _STATE:
        return f".{target.attr}"
    return None


class StoreMutation(Checker):
    rule_id = "store-mutation"
    pragma = "store: owner-write"
    description = ("bitmap .present/.dense/._nvals/._exported are written "
                   "only inside grb/storage/bitmap.py")
    doc_anchor = "docs/LINTING.md#store-mutation"

    def interested(self, posix_path: str) -> bool:
        return not posix_path.endswith("grb/storage/bitmap.py")

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        out = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                continue
            for target in targets:
                # tuple targets: ``a.present[k], x = ...``
                for leaf in ast.walk(target):
                    what = _violation(leaf)
                    if what is None or self.waived(ctx, node):
                        continue
                    out.append(self.diag(
                        ctx, node,
                        f"store to {what} outside grb/storage/bitmap.py — "
                        f"flags, values, the nvals count and the export "
                        f"mark are the store's to keep; use its scatter()/"
                        f"erase()/mark_exported() (or waive with "
                        f"'# {self.pragma} (reason)')",
                        detail=what))
        return out
