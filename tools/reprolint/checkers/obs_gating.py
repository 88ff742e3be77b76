"""``obs-gating``: observability call sites gate on the cheap guards.

The observability cost contract (``docs/OBSERVABILITY.md``) is that the
*disabled* paths cost at most one flag/ContextVar read — which only holds
if call sites never compute event dicts, span attributes, or metric label
values before checking the guard.  Every

* ``obs.decision(...)`` / ``_profile.decision(...)`` planner decision record,
* ``trace.instant(...)`` / ``_trace.instant(...)`` call, and
* bump (``inc``/``dec``/``set``/``observe``) on a module-level metric
  handle (ALL-CAPS root name, e.g. ``_REQUESTS.labels(...).inc()``)

must sit under an ``if`` whose test calls ``deciding()``/``active()``/
``deep_active()`` or reads an ``ENABLED`` flag.  Structurally-gated sites
opt out with ``# obs: gated-by-caller (reason)``.  The :mod:`repro.obs`
package itself is exempt — it implements the guards.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from ..core import Checker, Diagnostic, FileContext, guarded_by, root_name

GUARD_CALLS = ("deciding", "active", "deep_active")
GUARD_FLAGS = ("ENABLED",)
BUMPS = {"inc", "dec", "set", "observe"}


def classify(call: ast.Call) -> Optional[str]:
    """The violation label for an observability call, or ``None``."""
    f = call.func
    if not isinstance(f, ast.Attribute):
        return None
    root = root_name(f.value)
    if root is None:
        return None
    if f.attr == "decision" and root.lstrip("_") in ("obs", "profile"):
        return f"{root}.decision"
    if f.attr == "instant" and "trace" in root:
        return f"{root}.instant"
    if f.attr in BUMPS and root.isupper():
        return f"{root}...{f.attr}"
    return None


class ObsGating(Checker):
    rule_id = "obs-gating"
    pragma = "obs: gated-by-caller"
    description = ("decision-record/span/metric call sites must gate on "
                   "deciding()/active()/deep_active()/ENABLED (one flag "
                   "read when disabled)")
    doc_anchor = "docs/LINTING.md#obs-gating"

    def interested(self, posix_path: str) -> bool:
        # the guard implementation itself is exempt
        return "repro/obs/" not in posix_path

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        out = []
        for lineno, label in self.violations(ctx):
            out.append(Diagnostic(
                rule=self.rule_id, path=ctx.display_path, line=lineno,
                col=0, detail=label,
                message=(f"ungated observability call {label} (guard on "
                         f"active()/ENABLED or add '# {self.pragma} "
                         f"(reason)')")))
        return out

    def violations(self, ctx: FileContext) -> List[Tuple[int, str]]:
        """``[(lineno, label), ...]`` of ungated observability calls."""
        found = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            label = classify(node)
            if label is None:
                continue
            if guarded_by(ctx, node, calls=GUARD_CALLS, flags=GUARD_FLAGS):
                continue
            # pragma on the call's lines, or anywhere between the
            # enclosing ``def`` and the call
            anchor = ctx.enclosing_function(node) or node
            if self.waived(ctx, node, anchor=anchor):
                continue
            found.append((node.lineno, label))
        return found
