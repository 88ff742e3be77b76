"""The reprolint core: one AST pass, pluggable checkers, pragma opt-outs.

``reprolint`` enforces the cross-cutting invariants the test suite cannot
economically pin — the contracts that hold the layered design together
(disabled observability costs one flag read, algorithm loops stay
cancellable, chooser constants live in one module, lock bodies stay
small, fault hooks are free when idle, bitmap stores are written only
through their owner, operators are applied to arrays, not elements).
Each invariant is a :class:`Checker` plugin; the framework owns parsing,
parent links, guard/scope helpers, pragma handling, and diagnostics.

Diagnostics are stable strings — ``RULE-ID:path:line: message`` — so CI
logs diff cleanly across runs; ``--format=json`` emits the same records
as a machine-readable report (schema in ``docs/LINTING.md``).

Opt-outs are per-rule pragma comments with a reason string, e.g.::

    while parent[s] != s:   # cancel: checkpoint-exempt (bounded pointer chase)

plus the universal form ``# reprolint: disable=<rule-id> (reason)``.  A
pragma without a parenthesised reason does not waive anything — deliberate
exceptions must say why (the same way ``# obs: gated-by-caller (…)``
always has).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

__all__ = [
    "Diagnostic", "FileContext", "Checker", "LintError",
    "run_files", "iter_python_files", "render_human", "render_json",
    "runs_every_iteration", "JSON_SCHEMA_VERSION",
]

#: Bumped whenever the JSON report layout changes shape.
JSON_SCHEMA_VERSION = 1

#: Universal opt-out: ``# reprolint: disable=<rule-id> (reason)``.
_DISABLE_RE = re.compile(
    r"reprolint:\s*disable=(?P<rules>[a-z0-9,-]+)\s*\((?P<reason>[^)]+)\)")


class LintError(RuntimeError):
    """A file reprolint could not analyse (syntax error, unreadable)."""


@dataclass(frozen=True)
class Diagnostic:
    """One violation: where, which rule, and what to do about it."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Short machine label for the flagged construct (e.g. the metric
    #: bump spelling).
    detail: str = ""

    def render(self) -> str:
        return f"{self.rule}:{self.path}:{self.line}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule, "path": self.path, "line": self.line,
            "col": self.col, "message": self.message, "detail": self.detail,
        }


@dataclass
class FileContext:
    """One parsed file plus the shared lookups every checker needs."""

    path: Path
    display_path: str
    source: str
    lines: List[str]
    tree: ast.AST
    parents: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, display_path: Optional[str] = None
              ) -> "FileContext":
        try:
            source = path.read_text()
        except OSError as exc:
            raise LintError(f"{path}: unreadable ({exc})") from exc
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"{path}:{exc.lineno}: syntax error: {exc.msg}")
        ctx = cls(path=path,
                  display_path=display_path or path.as_posix(),
                  source=source, lines=source.splitlines(), tree=tree)
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                ctx.parents[child] = node
        return ctx

    # -- tree navigation ---------------------------------------------------

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        """Parents of ``node``, innermost first."""
        while node in self.parents:
            node = self.parents[node]
            yield node

    def enclosing_function(self, node: ast.AST):
        """The nearest enclosing def/async-def, or ``None`` at module level."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    # -- pragma handling ---------------------------------------------------

    def _line_has_waiver(self, text: str, rule: str,
                         tokens: Sequence[str]) -> bool:
        for tok in tokens:
            # the token must open a non-empty parenthesised reason (the
            # close may sit on a continuation comment line)
            if tok in text and re.search(
                    re.escape(tok) + r"\s*\([^)\s]", text):
                return True
        m = _DISABLE_RE.search(text)
        return bool(m) and rule in m.group("rules").split(",")

    def waived(self, node: ast.AST, rule: str, tokens: Sequence[str], *,
               anchor: Optional[ast.AST] = None,
               end_line: Optional[int] = None) -> bool:
        """Is ``node`` opted out of ``rule`` by a pragma comment?

        Scans the source lines from ``anchor`` (default: the line above
        ``node``, so a pragma comment can sit on its own line) through
        ``node``'s last line — the same placement contract the original
        obs-gating checker established (pragma on the call, or between
        the enclosing ``def`` and the call, when the def is the anchor).
        Compound statements (loops, ``with`` bodies) pass ``end_line`` to
        stop the scan at their header instead of covering the whole body.
        """
        start = (anchor.lineno if anchor is not None
                 else max(node.lineno - 1, 1))
        end = (end_line if end_line is not None
               else getattr(node, "end_lineno", node.lineno))
        for i in range(start - 1, min(end, len(self.lines))):
            if self._line_has_waiver(self.lines[i], rule, tokens):
                return True
        return False


class Checker:
    """One invariant: a rule id, a pragma token, and a ``check`` pass.

    Subclasses set:

    ``rule_id``
        stable kebab-case identifier (appears in diagnostics and in the
        universal ``# reprolint: disable=<rule-id> (...)`` pragma);
    ``pragma``
        the rule's own opt-out comment token (``# <pragma> (reason)``);
    ``description``
        one line for ``--list-rules``;
    ``doc_anchor``
        the ``docs/LINTING.md`` section stating the contract.

    and implement :meth:`interested` (path scope, matched against the
    POSIX path string so fixture corpora can opt in by directory layout)
    and :meth:`check`.
    """

    rule_id: str = ""
    pragma: str = ""
    description: str = ""
    doc_anchor: str = "docs/LINTING.md"

    #: extra accepted pragma spellings (legacy aliases).
    pragma_aliases: Sequence[str] = ()

    def interested(self, posix_path: str) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    # -- helpers for subclasses -------------------------------------------

    def pragma_tokens(self) -> List[str]:
        return [self.pragma, *self.pragma_aliases]

    def waived(self, ctx: FileContext, node: ast.AST, *,
               anchor: Optional[ast.AST] = None,
               end_line: Optional[int] = None) -> bool:
        return ctx.waived(node, self.rule_id, self.pragma_tokens(),
                          anchor=anchor, end_line=end_line)

    def diag(self, ctx: FileContext, node: ast.AST, message: str,
             detail: str = "") -> Diagnostic:
        return Diagnostic(rule=self.rule_id, path=ctx.display_path,
                          line=node.lineno,
                          col=getattr(node, "col_offset", 0),
                          message=message, detail=detail)


# ---------------------------------------------------------------------------
# shared AST predicates (guard / scope tracking used by several checkers)
# ---------------------------------------------------------------------------

def root_name(node: ast.AST) -> Optional[str]:
    """The leftmost ``Name`` of an attribute/call chain, or ``None``."""
    while isinstance(node, (ast.Attribute, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def dotted_tail(node: ast.AST) -> Optional[str]:
    """``a.b.c`` → ``"c"`` for attribute chains; bare names pass through."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def test_consults(test: ast.AST, *, calls: Sequence[str] = (),
                  flags: Sequence[str] = ()) -> bool:
    """Does an ``if`` test call one of ``calls`` or read one of ``flags``?"""
    for n in ast.walk(test):
        if isinstance(n, ast.Call):
            name = dotted_tail(n.func)
            if name in calls:
                return True
        elif isinstance(n, ast.Attribute) and n.attr in flags:
            return True
        elif isinstance(n, ast.Name) and n.id in flags:
            return True
    return False


def guarded_by(ctx: FileContext, node: ast.AST, *,
               calls: Sequence[str] = (),
               flags: Sequence[str] = ()) -> bool:
    """Is ``node`` under an ``if`` whose test consults a guard?

    Also recognises the conditional-expression form
    (``x() if GUARD else default``) — the same one-flag-read contract.
    """
    prev = node
    for anc in ctx.ancestors(node):
        if isinstance(anc, ast.If) and test_consults(
                anc.test, calls=calls, flags=flags):
            return True
        if (isinstance(anc, ast.IfExp) and prev is not anc.test
                and test_consults(anc.test, calls=calls, flags=flags)):
            return True
        prev = anc
    return False


def runs_every_iteration(ctx: FileContext, node: ast.AST) -> bool:
    """Is ``node`` inside some loop's body (or a ``while`` test)?

    A ``for`` loop's iterable is evaluated once and does not count.
    """
    child = node
    for anc in ctx.ancestors(node):
        if isinstance(anc, (ast.For, ast.AsyncFor, ast.While)):
            if child in anc.body or child is getattr(anc, "test", None):
                return True
        child = anc
    return False


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted ``*.py`` list."""
    out: List[Path] = []
    for p in paths:
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        else:
            out.append(p)
    return out


def run_files(files: Sequence[Path], checkers: Sequence[Checker], *,
              relative_to: Optional[Path] = None
              ) -> List[Diagnostic]:
    """Run every interested checker over every file; sorted diagnostics."""
    diags: List[Diagnostic] = []
    for path in files:
        display = path.as_posix()
        if relative_to is not None:
            try:
                display = path.resolve().relative_to(
                    relative_to.resolve()).as_posix()
            except ValueError:
                pass
        active = [c for c in checkers if c.interested(display)]
        if not active:
            continue
        ctx = FileContext.parse(path, display)
        for checker in active:
            diags.extend(checker.check(ctx))
    diags.sort(key=lambda d: (d.path, d.line, d.rule))
    return diags


def render_human(diags: Sequence[Diagnostic], files_checked: int,
                 rules: Sequence[str]) -> str:
    lines = [d.render() for d in diags]
    if diags:
        lines.append(f"reprolint: {len(diags)} violation(s) in "
                     f"{files_checked} files ({', '.join(rules)})")
    else:
        lines.append(f"reprolint: OK ({files_checked} files, "
                     f"{len(rules)} rules)")
    return "\n".join(lines)


def render_json(diags: Sequence[Diagnostic], files_checked: int,
                rules: Sequence[str]) -> str:
    counts: dict = {}
    for d in diags:
        counts[d.rule] = counts.get(d.rule, 0) + 1
    return json.dumps({
        "schema": JSON_SCHEMA_VERSION,
        "tool": "reprolint",
        "rules": list(rules),
        "files_checked": files_checked,
        "violations": len(diags),
        "counts_by_rule": counts,
        "diagnostics": [d.to_dict() for d in diags],
    }, indent=2, sort_keys=False)
