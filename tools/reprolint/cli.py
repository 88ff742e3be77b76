"""``python -m tools.reprolint`` — the CI entry point.

Usage::

    python -m tools.reprolint                       # checks src/repro
    python -m tools.reprolint src/repro --format=json
    python -m tools.reprolint PATH... --rules=obs-gating,cancel-checkpoint
    python -m tools.reprolint --list-rules

Exit codes: ``0`` clean, ``1`` violations found, ``2`` usage or analysis
error (unknown rule, unreadable/syntax-error file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .checkers import all_checkers
from .core import (LintError, iter_python_files, render_human, render_json,
                   run_files)

#: repository root (``tools/reprolint/cli.py`` → two parents up).
REPO_ROOT = Path(__file__).resolve().parents[2]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="reprolint",
        description="Pluggable AST invariant checker for the engine/serve "
                    "contracts (docs/LINTING.md).")
    p.add_argument("paths", nargs="*",
                   help="files or directories to check "
                        "(default: src/repro under the repository root)")
    p.add_argument("--format", choices=("human", "json"), default="human",
                   help="diagnostic output format (default: human)")
    p.add_argument("--output", metavar="FILE",
                   help="also write the report to FILE (same format)")
    p.add_argument("--rules", metavar="ID[,ID...]",
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the registered rules and exit")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    checkers = all_checkers()
    if args.list_rules:
        for c in checkers:
            print(f"{c.rule_id:18} {c.description}")
            print(f"{'':18} pragma: '# {c.pragma} (reason)'  "
                  f"[{c.doc_anchor}]")
        return 0
    if args.rules:
        wanted = [r.strip() for r in args.rules.split(",") if r.strip()]
        by_id = {c.rule_id: c for c in checkers}
        unknown = [r for r in wanted if r not in by_id]
        if unknown:
            print(f"reprolint: unknown rule(s): {', '.join(unknown)} "
                  f"(try --list-rules)", file=sys.stderr)
            return 2
        checkers = [by_id[r] for r in wanted]

    if args.paths:
        paths = [Path(p) for p in args.paths]
        missing = [p for p in paths if not p.exists()]
        if missing:
            print(f"reprolint: no such path: "
                  f"{', '.join(map(str, missing))}", file=sys.stderr)
            return 2
    else:
        paths = [REPO_ROOT / "src" / "repro"]

    files = iter_python_files(paths)
    try:
        diags = run_files(files, checkers, relative_to=REPO_ROOT)
    except LintError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    rules = [c.rule_id for c in checkers]
    render = render_json if args.format == "json" else render_human
    report = render(diags, len(files), rules)
    print(report)
    if args.output:
        Path(args.output).write_text(report + "\n")
    return 1 if diags else 0
