"""Call census: which functions of a package does a program reach?

Usage (from the repository root)::

    python -m tools.reach [--src src/repro] [--list] \\
        "bench.run --workload serve_burst --trace 0 --quick" ["MODULE ARGS" ...]
    python -m tools.reach --rules "MODULE ARGS" ["MODULE ARGS" ...]

Each quoted argument is a ``python -m`` target with its arguments.  The
targets run one after another in this process, as ``__main__``, under
``sys.setprofile`` and ``threading.setprofile``; a ``SystemExit`` from a
target ends that target only.  Every Python-level call is recorded by its
code object's ``(file, co_firstlineno)``.

The functions under ``--src`` are found by compiling each ``.py`` file
there and walking its code objects.  Lambdas, comprehensions and generator
expressions count as part of the function that holds them; module and
class bodies are not functions.  A function's *lines* are the distinct
source lines its code (and that of the expressions it holds) maps to: its
``def`` line and every statement line, not docstrings, comments or blank
lines.

The census prints one row per package (directory under ``--src``): the
functions and lines reached, and those not reached.  ``--list`` also names
every unreached function.  Standard library only.

``--rules`` takes the planner's census instead: the targets run with no
profile hook (a time-bounded target then does the work it does on its
own), and one row per registered ``(op, rule)`` prints how many plans it
claimed, read from the always-on ``grb_dispatch_total`` counter of
:mod:`repro.obs.metrics` as the difference across the targets.  A rule
that claimed nothing prints 0.  The package under ``--src`` is imported
from its parent directory.
"""

from __future__ import annotations

import argparse
import os
import runpy
import shlex
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

__all__ = ["Function", "functions_under", "run_targets", "census",
           "rule_claims", "main"]

_CO_OPTIMIZED = 0x0001      # set on function code, clear on module/class


@dataclass(frozen=True)
class Function:
    package: str        # directory relative to the source root ("." = root)
    path: str           # real path of the defining file
    firstlineno: int
    name: str
    lines: int


def _folded(code) -> Set[int]:
    """Lines of ``code`` plus those of the anonymous code it holds."""
    out = {ln for _, _, ln in code.co_lines() if ln is not None}
    for const in code.co_consts:
        if hasattr(const, "co_code") and const.co_name.startswith("<"):
            out |= _folded(const)
    return out


def _named_functions(code, prefix: str = "") -> Iterable:
    """``(qualname, code)`` of every named function below ``code``.  The
    qualified name is built here: ``co_qualname`` is new in Python 3.11."""
    for const in code.co_consts:
        if not hasattr(const, "co_code"):
            continue
        name = prefix + const.co_name
        if const.co_flags & _CO_OPTIMIZED:
            if not const.co_name.startswith("<"):
                yield name, const
            name += ".<locals>"
        yield from _named_functions(const, name + ".")


def functions_under(root: Path) -> List[Function]:
    """Every named function defined in a ``.py`` file below ``root``."""
    root = Path(root).resolve()
    found = []
    for path in sorted(root.rglob("*.py")):
        real = os.path.realpath(path)
        module = compile(path.read_text(), real, "exec")
        package = path.parent.relative_to(root).as_posix()
        for name, code in _named_functions(module):
            # the ``def`` line is in ``co_lines()`` only from Python 3.11
            lines = _folded(code) | {code.co_firstlineno}
            found.append(Function(package, real, code.co_firstlineno,
                                  name, len(lines)))
    return found


def run_targets(targets: Iterable[List[str]],
                profile: bool = True) -> Set[Tuple[str, int]]:
    """Run each ``[module, *args]`` as ``python -m`` would, in process;
    returns the ``(file, co_firstlineno)`` of every Python call made
    (nothing, with ``profile=False``: the targets then run unhooked)."""
    seen: Set = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    argv = sys.argv
    try:
        for module, *args in targets:
            sys.argv = [module, *args]
            if profile:
                threading.setprofile(hook)
                sys.setprofile(hook)
            try:
                runpy.run_module(module, run_name="__main__", alter_sys=True)
            except SystemExit:
                pass
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
    finally:
        sys.argv = argv
    # a pool thread a target left running may still be adding calls
    return {(os.path.realpath(c.co_filename), c.co_firstlineno)
            for c in frozenset(seen)}


def _dispatches() -> Dict[Tuple[str, str], int]:
    from repro.obs import metrics
    counter = metrics.REGISTRY.get("grb_dispatch_total")
    if counter is None:         # the engine was never imported
        return {}
    return {labels: child.value for labels, child in counter.samples()}


def rule_claims(targets: Iterable[List[str]]
                ) -> Dict[Tuple[str, str], int]:
    """``{(op, rule): plans claimed}`` while the targets ran, for every
    registered rule (registration order; 0 for a rule nothing claimed).
    ``repro`` must be importable."""
    import repro.grb  # noqa: F401  (registers the rules and their counters)
    before = _dispatches()
    run_targets(targets, profile=False)
    return {key: n - before.get(key, 0)
            for key, n in _dispatches().items()}


def census(functions: List[Function], reached: Set[Tuple[str, int]]
           ) -> Dict[str, dict]:
    """Per package: ``{"reached": [...], "unreached": [...]}`` functions."""
    rows: Dict[str, dict] = {}
    for f in functions:
        row = rows.setdefault(f.package, {"reached": [], "unreached": []})
        hit = (f.path, f.firstlineno) in reached
        row["reached" if hit else "unreached"].append(f)
    return dict(sorted(rows.items()))


def _format(rows: Dict[str, dict], listing: bool) -> str:
    head = (f"{'package':<24} {'fns reached':>11} {'not':>5} "
            f"{'lines reached':>13} {'not':>6}")
    out = [head, "-" * len(head)]
    total = [0, 0, 0, 0]
    for package, row in rows.items():
        cells = [len(row["reached"]), len(row["unreached"]),
                 sum(f.lines for f in row["reached"]),
                 sum(f.lines for f in row["unreached"])]
        total = [t + c for t, c in zip(total, cells)]
        out.append(f"{package:<24} {cells[0]:>11} {cells[1]:>5} "
                   f"{cells[2]:>13} {cells[3]:>6}")
    out.append(f"{'total':<24} {total[0]:>11} {total[1]:>5} "
               f"{total[2]:>13} {total[3]:>6}")
    if listing:
        for package, row in rows.items():
            for f in row["unreached"]:
                out.append(f"  not reached: {package}/"
                           f"{Path(f.path).name}:{f.firstlineno} "
                           f"{f.name} ({f.lines} lines)")
    return "\n".join(out)


def _format_rules(claims: Dict[Tuple[str, str], int]) -> str:
    width = max((len(rule) for _, rule in claims), default=4)
    head = f"{'op':<14} {'rule':<{width}} {'claims':>9}"
    out = [head, "-" * len(head)]
    for (op, rule), n in claims.items():
        out.append(f"{op:<14} {rule:<{width}} {n:>9}")
    out.append(f"{'total':<14} {'':<{width}} {sum(claims.values()):>9}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tools.reach",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(
        Path(__file__).resolve().parent.parent / "src" / "repro"),
        help="package directory to take the census of")
    parser.add_argument("--list", action="store_true",
                        help="name every function not reached")
    parser.add_argument("--rules", action="store_true",
                        help="print plans claimed per (op, rule) instead")
    parser.add_argument("targets", nargs="+",
                        help='quoted "MODULE ARGS..." python -m targets')
    opts = parser.parse_args(argv)
    targets = [shlex.split(t) for t in opts.targets]
    if opts.rules:
        parent = str(Path(opts.src).resolve().parent)
        if parent not in sys.path:
            sys.path.insert(0, parent)
        print(_format_rules(rule_claims(targets)))
        return 0
    functions = functions_under(Path(opts.src))
    reached = run_targets(targets)
    print(_format(census(functions, reached), opts.list))
    return 0


if __name__ == "__main__":
    sys.exit(main())
