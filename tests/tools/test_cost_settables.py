"""Every planner and storage-policy constant steers something.

``grb.engine.cost`` and ``grb.storage.policy`` hold the library's hand-set
settables: module-level ALL-CAPS names that rules and format choosers read
at call time, and that tests monkeypatch to force a path.  A constant that
nothing reads any more decides nothing, yet still looks like a knob, so
every such name must be read somewhere under ``src/repro`` besides its own
assignment.  The plan cache's key (``plancache._cost_fingerprint``) lists
the cost constants by construction, so a read there alone does not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MODULES = ("grb/engine/cost.py", "grb/storage/policy.py")
FINGERPRINT = ("grb/engine/plancache.py", "_cost_fingerprint")


def settables(source: str) -> set:
    """Public ALL-CAPS names assigned at the top level of ``source``."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names |= {t.id for t in targets if isinstance(t, ast.Name)
                  and t.id.isupper() and not t.id.startswith("_")}
    return names


def reads(source: str, skip_function: str = None) -> set:
    """Names ``source`` loads, bare or as an attribute, outside the
    function ``skip_function``."""
    tree = ast.parse(source)
    skipped = {id(n) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == skip_function
               for n in ast.walk(fn)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped or not isinstance(
                getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_checker_finds_settables():
    source = "A = 1\n_B = 2\nc = 3\nD: int = 4\nE, F = 5, 6\n"
    assert settables(source) == {"A", "D"}


def test_checker_counts_loads_not_stores():
    assert reads("A = 1\n") == set()
    assert reads("x = cost.A + B\n") >= {"A", "B"}
    assert "A" not in reads("def key():\n    return (cost.A,)\n",
                            skip_function="key")


def test_every_settable_is_read():
    read = set()
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        read |= reads(path.read_text(), FINGERPRINT[1]
                      if rel == FINGERPRINT[0] else None)
    unread = sorted(f"{module}::{name}" for module in MODULES
                    for name in settables((SRC / module).read_text())
                    if name not in read)
    assert unread == []
