"""Every planner and storage-policy constant steers something.

``grb.engine.cost`` and ``grb.storage.policy`` hold the library's hand-set
settables: module-level ALL-CAPS names that rules and format choosers read
at call time, and that tests monkeypatch to force a path.  A constant that
nothing reads any more decides nothing, yet still looks like a knob, so
every such name must be read somewhere under ``src/repro`` besides its own
assignment.

The scalar settables (the knobs; the format catalogs are tuples) are also
pinned by name: a new knob shows up as an edit of :data:`PINNED`, where a
reviewer sees it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MODULES = ("grb/engine/cost.py", "grb/storage/policy.py")
PINNED = {
    "grb/engine/cost.py": {
        "FUSION_ENABLED", "DOT_PROBE_COST",
        "MASKED_MIN_NNZ", "PUSHPULL_ALPHA", "PUSHPULL_BETA"},
    "grb/storage/policy.py": {"BITMAP_DENSITY", "MATRIX_BITMAP_GRID_CAP"},
}


def settables(source: str, scalar: bool = False) -> set:
    """Public ALL-CAPS names assigned at the top level of ``source``;
    with ``scalar``, only those not bound to a tuple or list."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if scalar and isinstance(node.value, (ast.Tuple, ast.List)):
            continue
        names |= {t.id for t in targets if isinstance(t, ast.Name)
                  and t.id.isupper() and not t.id.startswith("_")}
    return names


def reads(source: str) -> set:
    """Names ``source`` loads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_checker_finds_settables():
    source = "A = 1\n_B = 2\nc = 3\nD: int = 4\nE, F = 5, 6\nG = (7,)\n"
    assert settables(source) == {"A", "D", "G"}
    assert settables(source, scalar=True) == {"A", "D"}


def test_checker_counts_loads_not_stores():
    assert reads("A = 1\n") == set()
    assert reads("x = cost.A + B\n") >= {"A", "B"}


def test_every_settable_is_read():
    read = set()
    for path in SRC.rglob("*.py"):
        read |= reads(path.read_text())
    unread = sorted(f"{module}::{name}" for module in MODULES
                    for name in settables((SRC / module).read_text())
                    if name not in read)
    assert unread == []


def test_settables_are_pinned():
    """The ratchet: 5 cost and 2 policy knobs."""
    got = {module: settables((SRC / module).read_text(), scalar=True)
           for module in MODULES}
    assert got == PINNED
