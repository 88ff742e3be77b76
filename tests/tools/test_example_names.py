"""Every ``repro`` name an example reads still exists.

CI's example smoke runs each ``examples/*.py`` end to end; this check finds
a deleted or renamed public name without running any of them.  Each
example is parsed with :mod:`ast`: the names its imports bind to ``repro``
modules (``from repro import lagraph as lg``) are tracked, and every
``alias.attr[.attr…]`` chain read through one — like every name imported
``from repro…`` — must resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def repro_reads(source: str) -> set:
    """``(dotted name, line)`` of every ``repro`` name ``source`` reads."""
    tree = ast.parse(source)
    aliases = {}        # local name -> the dotted path it is bound to
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "repro":
                    local = a.asname or "repro"
                    aliases[local] = a.name if a.asname else "repro"
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "repro"):
            for a in node.names:
                path = f"{node.module}.{a.name}"
                aliases[a.asname or a.name] = path
                reads.add((path, node.lineno))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases:
            reads.add((".".join([aliases[node.id], *reversed(chain)]),
                       node.lineno))
    return reads


def resolve(dotted: str):
    """The object ``dotted`` names: attributes, importing a submodule that
    is not an attribute yet."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def test_checker_finds_reads():
    source = ("import numpy as np\n"
              "import repro.grb as g\n"
              "from repro import lagraph as lg\n"
              "from repro.gap import generators\n"
              "lg.bfs(x, 0)\n"
              "generators.road(side=4).A.nvals\n"
              "g.Matrix.from_coo\n"
              "np.zeros(3)\n")
    assert {name for name, _ in repro_reads(source)} >= {
        "repro.lagraph", "repro.gap.generators", "repro.lagraph.bfs",
        "repro.grb.Matrix.from_coo"}
    assert not any(name.startswith("numpy") or "road.A" in name
                   for name, _ in repro_reads(source))


def test_checker_flags_a_missing_name():
    assert resolve("repro.lagraph.msbfs_parents") is not None
    with pytest.raises(ModuleNotFoundError):
        resolve("repro.lagraph.no_such_kernel")


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_names_resolve(path):
    missing = []
    for name, line in sorted(repro_reads(path.read_text())):
        try:
            resolve(name)
        except (AttributeError, ImportError):
            missing.append(f"{path.name}:{line}: {name}")
    assert missing == []
