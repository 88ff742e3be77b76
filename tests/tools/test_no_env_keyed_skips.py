"""A test may be skipped by what the machine is, never by what the runner says.

The wall-clock guards this suite carries (``helpers.ab_ratio``) run
un-skipped because they assert a ratio; the one legitimate reason to skip
one is a hardware predicate (``os.cpu_count() < 4``).  A skip keyed on an
environment variable lets CI switch a guard off and keep it off while the
number it protects drifts, so every ``skipif`` / ``skip`` under
``tests/`` is scanned and one whose condition reads the process
environment — directly, or through a module-level name assigned from it
— fails here.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parents[1]


def _reads_env(node: ast.AST, tainted=frozenset()) -> bool:
    for sub in ast.walk(node):
        name = getattr(sub, "attr", None) or getattr(sub, "id", None)
        if name in ("environ", "getenv") or name in tainted:
            return True
    return False


def env_keyed_skips(source: str) -> list:
    """Line numbers of the skips in ``source`` that consult the environment."""
    tree = ast.parse(source)
    tainted = frozenset(
        t.id for stmt in tree.body if isinstance(stmt, ast.Assign)
        and _reads_env(stmt.value) for t in stmt.targets
        if isinstance(t, ast.Name))
    lines = []

    def visit(node, guards):
        if isinstance(node, ast.Call):
            fn = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            args = list(node.args) + [k.value for k in node.keywords]
            if fn == "skipif" and any(_reads_env(a, tainted) for a in args):
                lines.append(node.lineno)
            elif fn == "skip" and any(_reads_env(g, tainted) for g in guards):
                lines.append(node.lineno)
        if isinstance(node, (ast.If, ast.IfExp, ast.While)):
            guards = guards + [node.test]
        for child in ast.iter_child_nodes(node):
            visit(child, guards)

    visit(tree, [])
    return lines


@pytest.mark.parametrize("source", [
    # the idiom that kept ten acceptance guards switched off in CI
    '@pytest.mark.skipif("SKIP_PERF" in os.environ, reason="noisy")\n'
    'def test_speedup(): pass\n',
    '@pytest.mark.skipif("X" in __import__("os").environ, reason="noisy")\n'
    'def test_speedup(): pass\n',
    'SIZE = os.environ.get("SIZE", "tiny")\n'
    '@pytest.mark.skipif(SIZE == "tiny", reason="too small")\n'
    'def test_speedup(): pass\n',
    'def test_speedup():\n'
    '    if os.getenv("CI"):\n'
    '        pytest.skip("shared runner")\n',
])
def test_checker_flags_environment_keyed_skips(source):
    assert env_keyed_skips(source)


@pytest.mark.parametrize("source", [
    '@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs 4 cores")\n'
    'def test_scaling(): pass\n',
    'nx = pytest.importorskip("networkx")\n',
    'SEED = int(os.environ.get("SEED", "0"))\n'
    'def test_seeded():\n'
    '    if hist is None:\n'
    '        pytest.skip("histogram not registered")\n',
])
def test_checker_passes_hardware_and_dependency_skips(source):
    assert env_keyed_skips(source) == []


def test_no_test_is_skipped_by_an_environment_variable():
    found = {str(p.relative_to(TESTS)): lines for p in TESTS.rglob("*.py")
             if (lines := env_keyed_skips(p.read_text()))}
    assert found == {}
