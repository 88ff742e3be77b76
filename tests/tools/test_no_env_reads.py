"""The library is configured through its API, never through the environment.

Every runtime choice in ``src/repro`` is a module constant
(``grb.engine.cost``, ``grb.storage.policy``) or a keyword argument, so a
test or a benchmark that changes one says so in code.  A knob read from
``os.environ`` changes behaviour without a trace in the call site, so every
module under ``src/repro`` is scanned and one that reads the process
environment — ``os.environ``, ``os.getenv`` or either name imported on its
own — fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_ENV_NAMES = ("environ", "environb", "getenv", "getenvb")


def env_reads(source: str) -> list:
    """Line numbers in ``source`` that touch the process environment."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            hit = any(a.name in _ENV_NAMES for a in node.names)
        else:
            hit = (getattr(node, "attr", None) in _ENV_NAMES
                   or getattr(node, "id", None) in _ENV_NAMES)
        if hit:
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("source", [
    'import os\nWORKERS = int(os.environ.get("WORKERS", "0"))\n',
    'import os\ndef workers():\n    return os.getenv("WORKERS")\n',
    'from os import environ\n',
    'from os import getenv as _g\n',
    'import os\nif "DEBUG" in os.environ: pass\n',
])
def test_checker_flags_environment_reads(source):
    assert env_reads(source)


@pytest.mark.parametrize("source", [
    'import os\nN = os.cpu_count()\n',
    'from os import path\n',
    'ENVIRONMENT = "prod"\n',
])
def test_checker_passes_other_os_use(source):
    assert env_reads(source) == []


def test_src_reads_no_environment_variable():
    found = {str(p.relative_to(SRC)): lines for p in SRC.rglob("*.py")
             if (lines := env_reads(p.read_text()))}
    assert found == {}
