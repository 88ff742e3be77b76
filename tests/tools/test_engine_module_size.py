"""No module of ``repro.grb.engine`` grows past 500 lines.

The engine is split by rule family — write-back, ``mxm``, ``mxv``/``vxm``,
entry-wise, update/assign — each module registering its rules beside its
kernel adapter.  A family that outgrows the limit is the sign that it holds
two jobs, or a path no workload claims: split it or delete the path, and
do not raise the limit.
"""

from pathlib import Path

ENGINE = Path(__file__).resolve().parents[2] / "src" / "repro" / "grb" / "engine"
LIMIT = 500


def test_no_engine_module_exceeds_the_limit():
    sizes = {p.name: len(p.read_text().splitlines())
             for p in ENGINE.glob("*.py")}
    assert "rules.py" in sizes
    over = {name: n for name, n in sizes.items() if n > LIMIT}
    assert not over, f"engine modules over {LIMIT} lines: {over}"
