"""tools/reach.py: the call census over a two-function fixture module."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import reach  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "reach"


def test_census_splits_reached_from_unreached(monkeypatch):
    monkeypatch.syspath_prepend(str(FIXTURE))
    functions = reach.functions_under(FIXTURE / "reachfix")
    assert sorted(f.name for f in functions) == ["called", "never_called"]
    # ``def`` lines count; the generator expression is part of ``called``
    lines = {f.name: f.lines for f in functions}
    assert lines == {"called": 2, "never_called": 5}

    reached = reach.run_targets([["reachfix.two"]])
    rows = reach.census(functions, reached)
    assert list(rows) == ["."]
    assert [f.name for f in rows["."]["reached"]] == ["called"]
    assert [f.name for f in rows["."]["unreached"]] == ["never_called"]
    assert sys.getprofile() is None     # the hook is removed afterwards


def test_main_prints_a_row_per_package(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(FIXTURE))
    assert reach.main(["--src", str(FIXTURE / "reachfix"), "--list",
                       "reachfix.two"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2].split() == [".", "1", "1", "2", "5"]
    assert out[3].split() == ["total", "1", "1", "2", "5"]
    assert out[4:] == ["  not reached: ./two.py:8 never_called (5 lines)"]


def test_rules_counts_the_plans_each_rule_claimed(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(FIXTURE))
    claims = reach.rule_claims([["reachfix.ewise"]])
    assert len(claims) == 14            # a row for every registered rule
    assert {k: n for k, n in claims.items() if n} == {
        ("ewise_mult", "ewise-intersect"): 1,
        ("ewise_add", "ewise-union"): 1,
        ("select", "select-entrywise"): 1,
    }
    # counts are taken across the targets only: a second run reads 3 again
    assert reach.main(["--rules", "reachfix.ewise"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = {tuple(line.split()[:2]): int(line.split()[2])
            for line in out[2:-1]}
    assert rows[("ewise_mult", "ewise-intersect")] == 1
    assert rows[("mxm", "mxm-expand")] == 0
    assert out[-1].split() == ["total", "3"]
