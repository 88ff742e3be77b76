"""tools/reprolint: the pluggable AST invariant checker (docs/LINTING.md).

Three layers of coverage:

* the fixture corpus — every bad snippet yields *exactly* its expected
  diagnostic, every good twin passes (so a checker regression shows up
  as a one-line diff against ``EXPECTED_BAD``);
* the framework contract — pragma opt-outs (reason required, universal
  ``reprolint: disable=`` form), rule filtering, JSON schema, CLI exit
  codes;
* the shipped tree — ``src/repro`` lints clean with every rule on (the
  CI gate, pinned here so a local run catches it before the lint job).
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import (all_checkers, checkers_by_id,  # noqa: E402
                             iter_python_files, run_files)
from tools.reprolint.cli import main  # noqa: E402
from tools.reprolint.core import JSON_SCHEMA_VERSION  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"

#: bad fixture → (rule, line) of the one diagnostic it must yield.
EXPECTED_BAD = {
    "ungated_record.py": ("obs-gating", 5),
    "ungated_fire.py": ("fault-gating", 5),
    "lagraph/algorithms/while_loop.py": ("cancel-checkpoint", 5),
    "lagraph/algorithms/for_loop.py": ("cancel-checkpoint", 5),
    "lagraph/algorithms/snapshot_per_round.py": ("snapshot-in-loop", 7),
    "grb/engine/inline_tunable.py": ("cost-constants", 3),
    "grb/engine/scatter_by_hand.py": ("store-mutation", 5),
    "grb/fold_per_tuple.py": ("op-call-in-loop", 15),
    "serve/held_lock_dispatch.py": ("lock-discipline", 8),
    "serve/held_lock_wait.py": ("lock-discipline", 7),
    "gc/finalizer_lock.py": ("lock-discipline", 14),
    "atexit_unbounded.py": ("lock-discipline", 11),
}


def _lint(paths):
    return run_files(iter_python_files([Path(p) for p in paths]),
                     all_checkers(), relative_to=REPO_ROOT)


# ---------------------------------------------------------------------------
# fixture corpus
# ---------------------------------------------------------------------------

def test_bad_corpus_is_exhaustive():
    on_disk = {p.relative_to(BAD).as_posix()
               for p in BAD.rglob("*.py")}
    assert on_disk == set(EXPECTED_BAD)


@pytest.mark.parametrize("rel", sorted(EXPECTED_BAD))
def test_bad_fixture_fires_exactly_its_diagnostic(rel):
    rule, line = EXPECTED_BAD[rel]
    diags = _lint([BAD / rel])
    assert [(d.rule, d.line) for d in diags] == [(rule, line)], \
        [d.render() for d in diags]


def test_every_rule_has_a_bad_fixture():
    covered = {rule for rule, _ in EXPECTED_BAD.values()}
    assert covered == set(checkers_by_id())


def test_good_corpus_is_clean():
    diags = _lint([GOOD])
    assert diags == [], [d.render() for d in diags]


# ---------------------------------------------------------------------------
# pragma opt-outs
# ---------------------------------------------------------------------------

def _algorithm_file(tmp_path, body):
    d = tmp_path / "lagraph" / "algorithms"
    d.mkdir(parents=True)
    f = d / "snippet.py"
    f.write_text(body)
    return f


def test_pragma_without_reason_does_not_waive(tmp_path):
    f = _algorithm_file(tmp_path,
                        "def go(x, step):\n"
                        "    while x.nvals:  # cancel: checkpoint-exempt\n"
                        "        x = step(x)\n")
    assert [d.rule for d in _lint([f])] == ["cancel-checkpoint"]


def test_pragma_with_reason_waives(tmp_path):
    f = _algorithm_file(
        tmp_path,
        "def go(x, step):\n"
        "    while x.nvals:  # cancel: checkpoint-exempt (bounded)\n"
        "        x = step(x)\n")
    assert _lint([f]) == []


def test_pragma_on_line_above_header_waives(tmp_path):
    f = _algorithm_file(
        tmp_path,
        "def go(x, step):\n"
        "    # cancel: checkpoint-exempt (bounded by construction)\n"
        "    while x.nvals:\n"
        "        x = step(x)\n")
    assert _lint([f]) == []


def test_inner_pragma_does_not_waive_outer_loop(tmp_path):
    f = _algorithm_file(
        tmp_path,
        "def go(x, step, items):\n"
        "    while x.nvals:\n"
        "        for i in items:  # cancel: checkpoint-exempt (tiny scan)\n"
        "            step(i)\n")
    assert [d.line for d in _lint([f]) if d.rule == "cancel-checkpoint"] \
        == [2]


def test_universal_disable_pragma(tmp_path):
    f = tmp_path / "snippet.py"
    f.write_text(
        "def emit(event, obs):\n"
        "    # reprolint: disable=obs-gating (callers hold the guard)\n"
        "    obs.decision(event)\n")
    assert _lint([f]) == []


def test_universal_disable_is_per_rule(tmp_path):
    f = tmp_path / "snippet.py"
    f.write_text(
        "def emit(event, obs):\n"
        "    # reprolint: disable=fault-gating (wrong rule named)\n"
        "    obs.decision(event)\n")
    assert [d.rule for d in _lint([f])] == ["obs-gating"]


# ---------------------------------------------------------------------------
# CLI: exit codes, rule filtering, JSON report
# ---------------------------------------------------------------------------

def test_cli_exit_codes(capsys):
    assert main([str(GOOD)]) == 0
    assert main([str(BAD)]) == 1
    assert main([str(BAD / "nope.py")]) == 2
    assert main([str(GOOD), "--rules=no-such-rule"]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in checkers_by_id():
        assert rule in out


def test_cli_rule_filter(capsys):
    assert main([str(BAD), "--rules=obs-gating"]) == 1
    out = capsys.readouterr().out
    assert "obs-gating:" in out
    assert "cancel-checkpoint:" not in out


def test_cli_syntax_error_is_analysis_error(tmp_path, capsys):
    f = tmp_path / "broken.py"
    f.write_text("def f(:\n")
    assert main([str(f)]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_json_report_schema(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main([str(BAD), "--format=json",
                 "--output", str(out_file)]) == 1
    printed = capsys.readouterr().out
    report = json.loads(out_file.read_text())
    assert json.loads(printed) == report
    assert report["schema"] == JSON_SCHEMA_VERSION
    assert report["tool"] == "reprolint"
    assert report["rules"] == sorted(checkers_by_id(),
                                     key=report["rules"].index)
    assert report["files_checked"] == len(EXPECTED_BAD)
    assert report["violations"] == len(EXPECTED_BAD)
    assert sum(report["counts_by_rule"].values()) == report["violations"]
    for d in report["diagnostics"]:
        assert set(d) == {"rule", "path", "line", "col", "message",
                          "detail"}
        assert d["rule"] in report["counts_by_rule"]


def test_diagnostics_are_stable_strings(capsys):
    main([str(BAD / "ungated_record.py")])
    out = capsys.readouterr().out.splitlines()[0]
    assert out.startswith("obs-gating:")
    head, _, _ = out.partition(": ")
    rule, path, line = head.rsplit(":", 2)
    assert rule == "obs-gating" and line == "5"
    assert path.endswith("ungated_record.py")


# ---------------------------------------------------------------------------
# the shipped tree
# ---------------------------------------------------------------------------

def test_shipped_tree_is_clean():
    diags = _lint([REPO_ROOT / "src" / "repro"])
    assert diags == [], [d.render() for d in diags]
