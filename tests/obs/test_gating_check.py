"""The ``obs-gating`` reprolint rule: the lint-time observability cost
contract (``tools.reprolint.checkers.obs_gating``)."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from tools.reprolint.checkers.obs_gating import ObsGating  # noqa: E402
from tools.reprolint.core import FileContext  # noqa: E402


def check_file(path):
    """``[(lineno, label), ...]`` of ungated observability calls."""
    return ObsGating().violations(FileContext.parse(Path(path)))


def test_repository_sources_pass():
    files = sorted((_ROOT / "src" / "repro").rglob("*.py"))
    assert files
    for path in files:
        if ObsGating().interested(path.as_posix()):
            assert check_file(path) == [], str(path)


def test_obs_package_is_exempt():
    assert not ObsGating().interested("src/repro/obs/profile.py")
    assert ObsGating().interested("src/repro/grb/engine/rules.py")


def test_ungated_record_flagged(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(plan):\n"
        "    obs.decision({'op': plan.op})\n")
    (violation,) = check_file(bad)
    assert violation == (2, "obs.decision")


def test_guarded_record_passes(tmp_path):
    good = tmp_path / "good.py"
    good.write_text(
        "def f(plan):\n"
        "    if obs.deciding():\n"
        "        obs.decision({'op': plan.op})\n")
    assert check_file(good) == []


def test_compound_guard_passes(tmp_path):
    good = tmp_path / "good2.py"
    good.write_text(
        "def f(x):\n"
        "    if x is not None and _profile.deciding():\n"
        "        _profile.decision(x)\n")
    assert check_file(good) == []


def test_pragma_waives(tmp_path):
    waived = tmp_path / "waived.py"
    waived.write_text(
        "def _emit(event):\n"
        "    # obs: gated-by-caller (sites guard on obs.deciding())\n"
        "    obs.decision(event)\n")
    assert check_file(waived) == []


def test_ungated_metric_bump_flagged(tmp_path):
    bad = tmp_path / "bump.py"
    bad.write_text(
        "def f(op, rule):\n"
        "    _DISPATCHES.labels(op, rule).inc()\n")
    (violation,) = check_file(bad)
    assert violation[0] == 2 and "inc" in violation[1]


def test_enabled_flag_guard_passes(tmp_path):
    good = tmp_path / "flag.py"
    good.write_text(
        "def f(op, rule):\n"
        "    if _metrics.ENABLED:\n"
        "        _DISPATCHES.labels(op, rule).inc()\n")
    assert check_file(good) == []


def test_lowercase_set_not_flagged(tmp_path):
    ok = tmp_path / "lower.py"
    ok.write_text(
        "def f(msg, e):\n"
        "    msg.set(str(e))\n")
    assert check_file(ok) == []


def test_ungated_instant_flagged(tmp_path):
    bad = tmp_path / "inst.py"
    bad.write_text(
        "def f(name):\n"
        "    _trace.instant('x:' + name)\n")
    (violation,) = check_file(bad)
    assert violation == (2, "_trace.instant")


def test_stripped_real_source_is_flagged(tmp_path):
    """Self-test against a real engine module: stripping its guards must
    make the checker fire — proves the check still *sees* the tree's
    actual call-site idioms, not just synthetic fixtures."""
    real = _ROOT / "src" / "repro" / "grb" / "engine" / "rules.py"
    source = real.read_text()
    assert "if _metrics.ENABLED:" in source
    assert "obs: gated-by-caller" in source
    assert check_file(real) == []         # shipped file is gated
    stripped = source.replace("if _metrics.ENABLED:", "if _unguarded:")
    stripped = stripped.replace("obs: gated-by-caller", "obs pragma removed")
    variant = tmp_path / "rules_stripped.py"
    variant.write_text(stripped)
    violations = check_file(variant)
    assert violations, "stripping guards must surface the metric bumps"
    assert all(isinstance(line, int) and isinstance(label, str)
               for line, label in violations)
