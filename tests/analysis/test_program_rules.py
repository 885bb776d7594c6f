"""Golden-fixture tests for the whole-program rules.

Every seeded bug under ``tests/analysis/fixtures/`` must be reported
with the exact rule id, anchor line and fingerprint; every ``clean_*``
negative must stay silent, and the CLI exit codes must hold. (``src/``
itself checking clean is ``test_lint_clean.py``'s gate.)
"""

from pathlib import Path

import pytest

from repro.analysis import Finding, check_paths
from repro.analysis.cli import main as check_main

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="module")
def result():
    return check_paths([FIXTURES])


def findings_in(result, name):
    path = (FIXTURES / name).as_posix()
    return sorted((f for f in result.findings if f.path == path),
                  key=lambda f: f.line)


def line_of(name, snippet):
    """1-based line of the first source line containing ``snippet``."""
    for lineno, text in enumerate(
            (FIXTURES / name).read_text().splitlines(), start=1):
        if snippet in text:
            return lineno
    raise AssertionError(f"{snippet!r} not in {name}")


def expected_fingerprint(name, line, rule):
    """The fingerprint contract: sha over rule, path and line *text*."""
    text = (FIXTURES / name).read_text().splitlines()[line - 1]
    return Finding(rule=rule, path=(FIXTURES / name).as_posix(), line=line,
                   col=0, message="", line_text=text).fingerprint


# ------------------------------------------------------------------- lockset

def test_lockset_flags_lock_free_read_through_helper(result):
    findings = findings_in(result, "race_helper.py")
    assert [f.rule for f in findings] == ["lockset"]
    finding = findings[0]
    # anchored at the unguarded read inside the helper, naming both sites
    assert finding.line == line_of("race_helper.py",
                                   "return self._count")
    assert "`self._count`" in finding.message
    assert "_unlocked_read" in finding.message
    assert "increment" in finding.message
    assert finding.fingerprint == expected_fingerprint(
        "race_helper.py", finding.line, "lockset")


def test_lockset_flags_contradicted_docstring_contract(result):
    findings = findings_in(result, "race_contract.py")
    assert [f.rule for f in findings] == ["lockset"]
    finding = findings[0]
    # anchored at the bare-handed call site in add_fast
    assert finding.line == line_of("race_contract.py",
                                   "    def add_fast") + 1
    assert "self._lock" in finding.message
    assert "contradicting" in finding.message
    assert finding.fingerprint == expected_fingerprint(
        "race_contract.py", finding.line, "lockset")


def test_lock_taken_in_caller_is_clean(result):
    assert findings_in(result, "clean_locking.py") == []


# ------------------------------------------------------------- resource-leak

def test_leaked_pipe_end_is_flagged_and_clean_variant_is_not(result):
    findings = findings_in(result, "leaked_pipe.py")
    # exactly one: handshake leaks `parent`, handshake_clean is silent
    assert [f.rule for f in findings] == ["resource-leak"]
    finding = findings[0]
    assert finding.line == line_of("leaked_pipe.py",
                                   "parent, child = Pipe()")
    assert "`parent`" in finding.message
    assert "Pipe connection" in finding.message
    assert finding.fingerprint == expected_fingerprint(
        "leaked_pipe.py", finding.line, "resource-leak")


def test_fixture_sweep_is_exhaustive(result):
    """No finding outside the ones the tests above pin down."""
    flagged = {Path(f.path).name for f in result.findings}
    assert flagged == {"race_helper.py", "race_contract.py",
                       "leaked_pipe.py"}


# ----------------------------------------------------------------------- CLI

def test_analyze_cli_exit_codes():
    dirty = str(FIXTURES / "leaked_pipe.py")
    clean = str(FIXTURES / "clean_locking.py")
    assert check_main([dirty]) == 1
    assert check_main([clean]) == 0


def test_stale_pragma_audit_reports_and_clears(tmp_path, capsys):
    used = ("import time\n"
            "created = time.time()  # repro: disable=determinism\n")
    unused = "x = 1  # repro: disable=determinism\n"
    (tmp_path / "used.py").write_text(used)
    (tmp_path / "unused.py").write_text(unused)
    exit_code = check_main(["--stale-pragmas", str(tmp_path)])
    output = capsys.readouterr().out
    assert exit_code == 1
    assert "unused.py:1" in output
    assert output.count("stale pragma") == 1
    (tmp_path / "unused.py").write_text("x = 1\n")
    assert check_main(["--stale-pragmas", str(tmp_path)]) == 0
