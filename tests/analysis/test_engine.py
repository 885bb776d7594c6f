"""Engine and CLI behaviour: file walking, syntax errors, fingerprints,
JSON output and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Finding, check_paths, check_source
from repro.analysis.cli import main as check_main
from repro.analysis.engine import SYNTAX_ERROR_RULE

DIRTY = "import time\ndeadline = time.time() + 5\n"
CLEAN = "import time\nstart = time.monotonic()\n"


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "dirty.py").write_text(DIRTY)
    (tmp_path / "pkg" / "clean.py").write_text(CLEAN)
    return tmp_path


# -------------------------------------------------------------------- engine

def test_analyze_paths_walks_directories(tree):
    result = check_paths([tree / "pkg"])
    assert result.files_checked == 2
    assert [f.rule for f in result.findings] == ["determinism"]
    assert not result.clean
    assert "2 file(s) checked" in result.summary()


def test_analyze_paths_rejects_non_python(tmp_path):
    (tmp_path / "notes.txt").write_text("hi")
    with pytest.raises(FileNotFoundError):
        check_paths([tmp_path / "notes.txt"])


def test_syntax_error_becomes_finding():
    findings = check_source("def broken(:\n", "src/x.py")
    assert [f.rule for f in findings] == [SYNTAX_ERROR_RULE]
    assert "cannot parse" in findings[0].message


def test_finding_format_and_fingerprint_stability():
    finding = Finding(rule="determinism", path="a.py", line=3, col=7,
                      message="m", line_text="  t = time.time()")
    assert finding.format() == "a.py:3:7: determinism: m"
    # The fingerprint tracks the line *text*, not its number.
    moved = Finding(rule="determinism", path="a.py", line=99, col=7,
                    message="m", line_text="t = time.time()")
    assert finding.fingerprint == moved.fingerprint
    edited = Finding(rule="determinism", path="a.py", line=3, col=7,
                     message="m", line_text="t = time.monotonic()")
    assert finding.fingerprint != edited.fingerprint


# ----------------------------------------------------------------------- CLI

def test_cli_exit_codes_and_json(tree, capsys):
    dirty = str(tree / "pkg" / "dirty.py")
    clean = str(tree / "pkg" / "clean.py")

    assert check_main([clean]) == 0
    assert check_main([dirty]) == 1
    out = capsys.readouterr().out
    assert "determinism" in out

    assert check_main([dirty, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert [f["rule"] for f in payload["findings"]] == ["determinism"]

    assert check_main([str(tree / "nope.txt")]) == 2
    assert check_main([dirty, "--rules", "not-a-rule"]) == 2
    # a rule subset would make every other rule's pragmas look stale
    assert check_main([dirty, "--rules", "lockset", "--stale-pragmas"]) == 2


def test_cli_rules_selection_and_relaxed(tree):
    dirty = str(tree / "pkg" / "dirty.py")
    # Only the lock rule: the wall-clock read is out of scope.
    assert check_main([dirty, "--rules", "lockset"]) == 0
    # The relaxed (benchmarks) profile drops determinism entirely.
    assert check_main([dirty, "--relaxed"]) == 0


def test_cli_list_rules(capsys):
    assert check_main(["--list-rules"]) == 0
    listed = [line.split()[0]
              for line in capsys.readouterr().out.splitlines()]
    assert listed == sorted([
        "tape-discipline", "dtype-discipline", "determinism",
        "durability-discipline", "exception-hygiene", "api-hygiene",
        "lockset", "resource-leak"])


def test_module_cli_takes_flags_before_paths(tree):
    """``python -m repro check`` parses its own flags: argv that leads
    with one (which a REMAINDER forward rejects) reaches the analyzer."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def repro_check(*argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", "check", *argv],
            capture_output=True, text=True, cwd=tree, env=env)

    listed = repro_check("--list-rules")
    assert listed.returncode == 0, listed.stderr
    assert "lockset" in listed.stdout and "determinism" in listed.stdout
    dirty = repro_check(str(tree / "pkg" / "dirty.py"))
    assert dirty.returncode == 1, dirty.stderr
    assert "determinism" in dirty.stdout
