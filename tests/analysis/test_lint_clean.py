"""Tier-1 gate: the repo's own ``src/`` tree checks clean.

This is the test that makes the analyzer load-bearing — a PR that
introduces a tape/dtype/determinism/lock/exception/leak violation
(without a pragma) fails the default pytest run.
Each tree is parsed once per run: the gates share one module-scoped
``check_paths`` result.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import check_paths, relaxed_config

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def src_result():
    return check_paths([REPO_ROOT / "src"])


def test_repo_src_is_lint_clean(src_result):
    assert src_result.files_checked > 50
    details = "\n".join(f.format() for f in src_result.findings)
    assert src_result.clean, f"findings in src/:\n{details}"


def test_benchmarks_are_clean_under_relaxed_profile():
    result = check_paths([REPO_ROOT / "benchmarks"],
                         config=relaxed_config())
    details = "\n".join(f.format() for f in result.findings)
    assert result.clean, f"relaxed findings in benchmarks/:\n{details}"


def test_module_cli_wiring():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", str(REPO_ROOT / "src")],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stderr
