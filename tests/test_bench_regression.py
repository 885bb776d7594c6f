"""Optional performance-regression gate (deselected from tier-1).

Marked ``bench_regression`` and excluded by the default ``addopts`` in
``pyproject.toml`` because it re-runs the kernel micro-benchmarks
(~30 s). Opt in with::

    PYTHONPATH=src python -m pytest -m bench_regression
"""

import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.bench_regression
def test_kernels_not_slower_than_committed_baseline():
    sys.path.insert(0, str(SCRIPTS))
    try:
        from check_bench_regression import BASELINE, run_check
    finally:
        sys.path.pop(0)
    assert BASELINE.exists(), "benchmarks/BENCH_kernels.json not committed"
    failures = run_check()
    assert not failures, "\n".join(failures)


@pytest.mark.bench_regression
def test_serving_not_slower_than_committed_baseline():
    sys.path.insert(0, str(SCRIPTS))
    try:
        from check_bench_regression import SERVING_BASELINE, run_serving_check
    finally:
        sys.path.pop(0)
    assert SERVING_BASELINE.exists(), \
        "benchmarks/BENCH_serving.json not committed"
    failures = run_serving_check()
    assert not failures, "\n".join(failures)


@pytest.mark.bench_regression
def test_sanitize_overhead_and_quality_hold_against_baseline():
    sys.path.insert(0, str(SCRIPTS))
    try:
        from check_bench_regression import (SANITIZE_BASELINE,
                                            run_sanitize_check)
    finally:
        sys.path.pop(0)
    assert SANITIZE_BASELINE.exists(), \
        "benchmarks/BENCH_sanitize.json not committed"
    failures = run_sanitize_check()
    assert not failures, "\n".join(failures)


@pytest.mark.bench_regression
def test_sharding_speedup_and_identity_hold_against_baseline():
    sys.path.insert(0, str(SCRIPTS))
    try:
        from check_bench_regression import (SHARDING_BASELINE,
                                            run_sharding_check)
    finally:
        sys.path.pop(0)
    assert SHARDING_BASELINE.exists(), \
        "benchmarks/BENCH_sharding.json not committed"
    failures = run_sharding_check()
    assert not failures, "\n".join(failures)


@pytest.mark.bench_regression
def test_durability_contract_holds_against_committed_baseline():
    sys.path.insert(0, str(SCRIPTS))
    try:
        from check_bench_regression import (DURABILITY_BASELINE,
                                            run_durability_check)
    finally:
        sys.path.pop(0)
    assert DURABILITY_BASELINE.exists(), \
        "benchmarks/BENCH_durability.json not committed"
    failures = run_durability_check()
    assert not failures, "\n".join(failures)


def test_only_flag_parses_comma_separated_suite_lists():
    sys.path.insert(0, str(SCRIPTS))
    try:
        from check_bench_regression import KNOWN_SUITES, _parse_only
    finally:
        sys.path.pop(0)
    assert _parse_only("kernels") == {"kernels"}
    assert _parse_only("kernels,ann, durability") == {"kernels", "ann",
                                                      "durability"}
    assert _parse_only("all") == set(KNOWN_SUITES)
    with pytest.raises(ValueError):
        _parse_only("kernels,bogus")
    with pytest.raises(ValueError):
        _parse_only("resilience")
    with pytest.raises(ValueError):
        _parse_only(" , ")


def test_inference_kernel_rows_gate_on_identity_not_on_time():
    import copy
    import json
    sys.path.insert(0, str(SCRIPTS))
    try:
        from check_bench_regression import (BASELINE, IDENTITY_ONLY_KERNELS,
                                            compare_reports)
    finally:
        sys.path.pop(0)
    baseline = json.loads(BASELINE.read_text())
    assert "embed_single" in IDENTITY_ONLY_KERNELS
    for name in IDENTITY_ONLY_KERNELS:
        assert baseline["kernels"][name]["identical"] is True
        slower = copy.deepcopy(baseline)
        slower["kernels"][name]["after_s"] *= 10.0
        assert compare_reports(baseline, slower) == []
        wrong = copy.deepcopy(baseline)
        wrong["kernels"][name]["identical"] = False
        assert len(compare_reports(baseline, wrong)) == 1


def test_store_mutation_row_gates_on_the_shape_of_its_cost():
    import copy
    import json
    sys.path.insert(0, str(SCRIPTS))
    try:
        from check_bench_regression import BASELINE, compare_reports
    finally:
        sys.path.pop(0)
    baseline = json.loads(BASELINE.read_text())
    row = baseline["kernels"]["store_mutation"]
    assert row["identical"] is True and row["flat_in_n"] is True
    steep = copy.deepcopy(baseline)
    steep["kernels"]["store_mutation"].update(flat_in_n=False,
                                              after_scaling=40.0)
    failures = compare_reports(baseline, steep)
    assert len(failures) == 1 and "O(N)" in failures[0]
