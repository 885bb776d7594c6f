"""The command itself, in --quick mode: names, determinism of inputs."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

SYSTEM = Path(__file__).resolve().parent.parent
NAME_RULE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = run.load_spec()


def _run_quick(workload, trace, tmp_path):
    out = tmp_path / f"{workload}-{trace}.json"
    done = subprocess.run(
        [sys.executable, str(SYSTEM / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stdout[-1500:] + done.stderr[-1500:]
    return done.stdout, json.loads(out.read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_prints_exactly_the_declared_names(workload, tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        stdout, report = _run_quick(workload, trace, tmp_path)
        last = json.loads(stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: m["unit"] for name, m in last["metrics"].items()} \
            == declared
        assert all(isinstance(m["value"], float)
                   for m in last["metrics"].values())
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in last["metrics"].values())
        assert "NOT comparable" in stdout and report["comparable"] is False
        assert report["env"]["seed"] == 3 and report["env"]["cpu_count"]
        assert not (SYSTEM / ".work").exists()   # nothing left behind


def test_declared_names_follow_the_rule_and_are_unique():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert all(NAME_RULE.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def _flatten(value):
    """Every array-like leaf of a workload's generated inputs."""
    if hasattr(value, "points"):                     # Trajectory
        return [np.asarray(value.points)]
    if hasattr(value, "source_id"):                  # StreamPoint
        return [np.array([value.source_id, value.seq, value.t, value.x,
                          value.y])]
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _flatten(item)]
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in _flatten(value[key])]
    if isinstance(value, (bytes, str)):
        return [np.frombuffer(value if isinstance(value, bytes)
                              else value.encode(), dtype=np.uint8)]
    if isinstance(value, (np.ndarray, int, float)):
        return [np.asarray(value)]
    return _flatten(list(value)) if hasattr(value, "__iter__") else []


def _inputs(workload, seed):
    module = __import__(workload)
    world = module.make_inputs(seed, module.SIZES["quick"])
    return _flatten({key: item for key, item in vars(world).items()
                     if key != "sizes"})


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    first, again, other = (_inputs(workload, 5), _inputs(workload, 5),
                           _inputs(workload, 6))
    assert len(first) == len(again) > 0
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert (len(first) != len(other)
            or not all(a.shape == b.shape and np.array_equal(a, b)
                       for a, b in zip(first, other)))


def test_failed_oracle_check_gives_a_non_zero_exit(monkeypatch, capsys):
    import train_fit
    monkeypatch.setattr(train_fit, "HR_FLOOR", 2.0)  # unreachable
    code = run.main(["--workload", "train_fit", "--seed", "3", "--seconds",
                     "0.5", "--quick"])
    printed = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] hr_at_10" in printed
    assert json.loads(printed.strip().splitlines()[-1])["correct"] is False
