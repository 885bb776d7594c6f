"""Unit tests for the crash-safe checkpoint manager."""

import json

import numpy as np
import pytest

from repro.exceptions import CheckpointError, CorruptArtifactError
from repro.resilience import CHECKPOINT_SCHEMA, CheckpointManager
from repro.resilience.checkpoint import MANIFEST_NAME
from repro.testing import CorruptionSpec, corrupt_bytes

pytestmark = pytest.mark.faults


def _arrays(seed):
    rng = np.random.default_rng(seed)
    return {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}


def test_save_load_roundtrip_exact(tmp_path):
    manager = CheckpointManager(tmp_path / "ckpts")
    arrays = _arrays(0)
    manager.save(3, arrays, {"loss": 0.5})
    loaded = manager.load_latest()
    assert loaded.step == 3
    assert loaded.meta["loss"] == 0.5
    assert loaded.meta["schema"] == CHECKPOINT_SCHEMA
    for name, value in arrays.items():
        assert np.array_equal(loaded.arrays[name], value)


def test_latest_wins_and_pruning(tmp_path):
    manager = CheckpointManager(tmp_path / "ckpts", keep=2)
    for step in range(5):
        manager.save(step, _arrays(step), {})
    assert manager.load_latest().step == 4
    assert manager.steps() == [3, 4]
    # pruned files are really gone
    assert sorted(p.name for p in (tmp_path / "ckpts").glob("ckpt-*.npz")) \
        == ["ckpt-00000003.npz", "ckpt-00000004.npz"]


def test_keep_zero_keeps_everything(tmp_path):
    manager = CheckpointManager(tmp_path / "ckpts", keep=0)
    for step in range(4):
        manager.save(step, _arrays(step), {})
    assert manager.steps() == [0, 1, 2, 3]


def test_no_temp_files_left_behind(tmp_path):
    manager = CheckpointManager(tmp_path / "ckpts")
    manager.save(0, _arrays(0), {})
    leftovers = [p for p in (tmp_path / "ckpts").iterdir()
                 if ".tmp-" in p.name]
    assert leftovers == []


@pytest.mark.parametrize("mode", ["flip", "truncate", "zero"])
def test_corrupt_newest_falls_back_to_older(tmp_path, mode):
    manager = CheckpointManager(tmp_path / "ckpts")
    manager.save(1, _arrays(1), {"tag": "old"})
    manager.save(2, _arrays(2), {"tag": "new"})
    CorruptionSpec(mode=mode, length=32).apply(
        tmp_path / "ckpts" / "ckpt-00000002.npz")
    loaded = manager.load_latest()
    assert loaded.step == 1
    assert loaded.meta["tag"] == "old"
    assert len(manager.last_skipped) == 1
    assert "ckpt-00000002.npz" in manager.last_skipped[0]


def test_all_corrupt_means_fresh_start(tmp_path):
    manager = CheckpointManager(tmp_path / "ckpts")
    manager.save(0, _arrays(0), {})
    corrupt_bytes(tmp_path / "ckpts" / "ckpt-00000000.npz", mode="truncate",
                  offset=10)
    assert manager.load_latest() is None
    assert manager.last_skipped


def test_torn_manifest_does_not_strand_good_files(tmp_path):
    manager = CheckpointManager(tmp_path / "ckpts")
    manager.save(7, _arrays(7), {"tag": "survivor"})
    (tmp_path / "ckpts" / MANIFEST_NAME).write_text("{ torn json")
    fresh = CheckpointManager(tmp_path / "ckpts")
    loaded = fresh.load_latest()
    assert loaded is not None and loaded.step == 7


def test_manifest_sha_detects_silent_swap(tmp_path):
    """A file replaced after manifesting (a valid npz) is rejected by the
    manifest entry's size or hash check, not trusted."""
    manager = CheckpointManager(tmp_path / "ckpts")
    manager.save(1, _arrays(1), {})
    manager.save(2, _arrays(2), {})
    path2 = tmp_path / "ckpts" / "ckpt-00000002.npz"
    path1 = tmp_path / "ckpts" / "ckpt-00000001.npz"
    path2.write_bytes(path1.read_bytes())  # valid npz, wrong bytes
    loaded = manager.load_latest()
    assert loaded.step == 1
    assert any("manifest says" in s or "sha256" in s
               for s in manager.last_skipped)


def test_load_step_has_no_fallback(tmp_path):
    manager = CheckpointManager(tmp_path / "ckpts")
    manager.save(5, _arrays(5), {})
    corrupt_bytes(tmp_path / "ckpts" / "ckpt-00000005.npz")
    with pytest.raises(CorruptArtifactError):
        manager.load_step(5)
    with pytest.raises(CheckpointError, match="no checkpoint"):
        manager.load_step(99)


def test_invalid_inputs_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        CheckpointManager(tmp_path, keep=-1)
    manager = CheckpointManager(tmp_path / "ckpts")
    with pytest.raises(CheckpointError):
        manager.save(-1, _arrays(0), {})
    with pytest.raises(CheckpointError, match="reserved"):
        manager.save(0, {"meta/json": np.zeros(1)}, {})


def test_unknown_schema_rejected(tmp_path):
    manager = CheckpointManager(tmp_path / "ckpts")
    path = manager.save(0, _arrays(0), {})
    # rewrite with a bogus schema but a fresh valid npz
    blob = dict(np.load(path, allow_pickle=False))
    meta = json.loads(str(blob["meta/json"]))
    meta["schema"] = "repro.checkpoint.v999"
    blob["meta/json"] = np.array(json.dumps(meta))
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **blob)
    # manifest hash now mismatches AND schema is wrong; both paths skip it
    assert manager.load_latest() is None
