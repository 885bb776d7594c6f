"""The artifact layer: one corruption sweep over every persisted format.

Each format is built small, one of its files (a payload or the manifest)
is damaged, and the format's loader must end in
:class:`~repro.exceptions.CorruptArtifactError` — or in its documented
fallback: an older checkpoint (or the glob) for checkpoints, a cache miss
and recompute for the distance-matrix cache. The contract lives in
:mod:`repro.core.atomicio`; DESIGN.md "Persisted artifacts" tables it.
"""

import hashlib
import json
import os
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro import NeuTraj, NeuTrajConfig, PortoConfig, generate_porto
from repro.core import atomicio
from repro.core.encoder import TrajectoryEncoder
from repro.core.model import MetricModel
from repro.core.partition import load_partition, save_partitions
from repro.core.store import EmbeddingStore
from repro.datasets import Grid, TrajectoryDataset
from repro.datasets.grid import CoordinateNormalizer
from repro.exceptions import CorruptArtifactError
from repro.index.ann import IVFConfig, IVFIndex
from repro.measures import get_measure, pairwise_distances
from repro.resilience import CheckpointManager
from repro.serving import load_bundle, save_bundle
from repro.serving.wal import OP_DELETE, ShardWAL
from repro.testing import CorruptionSpec

pytestmark = pytest.mark.faults

BYTE_MODES = ("flip", "truncate", "zero")
MANIFEST_MODES = BYTE_MODES + ("drop-key", "wrong-schema")


@pytest.fixture(scope="module")
def world():
    """An untrained model (grid + normaliser fitted, weights seeded) and a
    store over a few trajectories: enough for every format's payloads."""
    trajs = list(generate_porto(PortoConfig(num_trajectories=12,
                                            min_points=6, max_points=10),
                                seed=3))
    config = NeuTrajConfig(measure="dtw", embedding_dim=8, cell_size=500.0,
                           seed=0)
    grid = Grid.for_dataset(TrajectoryDataset(trajs), config.cell_size,
                            margin=config.cell_size * max(config.bandwidth, 1))
    model = NeuTraj(config)
    model.encoder = TrajectoryEncoder(grid, CoordinateNormalizer.fit(trajs),
                                      config, np.random.default_rng(0))
    model.alpha = 1.0
    store = EmbeddingStore(model)
    store.add(trajs[:8])
    return model, store, trajs


def _open_log(root):
    """What a shard worker (or the stream ingester) does at boot."""
    log = ShardWAL(root, "base", segment_bytes=1 << 20)
    replayed = [record.lsn for record in log.replay()]
    log.close()
    return replayed


# Each maker writes one artifact under ``root`` and returns its loader
# and a function deleting one required key from its manifest.


def _bundle(root, world):
    model, store, trajs = world
    save_bundle(root, model, store, probes=trajs[:2])
    return (lambda: load_bundle(root).store.ids,
            lambda manifest: manifest.pop("files"))


def _checkpoints(root, world):
    manager = CheckpointManager(root)
    manager.save(1, {"w": np.ones(3)}, {"tag": "old"})
    manager.save(2, {"w": np.zeros(3)}, {"tag": "new"})
    return (lambda: CheckpointManager(root).load_latest().step,
            lambda manifest: manifest.pop("checkpoints"))


def _partitions(root, world):
    _, store, _ = world
    save_partitions(root, np.asarray(store.ids, dtype=np.int64),
                    store.embeddings, num_shards=2)
    return (lambda: load_partition(root, 1).ids,
            lambda manifest: manifest["shards"][1].pop("file"))


def _ivf(root, world):
    _, store, _ = world
    IVFIndex.build(np.asarray(store.ids, dtype=np.int64),
                   np.asarray(store.embeddings, dtype=np.float32),
                   IVFConfig(nlist=2, nprobe=2, seed=0)).save(root)
    return (lambda: IVFIndex.load(root).ntotal,
            lambda manifest: manifest.pop("data"))


def _wal_snapshot(root, world):
    _, store, _ = world
    log = ShardWAL(root, "base", segment_bytes=1 << 20)
    log.append(OP_DELETE, np.array([0], dtype=np.int64))
    log.checkpoint(store.save, count=len(store), next_id=store.next_id)
    log.append(OP_DELETE, np.array([1], dtype=np.int64))  # replayed on open
    log.close()
    return (lambda: _open_log(root),
            lambda manifest: manifest.pop("sha256"))


def _model_file(root, world):
    model, _, _ = world
    root.mkdir()
    model.save(root / "model.npz")
    return (lambda: MetricModel.load(root / "model.npz").config, None)


def _store_file(root, world):
    model, store, _ = world
    root.mkdir()
    store.save(root / "store.npz")
    return (lambda: EmbeddingStore.load(root / "store.npz", model).ids, None)


def _matrix_cache(root, world):
    _, _, trajs = world

    def load():
        computed = []
        matrix = pairwise_distances(trajs[:6], get_measure("dtw"),
                                    cache_dir=str(root), chunk_pairs=5,
                                    progress=lambda d, t: computed.append(d))
        return len(computed) > 1, matrix.tolist()
    load()
    return load, None


#: format -> (maker, victim files). ``*.json`` victims are manifests.
FORMATS = {
    "bundle": (_bundle, ("model.npz", "store.npz", "probes.npz",
                         "MANIFEST.json")),
    "checkpoints": (_checkpoints, ("ckpt-00000002.npz", "CHECKPOINTS.json")),
    "partitions": (_partitions, ("partition-0001.npz", "PARTITIONS.json")),
    "ivf": (_ivf, ("data.bin", "MANIFEST.json")),
    "wal-snapshot": (_wal_snapshot, ("snapshot-000001.npz",
                                     "SNAPSHOT.json")),
    "model": (_model_file, ("model.npz",)),
    "store": (_store_file, ("store.npz",)),
    "matrix-cache": (_matrix_cache, ("matrix_*.npz",)),
}

#: The documented fallbacks: (format, victim kind) -> what the loader
#: returns after the damage, given what it returned before.
FALLBACKS = {
    # The newest checkpoint is damaged: the older one loads.
    ("checkpoints", "payload"): lambda intact: 1,
    # The manifest is damaged: the glob still finds the newest file.
    ("checkpoints", "manifest"): lambda intact: intact,
    # The cached matrix is damaged: a miss, and the same matrix recomputed.
    ("matrix-cache", "payload"): lambda intact: (True, intact[1]),
}

CASES = [(fmt, victim, mode)
         for fmt, (_, victims) in FORMATS.items() for victim in victims
         for mode in (MANIFEST_MODES if victim.endswith(".json")
                      else BYTE_MODES)]


def _damage(path: Path, mode: str, drop) -> None:
    if mode in BYTE_MODES:
        CorruptionSpec(mode=mode, length=16).apply(path)
        return
    manifest = json.loads(path.read_text())
    if mode == "drop-key":
        drop(manifest)
    else:
        manifest["schema"] = "repro.foreign.v0"
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("fmt,victim,mode", CASES,
                         ids=["-".join(case) for case in CASES])
def test_damage_is_typed_or_falls_back(world, tmp_path, fmt, victim, mode):
    build, _ = FORMATS[fmt]
    loader, drop = build(tmp_path / fmt, world)
    intact = loader()
    (target,) = (tmp_path / fmt).glob(victim)
    _damage(target, mode, drop)
    kind = "manifest" if victim.endswith(".json") else "payload"
    fallback = FALLBACKS.get((fmt, kind))
    if fallback is None:
        with pytest.raises(CorruptArtifactError):
            loader()
    else:
        assert loader() == fallback(intact)


#: The ``.npz`` files no manifest covers: the seal is their only digest.
STANDALONE = ("model", "store", "matrix-cache")


def _sweep_offsets(path: Path) -> list:
    """Evenly spaced offsets over the file, every member's local header
    and the seal at the end."""
    size = path.stat().st_size
    with zipfile.ZipFile(path) as archive:
        headers = [info.header_offset for info in archive.infolist()]
    spaced = np.linspace(0, size - 1, 32).astype(int).tolist()
    return sorted(set(spaced + headers + [size - 40]))


@pytest.mark.parametrize("fmt", STANDALONE)
def test_damage_anywhere_in_a_standalone_npz_is_caught(world, tmp_path, fmt):
    """Zip's member CRCs never cover a local header; the seal does, so
    the verdict cannot depend on where the damage falls."""
    build, (victim,) = FORMATS[fmt]
    loader, _ = build(tmp_path / fmt, world)
    intact = loader()
    (target,) = (tmp_path / fmt).glob(victim)
    pristine = target.read_bytes()
    fallback = FALLBACKS.get((fmt, "payload"))
    for offset in _sweep_offsets(target):
        target.write_bytes(pristine)
        CorruptionSpec(mode="flip", offset=offset, length=16).apply(target)
        if fallback is None:
            with pytest.raises(CorruptArtifactError):
                loader()
        else:
            assert loader() == fallback(intact), offset


def test_atomic_savez_seals_the_archive_with_its_sha256(tmp_path):
    path = tmp_path / "a.npz"
    atomicio.atomic_savez(path, compressed=True, x=np.arange(5))
    blob = path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        comment = archive.comment
    assert comment == b"repro-sha256:" + hashlib.sha256(
        blob[:-len(comment)]).hexdigest().encode()
    assert atomicio.read_npz(path)["x"].tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("fmt", STANDALONE)
def test_unsealed_npz_files_still_load(world, tmp_path, fmt):
    """Files written before archives were sealed: plain ``np.savez``."""
    build, (victim,) = FORMATS[fmt]
    loader, _ = build(tmp_path / fmt, world)
    intact = loader()
    (target,) = (tmp_path / fmt).glob(victim)
    arrays = atomicio.read_npz(target)
    with open(target, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    with zipfile.ZipFile(target) as archive:
        assert archive.comment == b""
    assert loader() == intact


def test_missing_artifact_directory_is_typed(tmp_path):
    with pytest.raises(CorruptArtifactError):
        IVFIndex.load(tmp_path / "nowhere")
    with pytest.raises(CorruptArtifactError):
        load_bundle(tmp_path / "nowhere")


def test_unverified_ivf_open_still_checks_size(world, tmp_path):
    """``verify=False`` keeps a cold open lazy (no sha256 pass), but a
    truncated ``data.bin`` still fails on its recorded size."""
    _ivf(tmp_path / "ivf", world)
    data = tmp_path / "ivf" / "data.bin"
    CorruptionSpec(mode="flip").apply(data)
    assert IVFIndex.load(tmp_path / "ivf", verify=False).ntotal == 8
    CorruptionSpec(mode="truncate", offset=-10).apply(data)
    with pytest.raises(CorruptArtifactError, match="bytes"):
        IVFIndex.load(tmp_path / "ivf", verify=False)


# ------------------------------------------------------------ no pickle


class _RunsOnUnpickle:
    """Unpickling this object creates ``marker`` (a stand-in for any
    side effect a crafted artifact could smuggle in)."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return os.mkdir, (self.marker,)


def test_pickled_model_file_is_refused_without_running_it(world, tmp_path):
    model, _, _ = world
    path = tmp_path / "model.npz"
    model.save(path)
    arrays = dict(np.load(path))
    marker = tmp_path / "side-effect"
    arrays["meta/config"] = np.array([_RunsOnUnpickle(marker)], dtype=object)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    with pytest.raises(CorruptArtifactError):
        MetricModel.load(path)
    assert not marker.exists()


def test_saved_model_holds_no_object_arrays(world, tmp_path):
    model, _, _ = world
    model.save(tmp_path / "model.npz")
    arrays = atomicio.read_npz(tmp_path / "model.npz")
    assert all(value.dtype != object for value in arrays.values())
    assert MetricModel.load(tmp_path / "model.npz").config == model.config


def test_read_npz_lets_a_missing_file_through(tmp_path):
    with pytest.raises(FileNotFoundError):
        atomicio.read_npz(tmp_path / "absent.npz")


# ------------------------------------------------- failed writes clean up


def test_failed_savez_publishes_nothing_and_leaves_no_temp(tmp_path,
                                                           monkeypatch):
    path = tmp_path / "a.npz"
    atomicio.atomic_savez(path, x=np.arange(3))
    before = path.read_bytes()

    def half_written(handle, **arrays):
        handle.write(b"PK\x03\x04 partial")
        raise OSError("disk full")
    monkeypatch.setattr(np, "savez", half_written)
    with pytest.raises(OSError, match="disk full"):
        atomicio.atomic_savez(path, x=np.arange(5))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["a.npz"]


def test_failed_write_bytes_leaves_no_temp(tmp_path):
    with pytest.raises(TypeError):  # fails after the temp file is open
        atomicio.atomic_write_bytes(tmp_path / "b.bin", "not bytes")
    assert os.listdir(tmp_path) == []


def test_failed_ivf_save_keeps_the_old_index_and_leaves_no_temp(
        world, tmp_path, monkeypatch):
    loader, _ = _ivf(tmp_path, world)
    before = {name: (tmp_path / name).read_bytes()
              for name in os.listdir(tmp_path)}
    index = IVFIndex.load(tmp_path, mmap=False)

    class FullDisk:
        """A file that takes the first write, then runs out of space."""

        def __init__(self, path, mode):
            self.handle, self.writes = open(path, mode), 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                raise OSError(28, "No space left on device")
            return self.handle.write(data)

    monkeypatch.setattr(atomicio, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match="No space"):
        index.save(tmp_path)
    monkeypatch.undo()
    assert {name: (tmp_path / name).read_bytes()
            for name in os.listdir(tmp_path)} == before
    assert loader() == 8


def test_unwritable_matrix_cache_is_only_a_miss(world, tmp_path,
                                                monkeypatch):
    _, _, trajs = world

    def fail(handle, **arrays):
        raise OSError("read-only cache")
    monkeypatch.setattr(np, "savez", fail)
    measure = get_measure("dtw")
    got = pairwise_distances(trajs[:4], measure, cache_dir=str(tmp_path))
    np.testing.assert_array_equal(got, pairwise_distances(trajs[:4], measure))
    assert os.listdir(tmp_path) == []


# ------------------------------------------- directories in the old layout


#: The manifests exactly as the previous release wrote them: the key set
#: of every manifest and of every per-file entry.
PREVIOUS_LAYOUT = {
    "PARTITIONS.json": ({"schema", "created_unix", "repro_version",
                         "num_shards", "vnodes", "embedding_dim",
                         "total_count", "next_id", "shards",
                         "user_metadata"},
                        {"shard", "file", "count", "sha256", "bytes"}),
    "MANIFEST.json": ({"schema", "dim", "nlist", "count", "config", "data",
                       "arrays"}, {"file", "bytes", "sha256"}),
    "CHECKPOINTS.json": ({"schema", "checkpoints", "latest"},
                         {"step", "sha256", "bytes"}),
    # No ``bytes``: a snapshot entry gained it in this release.
    "SNAPSHOT.json": ({"schema", "generation", "file", "sha256", "count",
                       "next_id", "applied_lsn", "base"}, set()),
}


def _as_previous_release_wrote_it(path: Path) -> None:
    top, entry_keys = PREVIOUS_LAYOUT[path.name]
    manifest = json.loads(path.read_text())
    moved = {"bytes"} if path.name == "SNAPSHOT.json" else set()
    assert set(manifest) == top | moved  # the one layout change
    manifest = {key: manifest[key] for key in top}
    entries = {"PARTITIONS.json": lambda m: m["shards"],
               "MANIFEST.json": lambda m: [m["data"]],
               "CHECKPOINTS.json": lambda m: list(m["checkpoints"].values()),
               "SNAPSHOT.json": lambda m: []}[path.name](manifest)
    for entry in entries:
        assert set(entry) == entry_keys
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("fmt,manifest", [
    ("partitions", "PARTITIONS.json"), ("ivf", "MANIFEST.json"),
    ("checkpoints", "CHECKPOINTS.json"), ("wal-snapshot", "SNAPSHOT.json")])
def test_directories_in_the_previous_layout_reopen(world, tmp_path, fmt,
                                                   manifest):
    build, _ = FORMATS[fmt]
    loader, _ = build(tmp_path / fmt, world)
    intact = loader()
    _as_previous_release_wrote_it(tmp_path / fmt / manifest)
    assert loader() == intact
    if fmt == "checkpoints":  # read through the manifest, not the glob
        table = CheckpointManager(tmp_path / fmt)._read_manifest()
        assert sorted(table["checkpoints"]) == ["ckpt-00000001.npz",
                                                "ckpt-00000002.npz"]


def test_snapshot_manifest_records_bytes(world, tmp_path):
    _wal_snapshot(tmp_path / "d", world)
    manifest = json.loads((tmp_path / "d" / "SNAPSHOT.json").read_text())
    snapshot = tmp_path / "d" / manifest["file"]
    assert manifest["bytes"] == snapshot.stat().st_size


# ------------------------------------------------------- read_manifest


def test_read_manifest_names_what_is_wrong(tmp_path):
    path = tmp_path / "M.json"
    with pytest.raises(CorruptArtifactError, match="M.json"):
        atomicio.read_manifest(path, "s.v1")
    path.write_text("[1, 2]")
    with pytest.raises(CorruptArtifactError, match="not a JSON object"):
        atomicio.read_manifest(path, "s.v1")
    path.write_text(json.dumps({"schema": "s.v0"}))
    with pytest.raises(CorruptArtifactError, match="re-export"):
        atomicio.read_manifest(path, "s.v1")
    path.write_text(json.dumps({"schema": "s.v1", "a": 1}))
    with pytest.raises(CorruptArtifactError, match="'b'"):
        atomicio.read_manifest(path, "s.v1", required=("a", "b"))
    assert atomicio.read_manifest(path, "s.v1", required=("a",))["a"] == 1
