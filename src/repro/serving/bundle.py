"""Versioned on-disk serving bundle: model + embedding store + manifest.

A *bundle* is the unit of deployment for the serving layer: a directory
holding everything a :class:`~repro.serving.service.SimilarityService`
needs to come up — the trained model (config + weights + grid/normaliser/
memory), the embedding store, optional probe trajectories for warmup and
self-tests, and a ``MANIFEST.json`` that records the schema version,
content hashes, and compatibility facts (model class, measure, embedding
dimension). ``load_bundle`` refuses corrupted or incompatible bundles
with a :class:`~repro.exceptions.CorruptArtifactError` instead of
failing deep inside the encoder.

Layout::

    bundle/
      MANIFEST.json     schema, model facts, per-file sha256 + bytes
      model.npz         MetricModel.save payload
      store.npz         EmbeddingStore.save payload (optional)
      probes.npz        ragged probe trajectories (optional)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .. import __version__
from ..core.atomicio import (atomic_savez, atomic_write_json, check_file,
                             file_entry, read_manifest, read_npz)
from ..core.model import MetricModel, NeuTraj
from ..core.siamese import SiameseTraj
from ..core.store import EmbeddingStore
from ..datasets.trajectory import Trajectory
from ..exceptions import CorruptArtifactError

PathLike = Union[str, Path]

__all__ = ["Bundle", "save_bundle", "load_bundle", "load_bundle_model",
           "BUNDLE_SCHEMA"]

#: v2: model.npz holds no pickled (object) arrays; a v1 bundle is refused
#: at the manifest and must be re-exported.
BUNDLE_SCHEMA = "repro.bundle.v2"
MANIFEST_NAME = "MANIFEST.json"
MODEL_FILE = "model.npz"
STORE_FILE = "store.npz"
PROBES_FILE = "probes.npz"

#: Model classes a bundle may reference (manifest name -> constructor).
MODEL_CLASSES = {cls.__name__: cls for cls in
                 (MetricModel, NeuTraj, SiameseTraj)}


@dataclass
class Bundle:
    """A loaded serving bundle."""

    model: MetricModel
    store: EmbeddingStore
    probes: List[Trajectory] = field(default_factory=list)
    manifest: Dict = field(default_factory=dict)
    path: Optional[Path] = None

    @property
    def embedding_dim(self) -> int:
        return self.model.config.embedding_dim

    @property
    def measure(self) -> str:
        return self.model.config.measure

    @property
    def store_tag(self) -> Optional[str]:
        """The manifest's sha256 of ``store.npz`` (``None`` without one)."""
        entry = self.manifest.get("files", {}).get(STORE_FILE)
        return None if entry is None else entry["sha256"]


def _save_probes(path: Path, probes: Sequence[Trajectory]) -> None:
    """Persist ragged trajectories as flat coords + offsets."""
    coords = (np.concatenate([t.points for t in probes], axis=0)
              if probes else np.zeros((0, 2)))
    lengths = np.array([len(t) for t in probes], dtype=np.int64)
    ids = np.array([-1 if t.traj_id is None else t.traj_id
                    for t in probes], dtype=np.int64)
    atomic_savez(path, compressed=True, coords=coords, lengths=lengths,
                 ids=ids)


def _load_probes(path: Path) -> List[Trajectory]:
    data = read_npz(path)
    coords, lengths, ids = data["coords"], data["lengths"], data["ids"]
    probes: List[Trajectory] = []
    offset = 0
    for length, traj_id in zip(lengths, ids):
        points = coords[offset:offset + int(length)]
        offset += int(length)
        probes.append(Trajectory(points,
                                 traj_id=None if traj_id < 0 else int(traj_id)))
    return probes


def save_bundle(path: PathLike, model: MetricModel,
                store: Optional[EmbeddingStore] = None,
                probes: Optional[Sequence[Trajectory]] = None,
                metadata: Optional[Dict] = None) -> Path:
    """Write a serving bundle directory; returns its path.

    Parameters
    ----------
    path:
        Target directory (created if needed; existing artifact files are
        overwritten).
    model:
        A fitted :class:`MetricModel` (its class name is recorded so
        ``load_bundle`` reconstructs the right subclass).
    store:
        The embedding store to serve. When omitted the loaded bundle
        starts with an empty store.
    probes:
        A few representative trajectories, used by the service for warmup
        and by ``repro serve --once`` as the self-test query.
    metadata:
        Free-form JSON-serialisable dict stored under ``"user_metadata"``.
    """
    model._require_fitted()
    if store is not None and store.model is not model:
        store_dim = (store.embeddings.shape[1] if store.model is None
                     else store.model.config.embedding_dim)
        if store_dim != model.config.embedding_dim:
            raise ValueError(
                "store embedding_dim does not match the bundled model")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    model.save(path / MODEL_FILE)
    files = [MODEL_FILE]
    if store is not None:
        store.save(path / STORE_FILE)
        files.append(STORE_FILE)
    if probes:
        _save_probes(path / PROBES_FILE, list(probes))
        files.append(PROBES_FILE)

    manifest = {
        "schema": BUNDLE_SCHEMA,
        # Intentional wall-clock metadata stamp, not a
        # deadline.  # repro: disable=determinism
        "created_unix": time.time(),
        "repro_version": __version__,
        "model_class": type(model).__name__,
        "measure": model.config.measure,
        "embedding_dim": model.config.embedding_dim,
        "use_sam": model.config.use_sam,
        "store": None if store is None else {
            "count": len(store),
            "next_id": store.next_id,
        },
        "num_probes": 0 if not probes else len(list(probes)),
        "files": {name: file_entry(path / name) for name in files},
        "user_metadata": metadata or {},
    }
    atomic_write_json(path / MANIFEST_NAME, manifest)
    return path


def load_bundle_model(path: PathLike) -> "tuple[MetricModel, Dict]":
    """Load only the model (+ manifest) from a bundle directory.

    The coordinator of :mod:`repro.serving.sharding` uses this for its
    one encoder (shard workers hold none): the rows live in per-shard
    *partitions* loaded separately, so pulling the bundle's full
    ``store.npz`` through :func:`load_bundle` would cost the table's
    memory a second time for nothing.
    Validation matches :func:`load_bundle` for the files actually read
    (manifest schema, model sha256, model/manifest compatibility).
    """
    path = Path(path)
    manifest = read_manifest(path / MANIFEST_NAME, BUNDLE_SCHEMA, required=(
        "files", "model_class", "measure", "embedding_dim"))
    model_cls = MODEL_CLASSES.get(manifest["model_class"])
    if model_cls is None:
        raise CorruptArtifactError(
            f"unknown model class {manifest['model_class']!r}")
    if MODEL_FILE not in manifest["files"]:
        raise CorruptArtifactError(f"bundle manifest lists no {MODEL_FILE}")
    model = model_cls.load(
        check_file(path / MODEL_FILE, manifest["files"][MODEL_FILE]))
    declared = (manifest["embedding_dim"], manifest["measure"])
    if declared != (model.config.embedding_dim, model.config.measure):
        raise CorruptArtifactError(
            f"manifest (embedding_dim, measure) {declared} != model "
            f"({model.config.embedding_dim}, {model.config.measure!r})")
    return model, manifest


def load_bundle(path: PathLike) -> Bundle:
    """Load a bundle written by :func:`save_bundle`, every file checked
    against its manifest entry first (torn or tampered writes raise
    :class:`~repro.exceptions.CorruptArtifactError`)."""
    path = Path(path)
    model, manifest = load_bundle_model(path)
    files = manifest["files"]
    for name, entry in files.items():
        if name != MODEL_FILE:  # load_bundle_model checked it
            check_file(path / name, entry)

    if STORE_FILE in files:
        # EmbeddingStore.load raises ValueError on dim mismatch / bad ids.
        try:
            store = EmbeddingStore.load(path / STORE_FILE, model)
        except ValueError as exc:
            raise CorruptArtifactError(f"incompatible store: {exc}") from exc
        declared = (manifest.get("store") or {}).get("count")
        if declared is not None and declared != len(store):
            raise CorruptArtifactError(
                f"manifest store count {declared} != loaded {len(store)}")
    else:
        store = EmbeddingStore(model)

    probes = _load_probes(path / PROBES_FILE) if PROBES_FILE in files else []
    return Bundle(model=model, store=store, probes=probes,
                  manifest=manifest, path=path)
