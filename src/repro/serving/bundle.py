"""Versioned on-disk serving bundle: model + embedding store + manifest.

A *bundle* is the unit of deployment for the serving layer: a directory
holding everything a :class:`~repro.serving.service.SimilarityService`
needs to come up — the trained model (config + weights + grid/normaliser/
memory), the embedding store, optional probe trajectories for warmup and
self-tests, and a ``MANIFEST.json`` that records the schema version,
content hashes, and compatibility facts (model class, measure, embedding
dimension). ``load_bundle`` refuses corrupted or incompatible bundles
with a :class:`BundleError` instead of failing deep inside the encoder.

Layout::

    bundle/
      MANIFEST.json     schema, model facts, per-file sha256
      model.npz         MetricModel.save payload
      store.npz         EmbeddingStore.save payload (optional)
      probes.npz        ragged probe trajectories (optional)
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .. import __version__
from ..core.atomicio import atomic_write_text, sha256_file
from ..core.model import MetricModel, NeuTraj
from ..core.siamese import SiameseTraj
from ..core.store import EmbeddingStore
from ..datasets.trajectory import Trajectory
from ..exceptions import ReproError

PathLike = Union[str, Path]

__all__ = ["Bundle", "BundleError", "save_bundle", "load_bundle",
           "load_bundle_model", "BUNDLE_SCHEMA"]

BUNDLE_SCHEMA = "repro.bundle.v1"
MANIFEST_NAME = "MANIFEST.json"
MODEL_FILE = "model.npz"
STORE_FILE = "store.npz"
PROBES_FILE = "probes.npz"

#: Model classes a bundle may reference (manifest name -> constructor).
MODEL_CLASSES = {cls.__name__: cls for cls in
                 (MetricModel, NeuTraj, SiameseTraj)}


class BundleError(ReproError):
    """A bundle is missing, corrupted, or incompatible with this build."""


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


def _save_probes(path: Path, probes: Sequence[Trajectory]) -> None:
    """Persist ragged trajectories as flat coords + offsets."""
    coords = (np.concatenate([t.points for t in probes], axis=0)
              if probes else np.zeros((0, 2)))
    lengths = np.array([len(t) for t in probes], dtype=np.int64)
    ids = np.array([-1 if t.traj_id is None else t.traj_id
                    for t in probes], dtype=np.int64)
    np.savez_compressed(path, coords=coords, lengths=lengths, ids=ids)


def _load_probes(path: Path) -> List[Trajectory]:
    with np.load(path) as data:
        coords = data["coords"]
        lengths = data["lengths"]
        ids = data["ids"]
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
            raise BundleError(
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
        "files": {name: {"sha256": sha256_file(path / name),
                         "bytes": (path / name).stat().st_size}
                  for name in files},
        "user_metadata": metadata or {},
    }
    atomic_write_text(path / MANIFEST_NAME,
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_bundle_model(path: PathLike, verify: bool = True
                      ) -> "tuple[MetricModel, Dict]":
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
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise BundleError(f"no {MANIFEST_NAME} in {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (ValueError, OSError) as exc:
        raise BundleError(f"unreadable manifest in {path}: {exc}") from exc

    schema = manifest.get("schema", "")
    if schema != BUNDLE_SCHEMA:
        raise BundleError(
            f"unsupported bundle schema {schema!r} (expected {BUNDLE_SCHEMA})")

    files = manifest.get("files", {})
    model_meta = files.get(MODEL_FILE)
    if model_meta is None or not (path / MODEL_FILE).exists():
        raise BundleError(f"bundle file missing: {MODEL_FILE}")
    if verify and sha256_file(path / MODEL_FILE) != model_meta.get("sha256"):
        raise BundleError(
            f"bundle file corrupted (sha256 mismatch): {MODEL_FILE}")

    class_name = manifest.get("model_class", "")
    model_cls = MODEL_CLASSES.get(class_name)
    if model_cls is None:
        raise BundleError(f"unknown model class {class_name!r}")
    # MetricModel.load raises CorruptArtifactError (a ValueError) on
    # unreadable files; with verify=False that is the only corruption gate.
    try:
        model = model_cls.load(path / MODEL_FILE)
    except ValueError as exc:
        raise BundleError(f"unloadable model: {exc}") from exc

    dim = int(manifest.get("embedding_dim", -1))
    if model.config.embedding_dim != dim:
        raise BundleError(
            f"manifest embedding_dim {dim} != model "
            f"{model.config.embedding_dim}")
    measure = manifest.get("measure")
    if model.config.measure != measure:
        raise BundleError(
            f"manifest measure {measure!r} != model {model.config.measure!r}")
    return model, manifest


def load_bundle(path: PathLike, verify: bool = True) -> Bundle:
    """Load and validate a bundle written by :func:`save_bundle`.

    ``verify=True`` (default) additionally checks the sha256 of every
    artifact file against the manifest, catching torn or tampered writes.
    """
    path = Path(path)
    model, manifest = load_bundle_model(path, verify=verify)

    files = manifest.get("files", {})
    for name, meta in files.items():
        file_path = path / name
        if not file_path.exists():
            raise BundleError(f"bundle file missing: {name}")
        if verify and name != MODEL_FILE and \
                sha256_file(file_path) != meta.get("sha256"):
            raise BundleError(f"bundle file corrupted (sha256 mismatch): {name}")

    if STORE_FILE in files:
        # EmbeddingStore.load raises ValueError on dim mismatch / bad ids.
        try:
            store = EmbeddingStore.load(path / STORE_FILE, model)
        except ValueError as exc:
            raise BundleError(f"incompatible store: {exc}") from exc
        declared = (manifest.get("store") or {}).get("count")
        if declared is not None and declared != len(store):
            raise BundleError(
                f"manifest store count {declared} != loaded {len(store)}")
    else:
        store = EmbeddingStore(model)

    probes = _load_probes(path / PROBES_FILE) if PROBES_FILE in files else []
    return Bundle(model=model, store=store, probes=probes,
                  manifest=manifest, path=path)
