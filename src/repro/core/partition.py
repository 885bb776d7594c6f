"""Consistent-hash partitioning of an embedding store across shards.

The sharded serving tier (:mod:`repro.serving.sharding`) splits one
logical :class:`~repro.core.store.EmbeddingStore` into N shard-local
stores. This module owns the two pieces that must agree between the
offline splitter (``python -m repro shard-tool split``), every shard
worker, and the online coordinator:

* :class:`HashRing` — a consistent-hash ring over trajectory ids.
  Each shard contributes ``vnodes`` virtual points; an id lands on the
  first ring point clockwise of its hash. The hash is a fixed
  splitmix64 finaliser (vectorised over uint64), **not** Python's
  salted ``hash()``, so placement is identical across processes and
  runs. Adding a shard moves only the ids that fall into the new
  shard's arcs — every relocated id maps to the *new* shard, ids that
  stay put keep their old shard.
* ``save_partitions`` / ``load_partition`` — the on-disk layout: a
  ``PARTITIONS.json`` manifest (schema ``repro.partitions.v1``) plus
  one ``partition-NNNN.npz`` per shard, each individually loadable by
  :meth:`EmbeddingStore.load` so a worker touches only its own rows.

Layout::

    partitions/
      PARTITIONS.json     schema, num_shards, vnodes, per-file sha256 + bytes
      partition-0000.npz  EmbeddingStore.save payload for shard 0
      partition-0001.npz  ...
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import CorruptArtifactError
from .atomicio import (atomic_savez, atomic_write_json, check_file,
                       file_entry, read_manifest)
from .store import EmbeddingStore

PathLike = Union[str, Path]

__all__ = ["HashRing", "PARTITION_SCHEMA", "partition_file_name",
           "save_partitions", "load_partition", "load_partition_manifest",
           "partition_tags"]

PARTITION_SCHEMA = "repro.partitions.v1"
MANIFEST_NAME = "PARTITIONS.json"

_U64 = np.uint64

# XORed into ring-point hash inputs (NOT id hash inputs). Ring points
# use inputs < num_shards * 2**20; salting lifts them past 2**63 so no
# trajectory id (< 2**63) can share a hash input with a ring point —
# an exact key collision would deterministically misroute that id.
_RING_SALT = _U64(0xD1B54A32D192ED03)


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser: uint64 -> well-mixed uint64.

    Deterministic across processes and platforms (unlike the
    interpreter's salted ``hash``), cheap enough to hash millions of
    ids per routing call, and avalanching enough that consecutive
    trajectory ids spread uniformly around the ring.
    """
    z = np.asarray(values, dtype=_U64).copy()
    with np.errstate(over="ignore"):
        z += _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        z = z ^ (z >> _U64(31))
    return z


class HashRing:
    """Consistent-hash ring mapping trajectory ids to shard indices.

    Parameters
    ----------
    num_shards:
        Number of shards (>= 1).
    vnodes:
        Virtual points per shard. More vnodes smooth the load split
        (64 keeps the max/min shard imbalance within a few percent)
        at a tiny ``log(num_shards * vnodes)`` lookup cost.
    """

    def __init__(self, num_shards: int, vnodes: int = 64):
        if not isinstance(num_shards, (int, np.integer)) or num_shards < 1:
            raise ValueError(
                f"num_shards must be a positive integer, got {num_shards!r}")
        if not isinstance(vnodes, (int, np.integer)) or vnodes < 1:
            raise ValueError(
                f"vnodes must be a positive integer, got {vnodes!r}")
        self.num_shards = int(num_shards)
        self.vnodes = int(vnodes)
        # Point j of shard s hashes (s << 20 | j) ^ RING_SALT: shard
        # points are a pure function of (shard, vnode), so ring N's
        # points are a strict subset of ring N+1's — the consistency
        # property. The salt keeps the ring-point hash inputs disjoint
        # from id hash inputs: without it, sequential ids 0..vnodes-1
        # hash to exactly shard 0's point keys and searchsorted pins
        # every small dataset onto shard 0.
        shards = np.repeat(np.arange(self.num_shards, dtype=_U64),
                           self.vnodes)
        points = np.tile(np.arange(self.vnodes, dtype=_U64),
                         self.num_shards)
        keys = _splitmix64(((shards << _U64(20)) | points) ^ _RING_SALT)
        order = np.argsort(keys, kind="stable")
        self._ring_keys = keys[order]
        self._ring_shards = shards[order].astype(np.int64)

    def shard_for(self, ids: Union[int, Sequence[int], np.ndarray]
                  ) -> Union[int, np.ndarray]:
        """Owning shard for each id (scalar in, scalar out)."""
        scalar = np.isscalar(ids) or getattr(ids, "ndim", 1) == 0
        arr = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        if arr.size and arr.min() < 0:
            raise ValueError("trajectory ids must be non-negative")
        hashed = _splitmix64(arr.astype(_U64))
        # First ring point clockwise of the hash, wrapping past the top.
        pos = np.searchsorted(self._ring_keys, hashed, side="left")
        pos[pos == self._ring_keys.shape[0]] = 0
        shards = self._ring_shards[pos]
        return int(shards[0]) if scalar else shards

    def partition(self, ids: np.ndarray) -> List[np.ndarray]:
        """Row-index arrays per shard: ``out[s]`` selects shard s's rows."""
        owners = self.shard_for(np.asarray(ids, dtype=np.int64))
        return [np.flatnonzero(owners == s) for s in range(self.num_shards)]

    def spread(self, ids: np.ndarray) -> List[int]:
        """Per-shard id counts (a quick balance diagnostic)."""
        return [int(rows.shape[0]) for rows in self.partition(ids)]


def partition_file_name(shard_id: int) -> str:
    return f"partition-{shard_id:04d}.npz"


def save_partitions(out_dir: PathLike, ids: np.ndarray,
                    embeddings: np.ndarray, num_shards: int,
                    vnodes: int = 64, next_id: Optional[int] = None,
                    metadata: Optional[Dict] = None) -> Dict:
    """Split (ids, embeddings) into per-shard files; returns the manifest.

    Rows are routed by :class:`HashRing` on id, so the online insert
    path (which hashes one id at a time) agrees with the offline split.
    Every partition file is a valid :meth:`EmbeddingStore.save` payload;
    all partitions share the global ``next_id`` so any shard can accept
    a coordinator-assigned id without collisions.
    """
    ids = np.asarray(ids, dtype=np.int64)
    embeddings = np.asarray(embeddings)
    if embeddings.ndim != 2 or ids.shape != (embeddings.shape[0],):
        raise ValueError(
            f"need parallel ids ({ids.shape}) and 2-D embeddings "
            f"({embeddings.shape})")
    if np.unique(ids).size != ids.size:
        raise ValueError("duplicate trajectory ids")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ring = HashRing(num_shards, vnodes=vnodes)
    top = int(ids.max()) + 1 if ids.size else 0
    next_id = top if next_id is None else max(int(next_id), top)

    shard_entries = []
    for shard_id, rows in enumerate(ring.partition(ids)):
        name = partition_file_name(shard_id)
        # Uncompressed on purpose: partition files at the 1M-row scale
        # are hundreds of MB of near-incompressible floats, and zlib
        # would dominate split/reload time for a few percent of size.
        atomic_savez(out_dir / name, compressed=False,
                     embeddings=embeddings[rows], ids=ids[rows],
                     next_id=np.array(next_id))
        shard_entries.append({"shard": shard_id, "file": name,
                              "count": int(rows.shape[0]),
                              **file_entry(out_dir / name)})

    from .. import __version__  # deferred: repro/__init__ imports core

    manifest = {
        "schema": PARTITION_SCHEMA,
        # Intentional wall-clock metadata stamp, not a
        # deadline.  # repro: disable=determinism
        "created_unix": time.time(),
        "repro_version": __version__,
        "num_shards": int(num_shards),
        "vnodes": int(vnodes),
        "embedding_dim": int(embeddings.shape[1]),
        "total_count": int(ids.shape[0]),
        "next_id": int(next_id),
        "shards": shard_entries,
        "user_metadata": metadata or {},
    }
    atomic_write_json(out_dir / MANIFEST_NAME, manifest)
    return manifest


def load_partition_manifest(partition_dir: PathLike) -> Dict:
    """Read and validate ``PARTITIONS.json``."""
    manifest = read_manifest(
        Path(partition_dir) / MANIFEST_NAME, PARTITION_SCHEMA,
        required=("num_shards", "vnodes", "embedding_dim", "total_count",
                  "next_id", "shards"))
    shards = manifest["shards"]
    if (not isinstance(shards, list) or len(shards) != manifest["num_shards"]
            or not all(isinstance(entry, dict)
                       and {"file", "count", "sha256"} <= entry.keys()
                       for entry in shards)):
        raise CorruptArtifactError(
            "partition manifest shard list does not match num_shards, or an "
            "entry lacks its file, count or sha256")
    return manifest


def partition_tags(manifest: Dict) -> List[str]:
    """Per-shard base tags: each partition file's manifest sha256."""
    return [str(entry["sha256"]) for entry in manifest["shards"]]


def load_partition(partition_dir: PathLike, shard_id: int,
                   model=None, backend="exact",
                   **backend_options) -> EmbeddingStore:
    """Load one shard's store (search-only unless ``model`` is given).

    The file is checked against its manifest entry first, so a torn
    split surfaces as :class:`CorruptArtifactError` at worker boot
    instead of as silently missing rows.
    """
    manifest = load_partition_manifest(partition_dir)
    if not 0 <= int(shard_id) < manifest["num_shards"]:
        raise ValueError(
            f"shard_id {shard_id} out of range for "
            f"{manifest['num_shards']} shards")
    entry = manifest["shards"][int(shard_id)]
    path = check_file(Path(partition_dir) / entry["file"], entry)
    store = EmbeddingStore.load(path, model, backend=backend,
                                **backend_options)
    if len(store) != entry["count"]:
        raise CorruptArtifactError(
            f"partition {shard_id} row count {len(store)} != manifest "
            f"{entry['count']}")
    return store
