"""Crash-safe, versioned training checkpoints.

A checkpoint directory managed by :class:`CheckpointManager` holds::

    checkpoints/
      CHECKPOINTS.json     manifest: schema, per-file sha256 + step, latest
      ckpt-00000004.npz    arrays + a JSON meta blob (no pickle anywhere)
      ckpt-00000005.npz

Guarantees, mirroring the serving bundle's discipline:

* **Atomic** — every ``.npz`` and the manifest are written to a temp file
  and published with ``os.replace``; a crash mid-save never leaves a torn
  file under a checkpoint name.
* **Versioned + manifested** — each file is sha256-recorded in the
  manifest; ``load_latest`` verifies the hash before trusting the bytes.
* **Fallback** — a corrupt, truncated or missing newest checkpoint is
  skipped (recorded in ``last_skipped``) and the next-older good one is
  loaded instead; only when *no* checkpoint survives does the caller see
  ``None`` (fresh start). A damaged ``CHECKPOINTS.json`` strands no
  file: the directory is globbed instead. Damage is a
  :class:`~repro.exceptions.CorruptArtifactError`, as for every artifact.
* **No pickle** — meta travels as a JSON string in a unicode array, so a
  corrupted file can fail to parse but can never execute anything.

The manager stores flat ``name -> ndarray`` dicts plus a JSON-able meta
dict; what goes *into* a training checkpoint (parameters, Adam moments,
RNG state, sampler position, loss history) is packed by
:func:`repro.core.trainer.pack_training_checkpoint`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.atomicio import (atomic_savez, atomic_write_json, check_file,
                             file_entry, read_manifest, read_npz)
from ..exceptions import CheckpointError, CorruptArtifactError

PathLike = Union[str, Path]

__all__ = ["Checkpoint", "CheckpointManager", "CHECKPOINT_SCHEMA"]

CHECKPOINT_SCHEMA = "repro.checkpoint.v1"
MANIFEST_NAME = "CHECKPOINTS.json"
_META_KEY = "meta/json"


@dataclass
class Checkpoint:
    """One loaded checkpoint: the arrays, the meta blob, and provenance."""

    step: int
    arrays: Dict[str, np.ndarray]
    meta: Dict
    path: Path = field(default=None)


class CheckpointManager:
    """Owns one checkpoint directory: atomic saves, verified loads, pruning.

    Parameters
    ----------
    directory:
        Where checkpoints live (created on first save).
    keep:
        Newest checkpoints retained; older ones are pruned after each
        save. 0 keeps everything.
    """

    def __init__(self, directory: PathLike, keep: int = 3):
        if keep < 0:
            raise CheckpointError("keep must be >= 0")
        self.directory = Path(directory)
        self.keep = keep
        #: Filenames skipped as corrupt/unreadable by the last load_latest.
        self.last_skipped: List[str] = []

    # -------------------------------------------------------------- manifest

    def _manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _read_manifest(self) -> Dict:
        try:
            manifest = read_manifest(self._manifest_path(), CHECKPOINT_SCHEMA,
                                     required=("checkpoints",))
            if isinstance(manifest["checkpoints"], dict):
                return manifest
        except CorruptArtifactError:
            pass
        # A missing or damaged manifest must not strand good checkpoint
        # files: rebuild an empty table and let load_latest fall back to
        # globbing (unverified but still schema-checked).
        return {"schema": CHECKPOINT_SCHEMA, "checkpoints": {}}

    # ------------------------------------------------------------------ save

    @staticmethod
    def _filename(step: int) -> str:
        return f"ckpt-{step:08d}.npz"

    def save(self, step: int, arrays: Dict[str, np.ndarray],
             meta: Dict) -> Path:
        """Atomically persist one checkpoint; returns its path."""
        if step < 0:
            raise CheckpointError("step must be >= 0")
        if _META_KEY in arrays:
            raise CheckpointError(f"array name {_META_KEY!r} is reserved")
        self.directory.mkdir(parents=True, exist_ok=True)
        meta = dict(meta)
        meta.setdefault("schema", CHECKPOINT_SCHEMA)
        meta["step"] = int(step)
        payload = dict(arrays)
        payload[_META_KEY] = np.array(json.dumps(meta))  # unicode, no pickle

        path = self.directory / self._filename(step)
        try:
            atomic_savez(path, compressed=True, **payload)
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") \
                from exc

        manifest = self._read_manifest()
        manifest["checkpoints"][path.name] = {"step": int(step),
                                              **file_entry(path)}
        manifest["latest"] = path.name
        self._prune(manifest)
        atomic_write_json(self._manifest_path(), manifest)
        return path

    def _prune(self, manifest: Dict) -> None:
        if not self.keep:
            return
        entries = sorted(manifest["checkpoints"].items(),
                         key=lambda kv: kv[1].get("step", -1), reverse=True)
        for name, _ in entries[self.keep:]:
            manifest["checkpoints"].pop(name, None)
            stale = self.directory / name
            try:
                stale.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------ load

    def _candidates(self) -> List[Dict]:
        """Newest-first candidate files, manifest-verified when possible."""
        manifest = self._read_manifest()
        table = manifest.get("checkpoints", {})
        names = set(table)
        # Glob picks up files a torn manifest forgot about.
        if self.directory.exists():
            for path in self.directory.glob("ckpt-*.npz"):
                names.add(path.name)
        out = []
        for name in names:
            entry = table.get(name, {})
            step = entry.get("step")
            if step is None:
                try:
                    step = int(name[len("ckpt-"):-len(".npz")])
                except ValueError:
                    continue
            out.append({"name": name, "step": int(step), "entry": entry})
        return sorted(out, key=lambda c: c["step"], reverse=True)

    def _load_one(self, candidate: Dict) -> Checkpoint:
        path = self.directory / candidate["name"]
        if candidate["entry"]:  # a globbed file has no entry to check
            check_file(path, candidate["entry"])
        arrays = read_npz(path)
        try:
            meta = json.loads(str(arrays.pop(_META_KEY)))
        except (KeyError, ValueError) as exc:
            raise CorruptArtifactError(
                f"{path.name} has no readable meta blob: {exc}") from exc
        if meta.get("schema") != CHECKPOINT_SCHEMA:
            raise CorruptArtifactError(
                f"{path.name}: unsupported schema {meta.get('schema')!r}")
        return Checkpoint(step=int(meta.get("step", candidate["step"])),
                          arrays=arrays, meta=meta, path=path)

    def load_latest(self) -> Optional[Checkpoint]:
        """Newest checkpoint that verifies and parses; ``None`` if none do.

        Corrupt/truncated/missing candidates are skipped (recorded in
        ``last_skipped`` as ``"name: reason"`` strings) and the next-older
        one is tried — the crash-recovery contract.
        """
        self.last_skipped = []
        for candidate in self._candidates():
            try:
                return self._load_one(candidate)
            except (CorruptArtifactError, FileNotFoundError) as exc:
                self.last_skipped.append(f"{candidate['name']}: {exc}")
        return None

    def load_step(self, step: int) -> Checkpoint:
        """Load one specific step, raising on any damage (no fallback):
        :class:`~repro.exceptions.CorruptArtifactError`, or
        :class:`~repro.exceptions.CheckpointError` for an unknown step."""
        for candidate in self._candidates():
            if candidate["step"] == step:
                return self._load_one(candidate)
        raise CheckpointError(f"no checkpoint for step {step} "
                              f"in {self.directory}")

    def steps(self) -> List[int]:
        """Steps with a checkpoint file present, oldest first."""
        return sorted(c["step"] for c in self._candidates())
