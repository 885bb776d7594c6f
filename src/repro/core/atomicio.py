"""Atomic, durable file publication helpers.

Every artifact this package persists (stores, bundles, checkpoints,
partitions, WAL snapshots) must be published *atomically*: a reader —
including a recovering process — either sees the complete old file or
the complete new file, never a torn intermediate. The pattern is always
the same: write to a same-directory temporary, optionally fsync it, then
``os.replace`` onto the final name.

This module is the single home of that pattern. The
``durability-discipline`` lint rule (:mod:`repro.analysis`) bans
``os.rename`` outright and restricts ``os.replace`` to functions whose
names mark them as atomic-write helpers — so new persistence code is
steered here instead of hand-rolling rename dances.

``durable=True`` additionally fsyncs the file *before* the rename and
the directory *after* it, which is what crash-consistency on a real
filesystem requires (the rename itself is atomic, but neither the data
nor the directory entry is guaranteed on disk until fsynced). The
write-ahead log (:mod:`repro.serving.wal`) publishes snapshots and
manifests with ``durable=True``; cheaper artifacts (caches, reports)
keep the default and only buy atomicity.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Union

import numpy as np

PathLike = Union[str, Path]

__all__ = ["atomic_replace", "atomic_write_bytes", "atomic_write_text",
           "atomic_write_json", "atomic_savez", "fsync_file", "fsync_dir",
           "sha256_file"]


def sha256_file(path: PathLike, chunk_bytes: int = 1 << 20) -> str:
    """Hex sha256 of a file's bytes — the digest every manifest records."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(chunk_bytes), b""):
            digest.update(chunk)
    return digest.hexdigest()


def fsync_file(path: PathLike) -> None:
    """fsync an already-written file by path."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: PathLike) -> None:
    """fsync a directory so a rename inside it survives a crash."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_replace(tmp: PathLike, dst: PathLike,
                   durable: bool = False) -> None:
    """Atomically publish ``tmp`` (a fully written file) as ``dst``.

    With ``durable=True`` the file is fsynced before the rename and the
    parent directory after it, so the publication survives power loss,
    not just process death.
    """
    tmp, dst = Path(tmp), Path(dst)
    if durable:
        fsync_file(tmp)
    os.replace(tmp, dst)
    if durable:
        fsync_dir(dst.parent)


def _tmp_name(path: Path) -> Path:
    return path.with_name(path.name + f".tmp-{os.getpid()}")


def atomic_write_bytes(path: PathLike, data: bytes,
                       durable: bool = False) -> None:
    """Write ``data`` to ``path`` via a temp file + atomic rename."""
    path = Path(path)
    tmp = _tmp_name(path)
    with open(tmp, "wb") as handle:
        handle.write(data)
        if durable:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if durable:
        fsync_dir(path.parent)


def atomic_write_text(path: PathLike, text: str,
                      durable: bool = False) -> None:
    atomic_write_bytes(path, text.encode("utf-8"), durable=durable)


def atomic_write_json(path: PathLike, payload,
                      durable: bool = False) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True)
                      + "\n", durable=durable)


def atomic_savez(path: PathLike, compressed: bool = False,
                 durable: bool = False, **arrays) -> None:
    """``np.savez`` to exactly ``path`` via a temp file + atomic rename.

    ``np.savez`` appends ``.npz`` when the target has no suffix; the
    temp-file dance undoes that so the file lands at the requested name.
    """
    path = Path(path)
    tmp = _tmp_name(path)
    if compressed:
        np.savez_compressed(tmp, **arrays)
    else:
        np.savez(tmp, **arrays)
    tmp_written = tmp if tmp.exists() else tmp.with_suffix(
        tmp.suffix + ".npz")
    atomic_replace(tmp_written, path, durable=durable)
