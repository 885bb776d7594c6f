"""The artifact layer: atomic publication and checked reads.

Every artifact this package persists (DESIGN.md, "Persisted artifacts")
is published *atomically*: a reader — including a recovering process —
either sees the complete old file or the complete new file, never a
torn intermediate. The pattern is always the same: write to a
same-directory temporary, optionally fsync it, then ``os.replace`` onto
the final name; a write that raises removes its temporary. The
``durability-discipline`` lint rule (:mod:`repro.analysis`) bans
``os.rename`` and confines ``os.replace`` to this module, so new
persistence code is steered here instead of hand-rolling rename dances.

``durable=True`` additionally fsyncs the file *before* the rename and
the directory *after* it, which is what crash-consistency on a real
filesystem requires (the rename itself is atomic, but neither the data
nor the directory entry is guaranteed on disk until fsynced). The
write-ahead log (:mod:`repro.serving.wal`) publishes snapshots and
manifests with ``durable=True``; cheaper artifacts keep the default.

The read side is here too: a JSON manifest carries a ``schema`` and,
per payload file, a :func:`file_entry`; :func:`read_manifest` and
:func:`check_file` turn any damage into
:class:`~repro.exceptions.CorruptArtifactError`. A standalone ``.npz``
has no manifest, so :func:`atomic_savez` seals the digest into the
archive itself — its zip comment holds the sha256 of every byte before
the comment — and :func:`read_npz` checks that seal before it opens the
archive with pickle disabled.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

import numpy as np

from ..exceptions import CorruptArtifactError

PathLike = Union[str, Path]

#: A zip archive ends in a 22-byte end record that starts with
#: ``_ZIP_END`` and whose last two bytes are the length of the comment
#: after it. :func:`atomic_savez` seals an ``.npz`` with a comment: this
#: prefix, then the hex sha256 of every byte before the comment.
_ZIP_END = b"PK\x05\x06"
_SEAL = b"repro-sha256:"
_SEAL_BYTES = len(_SEAL) + 64

__all__ = ["atomic_replace", "atomic_write_bytes", "atomic_write_buffers",
           "atomic_write_text", "atomic_write_json", "atomic_savez",
           "fsync_file", "fsync_dir", "sha256_file", "file_entry",
           "read_manifest", "check_file", "read_npz"]


def _sha256_stream(handle, limit: Optional[int] = None) -> str:
    """Hex sha256 of the next ``limit`` bytes of ``handle`` (of all the
    bytes left when ``limit`` is ``None``)."""
    digest = hashlib.sha256()
    while limit is None or limit > 0:
        chunk = handle.read(1 << 20 if limit is None else min(1 << 20, limit))
        if not chunk:
            break
        digest.update(chunk)
        limit = None if limit is None else limit - len(chunk)
    return digest.hexdigest()


def sha256_file(path: PathLike) -> str:
    """Hex sha256 of a file's bytes — the digest every manifest records."""
    with open(path, "rb") as handle:
        return _sha256_stream(handle)


def fsync_file(path: PathLike) -> None:
    """fsync an already-written file — or a directory, so a rename
    inside it survives a crash — by path."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


fsync_dir = fsync_file


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
    # Per thread too: two threads may publish the same cache entry.
    return path.with_name(
        path.name + f".tmp-{os.getpid()}-{threading.get_ident()}")


def _publish(path: PathLike, write, durable: bool) -> None:
    """``write(handle)`` into a temp file, then publish it as ``path``;
    if anything raises, the temp file goes and nothing is published."""
    path = Path(path)
    tmp = _tmp_name(path)
    try:
        with open(tmp, "w+b") as handle:
            write(handle)
        atomic_replace(tmp, path, durable=durable)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_buffers(path: PathLike, buffers: Iterable,
                         durable: bool = False) -> None:
    """Write each bytes-like object of ``buffers`` in turn to ``path``
    via a temp file + atomic rename: an ``ndarray`` is written from its
    own memory, with no ``tobytes()`` copy."""
    def write(handle) -> None:
        for buffer in buffers:
            handle.write(buffer)
    _publish(path, write, durable)


def atomic_write_bytes(path: PathLike, data: bytes,
                       durable: bool = False) -> None:
    """Write ``data`` to ``path`` via a temp file + atomic rename."""
    atomic_write_buffers(path, (data,), durable)


def atomic_write_text(path: PathLike, text: str,
                      durable: bool = False) -> None:
    atomic_write_bytes(path, text.encode("utf-8"), durable=durable)


def atomic_write_json(path: PathLike, payload,
                      durable: bool = False) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True)
                      + "\n", durable=durable)


def _seal_npz(handle) -> None:
    """Give the archive ``np.savez`` just wrote to ``handle`` (its end
    record last, with no comment) the seal as its zip comment."""
    handle.seek(-2, os.SEEK_END)
    handle.write(struct.pack("<H", _SEAL_BYTES))
    handle.seek(0)
    handle.write(_SEAL + _sha256_stream(handle).encode())


def atomic_savez(path: PathLike, compressed: bool = False,
                 durable: bool = False, **arrays) -> None:
    """``np.savez`` to exactly ``path`` via a temp file + atomic rename
    (written through a handle, so no ``.npz`` suffix is appended),
    sealed with the sha256 that :func:`read_npz` checks."""
    save = np.savez_compressed if compressed else np.savez

    def write(handle) -> None:
        save(handle, **arrays)
        _seal_npz(handle)
    _publish(path, write, durable)


# --------------------------------------------------------------- read side

def file_entry(path: PathLike) -> Dict:
    """The manifest entry for one payload file: its sha256 and size."""
    return {"sha256": sha256_file(path), "bytes": Path(path).stat().st_size}


def read_manifest(path: PathLike, schema: str,
                  required: Iterable[str] = ()) -> Dict:
    """Parse a JSON manifest and check its ``schema`` and keys.

    A missing, unparseable or foreign manifest, or one without a
    ``required`` key, raises :class:`CorruptArtifactError`.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # missing, torn, not UTF-8
        raise CorruptArtifactError(f"unreadable {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CorruptArtifactError(f"unreadable {path}: not a JSON object")
    if manifest.get("schema") != schema:
        raise CorruptArtifactError(
            f"{path} has schema {manifest.get('schema')!r} but this build "
            f"reads {schema!r}: re-export it with this build")
    missing = [key for key in required if key not in manifest]
    if missing:
        raise CorruptArtifactError(f"{path} is missing {missing}")
    return manifest


def check_file(path: PathLike, entry: Dict, verify: bool = True) -> Path:
    """``path`` if it exists and matches ``entry``: its ``bytes`` where
    recorded, then (``verify``) its ``sha256``; else
    :class:`CorruptArtifactError`."""
    path = Path(path)
    if not path.is_file():
        raise CorruptArtifactError(f"artifact file missing: {path}")
    size = path.stat().st_size
    if "bytes" in entry and size != entry["bytes"]:
        raise CorruptArtifactError(
            f"{path} is {size} bytes, manifest says {entry['bytes']}")
    if verify and sha256_file(path) != entry.get("sha256"):
        raise CorruptArtifactError(f"{path} is corrupted (sha256 mismatch)")
    return path


def _check_npz_seal(path: PathLike) -> None:
    """Check the sha256 an :func:`atomic_savez` archive is sealed with.

    An archive that ends in a bare zip end record has no seal (it was
    written before archives carried one) and passes; one that ends in
    neither that nor a seal whose digest matches is corrupt.
    """
    with open(path, "rb") as handle:
        size = handle.seek(0, os.SEEK_END)
        handle.seek(max(0, size - 22 - _SEAL_BYTES))
        tail = handle.read()
        if tail[-22:-18] == _ZIP_END and tail[-2:] == b"\0\0":
            return
        record, seal = tail[:-_SEAL_BYTES], tail[-_SEAL_BYTES:]
        if (len(record) != 22 or not record.startswith(_ZIP_END)
                or record[-2:] != struct.pack("<H", _SEAL_BYTES)
                or not seal.startswith(_SEAL)):
            raise CorruptArtifactError(f"{path} has no zip end record")
        handle.seek(0)
        digest = _sha256_stream(handle, limit=size - _SEAL_BYTES)
    if digest.encode() != seal[len(_SEAL):]:
        raise CorruptArtifactError(f"{path} is corrupted (sha256 mismatch)")


def read_npz(path: PathLike) -> Dict[str, np.ndarray]:
    """Every member of an ``.npz``, read with pickle off (no bytes can
    deserialise into objects), after its seal is checked. A seal
    mismatch, zip, zlib or format damage raises
    :class:`CorruptArtifactError`; ``FileNotFoundError`` passes through."""
    try:
        _check_npz_seal(path)
        with np.load(path, allow_pickle=False) as data:
            return {key: data[key] for key in data.files}
    except (FileNotFoundError, CorruptArtifactError):
        raise
    except Exception as exc:
        raise CorruptArtifactError(f"cannot read {path}: {exc}") from exc
