"""Durable tables: one snapshot generation plus a write-ahead log.

A durable service — one shard in process or N forked — and the stream
ingester acknowledge a mutation only after it is *durable*: the owner
appends a checksummed record to its :class:`ShardWAL` and the append
fsyncs before it returns. A crash then loses nothing acknowledged —
recovery loads the snapshot, replays the log past it, and the rebuilt
table is id-identical to the pre-crash state.

Record framing (all little-endian)::

    magic u32 | payload_len u32 | crc32(payload) u32 | payload
    payload := lsn u64 | opcode u8 | body
    body(insert) := n u32 | dim u32 | ids int64[n] | embeddings f64[n*dim]
    body(delete) := n u32 | ids int64[n]

Records are written with magic ``WAL2`` and the stdlib's CRC-32
(``zlib.crc32``). Logs written before it hold ``WAL1`` records, whose
checksum is CRC-32C (Castagnoli); those are still read — by a
table-driven byte loop kept for that alone — and never written, and the
first checkpoint that covers them deletes them. The checksum is chosen
per record by its magic, so one segment may hold WAL1 records followed
by WAL2 ones.

Damage classification is the load-bearing decision: a scan that hits an
invalid record searches *forward* for any structurally valid record
(either magic + length + checksum + decode all pass). If one exists, the
damage is mid-log corruption and recovery raises
:class:`WALCorruptionError` — acknowledged writes would otherwise be
silently dropped. If none exists, the damage is a torn tail from a
crash during append and is repaired by truncating to the longest valid
prefix.

``append`` fsyncs under the log's lock before it returns, so each
acknowledged append pays one fsync; one whose record an earlier fsync
already covered (possible only if appends run concurrently) returns
without one.
"""

from __future__ import annotations

import logging
import os
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.atomicio import (atomic_write_json, atomic_write_text, check_file,
                             file_entry, fsync_dir, fsync_file, read_manifest,
                             read_npz)
from ..exceptions import ServiceClosedError, WALCorruptionError

logger = logging.getLogger(__name__)

__all__ = ["crc32c", "encode_record", "decode_payload", "scan_buffer",
           "list_segments", "WALRecord", "ShardWAL", "OP_INSERT",
           "OP_DELETE", "WAL_MAGIC"]


# --------------------------------------------------------------------------
# Record codec


def _crc32c_table() -> List[int]:
    table = []
    for value in range(256):
        for _ in range(8):
            value = (value >> 1) ^ (0x82F63B78 if value & 1 else 0)
        table.append(value)
    return table


_CRC32C_TABLE = _crc32c_table()


def crc32c(data: bytes) -> int:
    """CRC-32C (Castagnoli) of ``data``: the checksum of WAL1 records."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC32C_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


WAL_MAGIC = 0x57414C32               # b"2LAW" on disk: zlib.crc32 records
_WAL1_MAGIC = 0x57414C31             # b"1LAW": crc32c records, read only
_CHECKSUMS = {WAL_MAGIC: zlib.crc32, _WAL1_MAGIC: crc32c}
_MAGIC_BYTES = [struct.pack("<I", magic) for magic in _CHECKSUMS]
_HEADER = struct.Struct("<III")      # magic, payload length, checksum
_PAYHEAD = struct.Struct("<QB")      # lsn, opcode
_INS_HEAD = struct.Struct("<II")     # n, dim
_DEL_HEAD = struct.Struct("<I")      # n
OP_INSERT = 1
OP_DELETE = 2
MAX_RECORD_BYTES = 1 << 28


class WALRecord(NamedTuple):
    lsn: int
    op: int
    ids: np.ndarray
    embeddings: Optional[np.ndarray]


def encode_record(lsn: int, op: int, ids,
                  embeddings=None) -> bytes:
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if op == OP_INSERT:
        emb = np.ascontiguousarray(embeddings, dtype=np.float64)
        if emb.ndim != 2 or emb.shape[0] != ids.shape[0]:
            raise ValueError("insert record needs one embedding row per id")
        body = (_INS_HEAD.pack(ids.shape[0], emb.shape[1])
                + ids.tobytes() + emb.tobytes())
    elif op == OP_DELETE:
        body = _DEL_HEAD.pack(ids.shape[0]) + ids.tobytes()
    else:
        raise ValueError(f"unknown WAL opcode {op!r}")
    payload = _PAYHEAD.pack(lsn, op) + body
    return _HEADER.pack(WAL_MAGIC, len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> Optional[WALRecord]:
    """Decode a checksummed payload; ``None`` if structurally invalid."""
    try:
        lsn, op = _PAYHEAD.unpack_from(payload, 0)
        off = _PAYHEAD.size
        if op == OP_INSERT:
            n, dim = _INS_HEAD.unpack_from(payload, off)
            off += _INS_HEAD.size
            if dim == 0 or len(payload) - off != n * 8 + n * dim * 8:
                return None
            ids = np.frombuffer(payload, np.int64, n, off).copy()
            off += n * 8
            emb = np.frombuffer(payload, np.float64, n * dim,
                                off).reshape(n, dim).copy()
            return WALRecord(lsn, op, ids, emb)
        if op == OP_DELETE:
            (n,) = _DEL_HEAD.unpack_from(payload, off)
            off += _DEL_HEAD.size
            if len(payload) - off != n * 8:
                return None
            return WALRecord(lsn, op,
                             np.frombuffer(payload, np.int64, n, off).copy(),
                             None)
        return None
    except struct.error:
        return None


def _record_at(buf: bytes, off: int) -> Tuple[Optional[WALRecord], int]:
    """Parse one record at ``off``; ``(None, off)`` if invalid there."""
    if len(buf) - off < _HEADER.size:
        return None, off
    magic, length, crc = _HEADER.unpack_from(buf, off)
    checksum = _CHECKSUMS.get(magic)
    if checksum is None or length > MAX_RECORD_BYTES:
        return None, off
    end = off + _HEADER.size + length
    if end > len(buf):
        return None, off
    payload = buf[off + _HEADER.size:end]
    if checksum(payload) != crc:
        return None, off
    record = decode_payload(payload)
    if record is None:
        return None, off
    return record, end


def _classify_damage(buf: bytes, damage_off: int) -> str:
    """'corrupt' if any valid record starts after the damage, else 'torn'."""
    for magic in _MAGIC_BYTES:
        idx = buf.find(magic, damage_off + 1)
        while idx != -1:
            record, _ = _record_at(buf, idx)
            if record is not None:
                return "corrupt"
            idx = buf.find(magic, idx + 1)
    return "torn"


def scan_buffer(buf: bytes):
    """Scan one segment's bytes.

    Returns ``(records, valid_end, damage)`` where ``damage`` is ``None``
    (clean to EOF), ``'torn'`` (trailing garbage, no valid record after
    it) or ``'corrupt'`` (a valid record follows the damage).
    """
    off = 0
    records: List[WALRecord] = []
    while off < len(buf):
        record, end = _record_at(buf, off)
        if record is None:
            return records, off, _classify_damage(buf, off)
        records.append(record)
        off = end
    return records, off, None


# --------------------------------------------------------------------------
# The durable directory

_SEG_PREFIX = "wal-"
_SEG_SUFFIX = ".log"
SNAPSHOT_SCHEMA = "repro.wal.snapshot.v1"
_MANIFEST_NAME = "SNAPSHOT.json"
_BASE_NAME = "BASE"
_SNAP_PREFIX = "snapshot-"


def _segment_name(first_lsn: int) -> str:
    return f"{_SEG_PREFIX}{first_lsn:020d}{_SEG_SUFFIX}"


def _segment_first_lsn(path: Path) -> int:
    return int(path.name[len(_SEG_PREFIX):-len(_SEG_SUFFIX)])


def list_segments(directory: Path) -> List[Path]:
    return sorted(directory.glob(_SEG_PREFIX + "*" + _SEG_SUFFIX))


class ShardWAL:
    """One durable table's snapshot generation and mutation log.

    A directory holds at most one *committed* snapshot generation (named
    by ``SNAPSHOT.json``) plus the log segments appended since it was
    taken. The object is the one order of operations its owners (the
    shard worker, the stream ingester) would otherwise each repeat:

    * *open* reads the snapshot manifest first. ``base_tag`` fingerprints
      the bytes the table booted from (a partition file, a bundle's
      store); a foreign tag resets snapshot **and** log before any
      segment is opened, because they no longer compose with the base.
      The first open records the tag in a ``BASE`` file, so a directory
      that never took a snapshot is recognised as foreign too. Only then
      are the segments scanned: mid-log corruption raises
      :class:`WALCorruptionError`, a torn tail is truncated away (and
      fsynced), and the tail segment is reopened for append;
    * :meth:`replay` hands over every recovered record past the snapshot;
    * :meth:`append` fsyncs *before* the caller mutates its table;
    * :meth:`checkpoint` snapshots at :attr:`applied_lsn` and drops the
      segments behind it.

    Calls are serialised by the owner (a serial worker loop, the
    ingester's lock); concurrent :meth:`append` calls are safe.

    ``hook`` is a fault-injection seam: called with ``"after_write"``,
    ``"before_fsync"`` and ``"after_fsync"`` at those points of the
    append path (see ``repro.testing.faults.KillAtWALPoint``).
    """

    def __init__(self, directory, base_tag: str, *,
                 segment_bytes: int = 64 << 20,
                 hook: Optional[Callable[[str], None]] = None):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self.base_tag = str(base_tag)
        self._segment_bytes = int(segment_bytes)
        self._hook = hook
        self._mu = threading.Lock()
        self._closed = False
        self._fsyncs = self._appended = 0
        self._fsync_seconds = self._last_fsync_s = 0.0
        self._manifest = self._load_manifest()
        #: Path of the committed snapshot, or ``None`` (start from the
        #: base). Digest-verified here, before the log opens, so a
        #: corrupt snapshot fails the open with nothing left open.
        self.snapshot: Optional[Path] = (
            check_file(self._dir / self._manifest["file"], self._manifest)
            if self._manifest else None)
        self._applied_lsn = int(self._manifest.get("applied_lsn", 0))
        self._recovered = self._open_and_repair()
        last = self._recovered[-1].lsn if self._recovered else 0
        segments = list_segments(self._dir)
        if segments:
            # An empty tail segment (left behind by a checkpoint, or by a
            # tear before its first record) still pins the LSN sequence
            # via its filename: snapshots reference the LSNs it stood
            # for, so the sequence must never regress below it.
            last = max(last, _segment_first_lsn(segments[-1]) - 1)
        self._next_lsn = last + 1
        self._written_lsn = self._durable_lsn = last
        if segments:
            self._seg_path = segments[-1]
            self._seg_size = self._seg_path.stat().st_size
            self._file = open(self._seg_path, "ab")
        else:
            self._start_segment_locked(self._next_lsn)

    # -- open --------------------------------------------------------------

    def _load_manifest(self) -> dict:
        """The committed snapshot's manifest (``{}`` if none), after
        resetting a directory recorded for a foreign base."""
        path = self._dir / _MANIFEST_NAME
        base_path = self._dir / _BASE_NAME
        manifest = {}
        if path.exists():
            manifest = read_manifest(path, SNAPSHOT_SCHEMA, required=(
                "generation", "file", "sha256", "applied_lsn"))
        # A directory from before the BASE file knows its base only from
        # its manifest.
        recorded = (base_path.read_text() if base_path.exists()
                    else manifest.get("base"))
        if recorded is not None and recorded != self.base_tag:
            logger.warning(
                "durable state in %s was built for base %s, current base "
                "is %s: resetting (a new base replaces the data wholesale)",
                self._dir, recorded, self.base_tag)
            for stale in [*self._dir.glob(_SNAP_PREFIX + "*.npz"),
                          *list_segments(self._dir),
                          path, base_path]:
                stale.unlink(missing_ok=True)
            fsync_dir(self._dir)
            manifest = {}
        if not base_path.exists():
            atomic_write_text(base_path, self.base_tag, durable=True)
        return manifest

    def _open_and_repair(self) -> List[WALRecord]:
        segments = list_segments(self._dir)
        records: List[WALRecord] = []
        last_lsn = 0
        damage_at: Optional[Tuple[int, int]] = None
        for index, segment in enumerate(segments):
            seg_records, valid_end, damage = scan_buffer(segment.read_bytes())
            if damage == "corrupt":
                raise WALCorruptionError(
                    f"mid-log corruption in {segment}: a valid record "
                    f"follows a damaged one at byte {valid_end}")
            if damage_at is not None and seg_records:
                raise WALCorruptionError(
                    f"valid records in {segment} follow a damaged tail in "
                    f"{segments[damage_at[0]]}")
            for record in seg_records:
                if record.lsn <= last_lsn:
                    raise WALCorruptionError(
                        f"non-monotonic lsn {record.lsn} after {last_lsn} "
                        f"in {segment}")
                last_lsn = record.lsn
                records.append(record)
            if damage == "torn" and damage_at is None:
                damage_at = (index, valid_end)
        if damage_at is not None:
            index, valid_end = damage_at
            torn = segments[index]
            logger.warning(
                "wal: torn tail in %s: truncating %d -> %d bytes",
                torn, torn.stat().st_size, valid_end)
            with open(torn, "r+b") as handle:
                handle.truncate(valid_end)
                handle.flush()
                os.fsync(handle.fileno())
            for segment in segments[index + 1:]:
                segment.unlink()
            fsync_dir(self._dir)
        return records

    @property
    def applied_lsn(self) -> int:
        """LSN of the last record the caller's table reflects."""
        with self._mu:
            return self._applied_lsn

    def replay(self) -> Iterator[WALRecord]:
        """Yield each record the table does not reflect yet, in LSN order:
        what opening the log recovered, once. A record counts as applied
        only when the caller comes back for the next one, so an apply
        that raises leaves :attr:`applied_lsn` on the last record that
        landed.
        """
        with self._mu:
            records, self._recovered = self._recovered, []
        for record in records:
            if record.lsn <= self.applied_lsn:
                continue  # the snapshot already covers it
            yield record
            with self._mu:
                self._applied_lsn = record.lsn

    # -- append ------------------------------------------------------------

    def _fire(self, point: str) -> None:
        if self._hook is not None:
            self._hook(point)

    def _start_segment_locked(self, first_lsn: int) -> None:
        """Open a fresh segment and make its directory entry durable.

        Caller must hold ``self._mu`` (or be the constructor, before the
        lock is shared). The directory fsync comes before any record is
        appended: fsyncing the file alone does not persist its name, so
        a power cut could otherwise lose a segment of acked records.
        """
        self._seg_path = self._dir / _segment_name(first_lsn)
        self._file = open(self._seg_path, "ab")
        self._seg_size = 0
        fsync_dir(self._dir)

    def _maybe_rotate_locked(self, incoming_bytes: int, first_lsn: int) -> None:
        """Rotate to a new segment if the current one is full.

        Caller must hold ``self._mu``. Everything in the outgoing
        segment is fsynced before the switch so a later fsync on the new
        file never strands older records in an unsynced buffer.
        """
        if (self._seg_size == 0
                or self._seg_size + incoming_bytes <= self._segment_bytes):
            return
        self._fsync_pending_locked()
        self._file.close()
        self._start_segment_locked(first_lsn)

    def _fsync_pending_locked(self, lsn: Optional[int] = None) -> None:
        """Fsync written-but-not-durable records. Caller must hold
        ``self._mu``. No-op if ``lsn`` (or everything written) is
        already durable — an appender whose record an earlier fsync
        covered returns without one."""
        if self._durable_lsn >= (self._written_lsn if lsn is None else lsn):
            return
        target = self._written_lsn
        self._fire("before_fsync")
        started = time.perf_counter()
        self._file.flush()
        os.fsync(self._file.fileno())
        elapsed = time.perf_counter() - started
        self._fire("after_fsync")
        self._durable_lsn = target
        self._fsyncs += 1
        self._fsync_seconds += elapsed
        self._last_fsync_s = elapsed

    def append(self, op: int, ids, embeddings=None) -> int:
        """Make one mutation durable, then count it applied; returns its
        LSN. Returns only once the record is fsynced. If this raises,
        nothing was acknowledged, :attr:`applied_lsn` has not moved and
        the caller must not mutate."""
        with self._mu:
            if self._closed:
                raise ServiceClosedError("WAL is closed")
            lsn = self._next_lsn
            buf = encode_record(lsn, op, ids, embeddings)
            self._next_lsn += 1
            self._maybe_rotate_locked(len(buf), lsn)
            self._file.write(buf)
            self._seg_size += len(buf)
            self._written_lsn = lsn
            self._appended += 1
            self._fire("after_write")
        with self._mu:
            self._fsync_pending_locked(lsn)
            self._applied_lsn = max(self._applied_lsn, lsn)
        return lsn

    @property
    def durable_lsn(self) -> int:
        with self._mu:
            return self._durable_lsn

    # -- checkpoint --------------------------------------------------------

    def checkpoint(self, save_fn: Callable[[str], None], *, count: int,
                   next_id: int) -> dict:
        """Commit a snapshot of the caller's table at :attr:`applied_lsn`
        and drop the log segments it covers; returns the manifest.

        ``save_fn(path)`` must atomically produce an ``.npz`` file at
        ``path`` (the store's own atomic save). The previous generation
        is kept until the new one has been re-read and digested; only
        then is the manifest flipped, the old file deleted, and the log
        truncated through the snapshot's LSN.
        """
        with self._mu:
            applied_lsn, previous = self._applied_lsn, self._manifest
        generation = int(previous.get("generation", 0)) + 1
        fname = f"{_SNAP_PREFIX}{generation:06d}.npz"
        fpath = self._dir / fname
        save_fn(str(fpath))
        fsync_file(fpath)
        fsync_dir(self._dir)
        read_npz(fpath)  # a full decompress/read of every member
        manifest = {
            "schema": SNAPSHOT_SCHEMA,
            "generation": generation,
            "file": fname,
            **file_entry(fpath),
            "count": int(count),
            "next_id": int(next_id),
            "applied_lsn": int(applied_lsn),
            "base": self.base_tag,
        }
        atomic_write_json(self._dir / _MANIFEST_NAME, manifest, durable=True)
        with self._mu:
            self._manifest = manifest
        self.snapshot = fpath
        if previous.get("file", fname) != fname:
            (self._dir / previous["file"]).unlink(missing_ok=True)
        self._truncate_through(applied_lsn)
        return manifest

    def _truncate_through(self, lsn: int) -> None:
        """Drop segments wholly covered by a published snapshot at
        ``lsn``; records past ``lsn`` are always retained."""
        with self._mu:
            if self._written_lsn <= lsn:
                self._fsync_pending_locked()
                self._file.close()
                for segment in list_segments(self._dir):
                    segment.unlink()
                self._start_segment_locked(self._next_lsn)
                return
            segments = list_segments(self._dir)
            firsts = [_segment_first_lsn(p) for p in segments]
            for index, segment in enumerate(segments[:-1]):
                if firsts[index + 1] - 1 <= lsn:
                    segment.unlink()
            fsync_dir(self._dir)

    # -- status ------------------------------------------------------------

    def stats(self) -> dict:
        with self._mu:
            segments = list_segments(self._dir)
            return {
                "applied_lsn": self._applied_lsn,
                "snapshot_generation": self._manifest.get("generation", 0),
                "wal": {
                    "next_lsn": self._next_lsn,
                    "durable_lsn": self._durable_lsn,
                    "appended": self._appended,
                    "fsyncs": self._fsyncs,
                    "fsync_seconds": round(self._fsync_seconds, 6),
                    "last_fsync_seconds": round(self._last_fsync_s, 6),
                    "segments": len(segments),
                    "bytes": sum(p.stat().st_size for p in segments),
                },
            }

    def close(self) -> None:
        """Fsync what was written and release the segment. The handle is
        released even when that fsync fails (the error propagates), so
        no buffered record can reach the file after this returns."""
        with self._mu:
            if self._closed:
                return
            self._closed = True
            try:
                self._fsync_pending_locked()
            finally:
                self._file.close()
