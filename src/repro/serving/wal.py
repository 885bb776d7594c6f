"""Per-shard write-ahead durability: WAL, snapshots, recovery.

A durable service — one shard in process or N forked — acknowledges
``insert``/``delete`` mutations only after they are *durable*: the shard
worker appends a checksummed record to its write-ahead log and fsyncs
before replying. A crash then
loses nothing acknowledged — recovery replays snapshot + WAL and the
rebuilt shard is id-identical to the pre-crash state.

Record framing (all little-endian)::

    magic u32 | payload_len u32 | crc32c(payload) u32 | payload
    payload := lsn u64 | opcode u8 | body
    body(insert) := n u32 | dim u32 | ids int64[n] | embeddings f64[n*dim]
    body(delete) := n u32 | ids int64[n]

Damage classification is the load-bearing decision: a scan that hits an
invalid record searches *forward* for any structurally valid record
(magic + length + crc + decode all pass). If one exists, the damage is
mid-log corruption and recovery raises :class:`WALCorruptionError` —
acknowledged writes would otherwise be silently dropped. If none
exists, the damage is a torn tail from a crash during append and is
repaired by truncating to the longest valid prefix.

crc32c (Castagnoli) is implemented here because the C extension package
is not available in this environment. Small buffers use a table-driven
byte loop; large buffers split into K blocks CRC'd simultaneously as a
numpy-vectorized state array, then folded with zero-byte shift tables
(CRC is linear over GF(2), so ``crc(A||B) = shift(crc(A), |B|) ^
crc(B)``).

Group commit: with ``fsync_window_ms == 0`` every ``append`` fsyncs
before returning (concurrent appenders piggyback on each other's
fsyncs). With a positive window, a committer thread fsyncs the batch
accumulated over each window and appenders block on a condition until
their LSN is durable. Either way the ack-after-fsync invariant holds:
``append`` never returns before its record is on disk.
"""

from __future__ import annotations

import logging
import os
import struct
import threading
import time
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple)

import numpy as np

from ..core.atomicio import (atomic_write_json, atomic_write_text, check_file,
                             file_entry, fsync_dir, fsync_file, read_manifest,
                             read_npz)
from ..exceptions import ServiceClosedError, WALCorruptionError

logger = logging.getLogger(__name__)

__all__ = ["crc32c", "encode_record", "decode_payload", "scan_buffer",
           "WALRecord", "ShardWAL", "ShardDurability", "DurableLog",
           "OP_INSERT", "OP_DELETE", "WAL_MAGIC"]


# --------------------------------------------------------------------------
# crc32c (Castagnoli, reflected polynomial 0x82F63B78)

_CRC_POLY = np.uint32(0x82F63B78)
_CRC_MASK = 0xFFFFFFFF


def _build_crc_table() -> np.ndarray:
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        odd = (table & np.uint32(1)).astype(bool)
        table >>= np.uint32(1)
        table[odd] ^= _CRC_POLY
    return table


_CRC_TABLE = _build_crc_table()
_CRC_TABLE_LIST = [int(x) for x in _CRC_TABLE]
_SCALAR_CUTOFF = 2048
_SHIFT_CACHE: Dict[int, List[List[int]]] = {}
_SHIFT_CACHE_MAX = 32


def _crc_update_scalar(crc: int, data) -> int:
    """Raw register update (no init/final conditioning), one byte at a time."""
    table = _CRC_TABLE_LIST
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc


def _zero_shift_tables(m: int) -> List[List[int]]:
    """Byte-indexed tables applying the linear map 'feed m zero bytes'.

    ``L_m(v) = T0[v&FF] ^ T1[(v>>8)&FF] ^ T2[(v>>16)&FF] ^ T3[(v>>24)&FF]``
    holds because the CRC register update is GF(2)-linear in the register.
    """
    cached = _SHIFT_CACHE.get(m)
    if cached is not None:
        return cached
    vals = np.arange(256, dtype=np.uint32)
    states = np.concatenate([vals << np.uint32(8 * j) for j in range(4)])
    for _ in range(m):
        states = (states >> np.uint32(8)) ^ _CRC_TABLE[states & np.uint32(0xFF)]
    tables = [[int(x) for x in states[j * 256:(j + 1) * 256]]
              for j in range(4)]
    if len(_SHIFT_CACHE) >= _SHIFT_CACHE_MAX:
        _SHIFT_CACHE.clear()
    _SHIFT_CACHE[m] = tables
    return tables


def crc32c(data: bytes, value: int = 0) -> int:
    """crc32c of ``data``; ``value`` chains a previous result."""
    crc = (value ^ _CRC_MASK) & _CRC_MASK
    n = len(data)
    if n < _SCALAR_CUTOFF:
        return (_crc_update_scalar(crc, data) ^ _CRC_MASK) & _CRC_MASK
    blocks = max(8, min(1024, (int(n ** 0.5) // 8) * 8))
    m = n // blocks
    body = np.frombuffer(data, dtype=np.uint8,
                         count=blocks * m).reshape(blocks, m)
    cols = np.ascontiguousarray(body.T)
    states = np.zeros(blocks, dtype=np.uint32)
    for row in cols:
        states = (states >> np.uint32(8)) ^ _CRC_TABLE[(states ^ row)
                                                       & np.uint32(0xFF)]
    t0, t1, t2, t3 = _zero_shift_tables(m)
    for block_crc in (int(s) for s in states):
        crc = (t0[crc & 0xFF] ^ t1[(crc >> 8) & 0xFF]
               ^ t2[(crc >> 16) & 0xFF] ^ t3[crc >> 24]) ^ block_crc
    crc = _crc_update_scalar(crc, data[blocks * m:])
    return (crc ^ _CRC_MASK) & _CRC_MASK


# --------------------------------------------------------------------------
# Record codec

WAL_MAGIC = 0x57414C31
_MAGIC_BYTES = struct.pack("<I", WAL_MAGIC)
_HEADER = struct.Struct("<III")      # magic, payload length, crc32c(payload)
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
    return _HEADER.pack(WAL_MAGIC, len(payload), crc32c(payload)) + payload


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
    if magic != WAL_MAGIC or length > MAX_RECORD_BYTES:
        return None, off
    end = off + _HEADER.size + length
    if end > len(buf):
        return None, off
    payload = buf[off + _HEADER.size:end]
    if crc32c(payload) != crc:
        return None, off
    record = decode_payload(payload)
    if record is None:
        return None, off
    return record, end


def _classify_damage(buf: bytes, damage_off: int) -> str:
    """'corrupt' if any valid record starts after the damage, else 'torn'."""
    idx = buf.find(_MAGIC_BYTES, damage_off + 1)
    while idx != -1:
        record, _ = _record_at(buf, idx)
        if record is not None:
            return "corrupt"
        idx = buf.find(_MAGIC_BYTES, idx + 1)
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
# Segment files

_SEG_PREFIX = "wal-"
_SEG_SUFFIX = ".log"


def _segment_name(first_lsn: int) -> str:
    return f"{_SEG_PREFIX}{first_lsn:020d}{_SEG_SUFFIX}"


def _segment_first_lsn(path: Path) -> int:
    return int(path.name[len(_SEG_PREFIX):-len(_SEG_SUFFIX)])


def list_segments(directory: Path) -> List[Path]:
    return sorted(directory.glob(_SEG_PREFIX + "*" + _SEG_SUFFIX))


class ShardWAL:
    """Append-only, crash-recoverable mutation log for one shard.

    Opening scans every segment: mid-log corruption raises
    :class:`WALCorruptionError`; a torn tail is truncated away (and
    fsynced) so the log ends at the longest valid prefix. The records
    that survived are available once via :meth:`drain_recovered` for
    replay onto the store.

    ``hook`` is a fault-injection seam: called with ``"after_write"``,
    ``"before_fsync"`` and ``"after_fsync"`` at those points of the
    append path (see ``repro.testing.faults.KillAtWALPoint``).
    """

    def __init__(self, directory, *, segment_bytes: int = 64 << 20,
                 fsync_window_ms: float = 0.0,
                 hook: Optional[Callable[[str], None]] = None):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._segment_bytes = int(segment_bytes)
        self._window_s = float(fsync_window_ms) / 1000.0
        self._hook = hook
        self._mu = threading.Lock()
        self._cond = threading.Condition(self._mu)
        self._closed = False
        self._commit_error: Optional[BaseException] = None
        self._fsyncs = 0
        self._fsync_seconds = 0.0
        self._last_fsync_s = 0.0
        self._appended = 0
        self._recovered = self._open_and_repair()
        last = self._recovered[-1].lsn if self._recovered else 0
        segments = list_segments(self._dir)
        if segments:
            # An empty tail segment (left behind by truncate_through, or
            # by a tear before its first record) still pins the LSN
            # sequence via its filename: snapshots reference the LSNs it
            # stood for, so the sequence must never regress below it.
            last = max(last, _segment_first_lsn(segments[-1]) - 1)
        self._next_lsn = last + 1
        self._written_lsn = last
        self._durable_lsn = last
        if segments:
            self._seg_path = segments[-1]
            self._seg_size = self._seg_path.stat().st_size
            self._file = open(self._seg_path, "ab")
        else:
            self._start_segment_locked(self._next_lsn)
        self._committer: Optional[threading.Thread] = None
        self._commit_wake = threading.Event()
        if self._window_s > 0:
            self._committer = threading.Thread(
                target=self._commit_loop,
                name=f"wal-committer-{self._dir.name}", daemon=True)
            self._committer.start()

    # -- recovery ----------------------------------------------------------

    def _open_and_repair(self) -> List[WALRecord]:
        segments = list_segments(self._dir)
        records: List[WALRecord] = []
        last_lsn = 0
        damage_at: Optional[Tuple[int, int]] = None
        for index, segment in enumerate(segments):
            data = segment.read_bytes()
            seg_records, valid_end, damage = scan_buffer(data)
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

    def drain_recovered(self) -> List[WALRecord]:
        """Records recovered at open, returned once for replay."""
        with self._mu:
            records, self._recovered = self._recovered, []
        return records

    # -- append path -------------------------------------------------------

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
        if self._seg_size == 0:
            return
        if self._seg_size + incoming_bytes <= self._segment_bytes:
            return
        self._fsync_pending_locked()
        self._file.close()
        self._start_segment_locked(first_lsn)

    def _fsync_pending_locked(self, lsn: Optional[int] = None) -> None:
        """Fsync written-but-not-durable records. Caller must hold
        ``self._mu``. No-op if ``lsn`` (or everything written) is
        already durable — concurrent appenders piggyback this way."""
        if lsn is not None and self._durable_lsn >= lsn:
            return
        if self._durable_lsn >= self._written_lsn:
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
        self._cond.notify_all()

    def append(self, op: int, ids, embeddings=None) -> int:
        """Append one mutation record; returns its LSN.

        Blocks until the record is fsynced, directly or via the
        group-commit window.
        """
        with self._mu:
            if self._closed:
                raise ServiceClosedError("WAL is closed")
            if self._commit_error is not None:
                raise ServiceClosedError(
                    f"WAL committer failed: {self._commit_error}")
            lsn = self._next_lsn
            self._next_lsn += 1
            buf = encode_record(lsn, op, ids, embeddings)
            self._maybe_rotate_locked(len(buf), lsn)
            self._file.write(buf)
            self._seg_size += len(buf)
            self._written_lsn = lsn
            self._appended += 1
            self._fire("after_write")
        if self._window_s <= 0:
            with self._mu:
                self._fsync_pending_locked(lsn)
            return lsn
        self._commit_wake.set()
        with self._mu:
            while self._durable_lsn < lsn:
                if self._commit_error is not None:
                    raise ServiceClosedError(
                        f"WAL committer failed: {self._commit_error}")
                if self._closed:
                    raise ServiceClosedError("WAL closed while waiting "
                                             "for group commit")
                self._cond.wait(0.5)
        return lsn

    def _commit_loop(self) -> None:
        try:
            while True:
                triggered = self._commit_wake.wait(
                    timeout=max(self._window_s, 0.05))
                if triggered:
                    # Let the group accumulate for one full window before
                    # paying for the fsync.
                    time.sleep(self._window_s)
                self._commit_wake.clear()
                with self._mu:
                    self._fsync_pending_locked()
                    if self._closed and self._durable_lsn >= self._written_lsn:
                        return
        except Exception as exc:  # noqa: BLE001 - committer must not die silently
            logger.exception("wal: committer thread failed")
            with self._mu:
                self._commit_error = exc
                self._cond.notify_all()

    # -- maintenance -------------------------------------------------------

    def truncate_through(self, lsn: int) -> None:
        """Drop segments wholly covered by a snapshot at ``lsn``.

        Records with LSN > ``lsn`` are always retained. Called after a
        snapshot manifest is durably published, so losing the dropped
        prefix is safe by construction.
        """
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

    @property
    def durable_lsn(self) -> int:
        with self._mu:
            return self._durable_lsn

    @property
    def next_lsn(self) -> int:
        with self._mu:
            return self._next_lsn

    def stats(self) -> dict:
        with self._mu:
            segments = list_segments(self._dir)
            total = 0
            for segment in segments:
                try:
                    total += segment.stat().st_size
                except OSError:
                    logger.debug("wal: segment %s vanished during stats",
                                 segment)
            return {
                "next_lsn": self._next_lsn,
                "durable_lsn": self._durable_lsn,
                "appended": self._appended,
                "fsyncs": self._fsyncs,
                "fsync_seconds": round(self._fsync_seconds, 6),
                "last_fsync_seconds": round(self._last_fsync_s, 6),
                "fsync_window_ms": self._window_s * 1000.0,
                "segments": len(segments),
                "bytes": total,
            }

    def close(self) -> None:
        with self._mu:
            if self._closed:
                return
            self._closed = True
            if self._committer is None:
                self._fsync_pending_locked()
        if self._committer is not None:
            self._commit_wake.set()
            self._committer.join(timeout=5.0)
        with self._mu:
            try:
                self._file.close()
            except OSError:
                logger.exception("wal: close failed for %s", self._seg_path)


# --------------------------------------------------------------------------
# Snapshot generations

SNAPSHOT_SCHEMA = "repro.wal.snapshot.v1"
_MANIFEST_NAME = "SNAPSHOT.json"
_BASE_NAME = "BASE"
_SNAP_PREFIX = "snapshot-"


class ShardDurability:
    """Snapshot-generation bookkeeping for one shard's durable directory.

    A directory holds at most one *committed* generation (named by
    ``SNAPSHOT.json``) plus the WAL segments appended since it was
    taken. ``base_tag`` fingerprints the bytes the table booted from (a
    partition file, a bundle's store): if they change, the durable state
    no longer composes with the base and is reset rather than replayed
    onto data it never described. The first open records the tag in a
    ``BASE`` file, so a directory that never took a snapshot — WAL
    segments only — is recognised as foreign too.
    """

    def __init__(self, directory, base_tag: str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.base_tag = str(base_tag)
        self.manifest = self._load_manifest()

    def _load_manifest(self) -> Optional[dict]:
        path = self.directory / _MANIFEST_NAME
        base_path = self.directory / _BASE_NAME
        manifest = None
        if path.exists():
            manifest = read_manifest(path, SNAPSHOT_SCHEMA, required=(
                "generation", "file", "sha256", "applied_lsn"))
        # A directory from before the BASE file knows its base only from
        # its manifest.
        recorded = (base_path.read_text() if base_path.exists()
                    else (manifest or {}).get("base"))
        if recorded is not None and recorded != self.base_tag:
            logger.warning(
                "durable state in %s was built for base %s, current base "
                "is %s: resetting (a new base replaces the data wholesale)",
                self.directory, recorded, self.base_tag)
            self.reset()
            manifest = None
        if not base_path.exists():
            atomic_write_text(base_path, self.base_tag, durable=True)
        return manifest

    def reset(self) -> None:
        """Discard snapshot + WAL state (base changed or caller rebuilds)."""
        for path in self.directory.glob(_SNAP_PREFIX + "*.npz"):
            path.unlink(missing_ok=True)
        for path in list_segments(self.directory):
            path.unlink(missing_ok=True)
        (self.directory / _MANIFEST_NAME).unlink(missing_ok=True)
        (self.directory / _BASE_NAME).unlink(missing_ok=True)
        fsync_dir(self.directory)

    @property
    def applied_lsn(self) -> int:
        return int(self.manifest["applied_lsn"]) if self.manifest else 0

    @property
    def generation(self) -> int:
        return int(self.manifest["generation"]) if self.manifest else 0

    def snapshot_path(self) -> Optional[Path]:
        """Path of the committed snapshot, sha256-verified, or ``None``."""
        if self.manifest is None:
            return None
        # The manifest is the snapshot's file entry; one written without
        # ``bytes`` is checked by sha256 alone.
        return check_file(self.directory / self.manifest["file"],
                          self.manifest)

    def commit_snapshot(self, save_fn: Callable[[str], None], *,
                        count: int, next_id: int, applied_lsn: int,
                        wal: Optional[ShardWAL] = None) -> dict:
        """Write, verify and publish a new snapshot generation.

        ``save_fn(path)`` must atomically produce an ``.npz`` file at
        ``path`` (the store's own atomic save). The previous
        generation is kept until the new one has been re-read and
        digested; only then is the manifest flipped, the old file
        deleted, and the WAL truncated through ``applied_lsn``.
        """
        generation = self.generation + 1
        fname = f"{_SNAP_PREFIX}{generation:06d}.npz"
        fpath = self.directory / fname
        save_fn(str(fpath))
        fsync_file(fpath)
        fsync_dir(self.directory)
        read_npz(fpath)  # a full decompress/read of every member
        previous = (self.manifest or {}).get("file")
        self.manifest = {
            "schema": SNAPSHOT_SCHEMA,
            "generation": generation,
            "file": fname,
            **file_entry(fpath),
            "count": int(count),
            "next_id": int(next_id),
            "applied_lsn": int(applied_lsn),
            "base": self.base_tag,
        }
        atomic_write_json(self.directory / _MANIFEST_NAME, self.manifest,
                          durable=True)
        if previous and previous != fname:
            (self.directory / previous).unlink(missing_ok=True)
        if wal is not None:
            wal.truncate_through(applied_lsn)
        return self.manifest


# --------------------------------------------------------------------------
# The discipline, once

class DurableLog:
    """One durable table's snapshot generation + mutation log.

    The only code that knows the order of operations its consumers (the
    shard worker, the stream ingester) would otherwise each repeat:
    *open* reads the snapshot manifest first — a foreign base tag
    resets snapshot **and** log before any log file is opened — and only
    then opens the log for append (repairing a torn tail);
    :meth:`replay` hands over every record past the snapshot;
    :meth:`append` fsyncs *before* the caller mutates its table;
    :meth:`checkpoint` snapshots at :attr:`applied_lsn` and truncates
    behind it. Calls are serialised by the consumer (a serial worker
    loop, the ingester's lock).
    """

    def __init__(self, directory, base_tag: str, *, segment_bytes: int,
                 fsync_window_ms: float,
                 hook: Optional[Callable[[str], None]] = None):
        self._snap = ShardDurability(directory, base_tag)
        #: Path of the committed snapshot, or ``None`` (start from the
        #: base). Digest-verified here, before the log opens, so a
        #: corrupt snapshot fails the open with nothing left running.
        self.snapshot: Optional[Path] = self._snap.snapshot_path()
        self._applied_lsn = self._snap.applied_lsn
        self._wal = ShardWAL(self._snap.directory,
                             segment_bytes=segment_bytes,
                             fsync_window_ms=fsync_window_ms, hook=hook)

    @property
    def applied_lsn(self) -> int:
        """LSN of the last record the caller's table reflects."""
        return self._applied_lsn

    def replay(self) -> Iterator[WALRecord]:
        """Yield each record the table does not reflect yet, in LSN order:
        what opening the log recovered, once. A record counts as applied
        only when the caller comes back for the next one, so an apply
        that raises leaves :attr:`applied_lsn` on the last record that
        landed.
        """
        for record in self._wal.drain_recovered():
            if record.lsn <= self._applied_lsn:
                continue  # the snapshot already covers it
            yield record
            self._applied_lsn = record.lsn

    def append(self, op: int, ids, embeddings=None) -> int:
        """Make one mutation durable, then count it applied; returns its
        LSN. If this raises, nothing was acknowledged, :attr:`applied_lsn`
        has not moved and the caller must not mutate."""
        self._applied_lsn = self._wal.append(op, ids, embeddings)
        return self._applied_lsn

    def checkpoint(self, save_fn: Callable[[str], None], *, count: int,
                   next_id: int) -> dict:
        """Commit a snapshot of the caller's table at :attr:`applied_lsn`
        and drop the log segments it covers; returns the manifest."""
        manifest = self._snap.commit_snapshot(
            save_fn, count=count, next_id=next_id,
            applied_lsn=self._applied_lsn, wal=self._wal)
        self.snapshot = self._snap.directory / manifest["file"]
        return manifest

    def stats(self) -> dict:
        return {"applied_lsn": self._applied_lsn,
                "snapshot_generation": self._snap.generation,
                "wal": self._wal.stats()}

    def close(self) -> None:
        self._wal.close()
