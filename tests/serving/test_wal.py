"""WAL codec, recovery, concurrent append, snapshot and upgrade tests.

The fuzz half enforces the damage contract at every byte: truncation
anywhere in the log is a *torn tail* (recovered silently to the longest
valid prefix, never an exception), while damage with a valid record
after it is *corruption* (typed error, never a silent drop of an acked
record).

``data/wal_v1`` is a durable directory written by the WAL1 format
(CRC-32C records, before ``zlib.crc32``): base tag ``wal-v1-fixture``, a
snapshot at lsn 2, then the records in ``V1_RECORDS`` across two
segments (``segment_bytes=320``), each insert's rows ``_v1_rows(ids)``.
"""

import gc
import os
import shutil
import struct
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.atomicio import read_npz
from repro.exceptions import WALCorruptionError
from repro.serving import wal as wal_module
from repro.serving.wal import (OP_DELETE, OP_INSERT, WAL_MAGIC, ShardWAL,
                               crc32c, encode_record, list_segments,
                               scan_buffer)
from repro.testing.faults import CorruptionSpec

pytestmark = pytest.mark.durability

DIM = 4


def _wal(directory, base_tag="base-1", **kwargs):
    kwargs.setdefault("segment_bytes", 1 << 20)
    return ShardWAL(directory, base_tag, **kwargs)


def _delete(log, row_id):
    return log.append(OP_DELETE, np.array([row_id], dtype=np.int64))


def _records_blob(n=3, seed=7):
    """n encoded records (alternating insert/delete) and their boundaries."""
    rng = np.random.default_rng(seed)
    blob = b""
    bounds = []
    for lsn in range(1, n + 1):
        ids = np.arange(lsn * 10, lsn * 10 + 3, dtype=np.int64)
        if lsn % 2:
            rec = encode_record(lsn, OP_INSERT, ids,
                                rng.standard_normal((3, DIM)))
        else:
            rec = encode_record(lsn, OP_DELETE, ids)
        blob += rec
        bounds.append(len(blob))
    return blob, bounds


def _save_fn(rows):
    def save(path):
        np.savez(path, embeddings=np.zeros((rows, DIM)),
                 ids=np.arange(rows, dtype=np.int64),
                 next_id=np.array(rows))
    return save


# ------------------------------------------------------------------- crc32c


def test_crc32c_rfc_vectors():
    # RFC 3720 / RFC 7143 CRC32C test vectors.
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(b"\x00" * 32) == 0x8A9136AA
    assert crc32c(b"\xff" * 32) == 0x62A8AB43
    assert crc32c(b"") == 0


# -------------------------------------------------------------------- codec


def test_encode_decode_roundtrip():
    blob, _ = _records_blob(n=4)
    records, end, damage = scan_buffer(blob)
    assert damage is None and end == len(blob)
    assert [r.lsn for r in records] == [1, 2, 3, 4]
    assert records[0].op == OP_INSERT
    assert records[0].embeddings.shape == (3, DIM)
    assert records[1].op == OP_DELETE
    assert records[1].embeddings is None
    assert records[1].ids.tolist() == [20, 21, 22]


def test_scan_empty_buffer():
    assert scan_buffer(b"") == ([], 0, None)


def test_truncation_at_every_byte_offset_is_torn_never_corrupt():
    blob, bounds = _records_blob(n=3)
    for cut in range(len(blob) + 1):
        records, valid_end, damage = scan_buffer(blob[:cut])
        whole = sum(1 for b in bounds if b <= cut)
        assert len(records) == whole  # longest valid prefix, exactly
        assert valid_end == (bounds[whole - 1] if whole else 0)
        if cut in (0, *bounds):
            assert damage is None  # clean cut on a record boundary
        else:
            assert damage == "torn"


def test_bit_flip_in_last_record_is_torn_elsewhere_corrupt():
    blob, bounds = _records_blob(n=3)
    for offset in range(len(blob)):
        flipped = bytearray(blob)
        flipped[offset] ^= 0xFF
        records, _, damage = scan_buffer(bytes(flipped))
        if offset >= bounds[1]:  # damage inside the final record
            assert damage == "torn"
            assert [r.lsn for r in records] == [1, 2]
        else:  # valid records follow the damage: must refuse to guess
            assert damage == "corrupt"


# ---------------------------------------------------------------- log open


def _write_segment(directory, blob, first_lsn=1):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"wal-{first_lsn:020d}.log"
    path.write_bytes(blob)
    return path


def test_wal_recovers_truncated_tail_at_many_offsets(tmp_path):
    blob, bounds = _records_blob(n=3)
    for cut in range(0, len(blob) + 1, 5):
        directory = tmp_path / f"cut-{cut}"
        _write_segment(directory, blob[:cut])
        wal = _wal(directory)  # must never raise on a torn tail
        recovered = list(wal.replay())
        whole = sum(1 for b in bounds if b <= cut)
        assert [r.lsn for r in recovered] == list(range(1, whole + 1))
        # The log stays appendable right where the valid prefix ended.
        assert _delete(wal, 99) == whole + 1
        wal.close()


def test_wal_open_raises_on_mid_log_corruption(tmp_path):
    blob, bounds = _records_blob(n=3)
    path = _write_segment(tmp_path / "wal", blob)
    CorruptionSpec(mode="flip", offset=bounds[0] + 4).apply(path)
    with pytest.raises(WALCorruptionError):
        _wal(tmp_path / "wal")


def test_wal_empty_directory_starts_at_lsn_one(tmp_path):
    wal = _wal(tmp_path / "wal")
    assert list(wal.replay()) == []
    assert _delete(wal, 1) == 1
    wal.close()


def test_wal_rotation_and_multi_segment_recovery(tmp_path):
    wal = _wal(tmp_path / "wal", segment_bytes=256)
    for i in range(1, 12):
        wal.append(OP_DELETE, np.arange(i, dtype=np.int64))
    wal.close()
    assert len(list_segments(tmp_path / "wal")) > 1
    reopened = _wal(tmp_path / "wal", segment_bytes=256)
    assert [r.lsn for r in reopened.replay()] == list(range(1, 12))
    assert _delete(reopened, 0) == 12
    reopened.close()


def test_wal_new_segment_entry_is_fsynced_before_first_append_returns(
        tmp_path, monkeypatch):
    """A segment's name is durable before any record in it is acked.

    The spy records which segment files existed at each directory fsync;
    after every append returns, every segment on disk must have been
    covered by one. The first segment, each rotation and the fresh
    segment a checkpoint starts all create a file.
    """
    directory = tmp_path / "wal"
    synced = set()
    real_fsync_dir = wal_module.fsync_dir

    def spy(path):
        real_fsync_dir(path)
        synced.update(p.name for p in list_segments(directory))

    monkeypatch.setattr(wal_module, "fsync_dir", spy)

    def assert_entries_synced():
        on_disk = {p.name for p in list_segments(directory)}
        assert on_disk <= synced, f"unsynced entries: {on_disk - synced}"

    wal = _wal(directory, segment_bytes=4096)
    rng = np.random.default_rng(0)
    for i in range(40):
        ids = np.arange(i * 8, i * 8 + 8, dtype=np.int64)
        wal.append(OP_INSERT, ids, rng.standard_normal((8, 16)))
        assert_entries_synced()
    assert len(list_segments(directory)) > 2
    wal.checkpoint(_save_fn(1), count=1, next_id=1)
    _delete(wal, 1)
    assert_entries_synced()
    wal.close()


def test_wal_valid_records_after_torn_segment_are_corruption(tmp_path):
    blob, bounds = _records_blob(n=2)
    # Segment 1 ends torn; segment 2 holds a later valid record.
    _write_segment(tmp_path / "wal", blob[:bounds[0] + 3], first_lsn=1)
    later = encode_record(5, OP_DELETE, np.array([1], dtype=np.int64))
    _write_segment(tmp_path / "wal", later, first_lsn=5)
    with pytest.raises(WALCorruptionError):
        _wal(tmp_path / "wal")


def test_concurrent_appends_ack_durably(tmp_path, monkeypatch):
    """With a slow disk and four appenders, every append returns only
    once its record is durable, no fsync is counted that did not run,
    and a reopen recovers every acked record."""
    real_fsync = os.fsync

    def slow_fsync(fd):
        time.sleep(0.005)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", slow_fsync)
    wal = _wal(tmp_path / "wal")
    acked, early = [], []
    lock = threading.Lock()

    def writer(base):
        for i in range(20):
            lsn = _delete(wal, base * 100 + i)
            with lock:
                acked.append(lsn)
                if wal.durable_lsn < lsn:  # acked before its fsync
                    early.append(lsn)

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stats = wal.stats()["wal"]
    wal.close()
    assert early == []
    assert sorted(acked) == list(range(1, 81))
    assert stats["appended"] == 80
    assert 1 <= stats["fsyncs"] <= 80
    reopened = _wal(tmp_path / "wal")
    assert len(list(reopened.replay())) == 80
    reopened.close()


def test_failed_close_releases_the_segment_handle(tmp_path):
    """A close whose last fsync fails still closes its segment, so the
    record buffered behind that fsync can never land after a later
    appender's records."""
    armed = {"on": True}

    def hook(point):
        if point == "before_fsync" and armed["on"]:
            raise OSError("injected fsync failure")

    directory = tmp_path / "d"
    first = _wal(directory, hook=hook)
    with pytest.raises(OSError):
        _delete(first, 1)
    with pytest.raises(OSError):
        first.close()
    first.close()  # a second close is a no-op
    armed["on"] = False
    second = _wal(directory)
    replayed = [r.lsn for r in second.replay()]
    lsn = _delete(second, 2)
    second.close()
    del first
    gc.collect()
    third = _wal(directory)
    lsns = [r.lsn for r in third.replay()]
    third.close()
    assert lsns == replayed + [lsn]
    assert lsns == sorted(set(lsns))


# --------------------------------------------------------------- snapshots


def test_snapshot_commit_cycle_truncates_wal(tmp_path):
    wal = _wal(tmp_path / "d")
    for i in range(1, 4):
        _delete(wal, i)
    manifest = wal.checkpoint(_save_fn(5), count=5, next_id=5)
    wal.close()
    assert manifest["generation"] == 1 and manifest["applied_lsn"] == 3
    assert wal.snapshot == tmp_path / "d" / "snapshot-000001.npz"
    # WAL truncated: a fresh reader sees nothing before lsn 4.
    reopened = _wal(tmp_path / "d")
    assert reopened.applied_lsn == 3
    assert list(reopened.replay()) == []
    assert _delete(reopened, 0) == 4
    # Second generation replaces the first snapshot file.
    second = reopened.checkpoint(_save_fn(6), count=6, next_id=6)
    reopened.close()
    assert second["generation"] == 2 and second["applied_lsn"] == 4
    assert reopened.stats()["snapshot_generation"] == 2
    snaps = list((tmp_path / "d").glob("snapshot-*.npz"))
    assert [p.name for p in snaps] == ["snapshot-000002.npz"]


def test_foreign_base_tag_deletes_the_snapshot(tmp_path):
    old = _wal(tmp_path / "d", "base-old")
    _delete(old, 1)
    old.checkpoint(_save_fn(2), count=2, next_id=2)
    old.close()
    assert (tmp_path / "d" / "SNAPSHOT.json").exists()
    fresh = _wal(tmp_path / "d", "base-new")
    assert fresh.snapshot is None
    assert fresh.stats()["snapshot_generation"] == 0
    assert not (tmp_path / "d" / "SNAPSHOT.json").exists()
    assert list((tmp_path / "d").glob("snapshot-*.npz")) == []
    assert (tmp_path / "d" / "BASE").read_text() == "base-new"
    fresh.close()


def test_durable_log_foreign_base_resets_before_the_log_opens(tmp_path):
    old = _wal(tmp_path / "d", "base-old")
    _delete(old, 1)
    old.checkpoint(_save_fn(2), count=2, next_id=2)
    _delete(old, 2)  # lsn 2 survives the checkpoint's truncation
    old.close()
    fresh = _wal(tmp_path / "d", "base-new")
    # Had the log been opened before the reset, lsn 2 would have been
    # recovered and replayed onto a base it never described.
    assert fresh.snapshot is None and fresh.applied_lsn == 0
    assert list(fresh.replay()) == []
    assert _delete(fresh, 7) == 1  # the LSN sequence restarted too
    fresh.close()


def test_durable_log_foreign_base_resets_a_log_that_never_snapshotted(
        tmp_path):
    """The first open records the base tag, so a directory holding WAL
    segments and no snapshot is recognised as foreign too: its records
    are never replayed onto bytes they did not describe."""
    old = _wal(tmp_path / "d", "base-A")
    for row_id in (1, 2, 3):
        _delete(old, row_id)
    old.close()
    assert not (tmp_path / "d" / "SNAPSHOT.json").exists()
    fresh = _wal(tmp_path / "d", "base-B")
    assert list(fresh.replay()) == []
    assert all(segment.stat().st_size == 0
               for segment in list_segments(tmp_path / "d"))
    assert _delete(fresh, 7) == 1  # the LSN sequence restarted too
    fresh.close()
    # The new base is recorded in turn: its own log survives a reopen.
    reopened = _wal(tmp_path / "d", "base-B")
    assert [r.lsn for r in reopened.replay()] == [1]
    reopened.close()


def test_durable_log_replay_skips_what_the_snapshot_covers(tmp_path,
                                                           monkeypatch):
    log = _wal(tmp_path / "d")
    for row_id in (1, 2, 3):
        _delete(log, row_id)
    log.close()
    # A crash between publishing the manifest and truncating the log:
    # the snapshot covers lsn 1-2, the log still holds 1-3.
    crashed = _wal(tmp_path / "d")
    tail = crashed.replay()
    next(tail), next(tail), next(tail)  # lsn 1-2 applied, 3 handed over
    assert crashed.applied_lsn == 2

    def crash(lsn):
        raise OSError("crashed before truncating the log")

    monkeypatch.setattr(crashed, "_truncate_through", crash)
    with pytest.raises(OSError):
        crashed.checkpoint(_save_fn(2), count=2, next_id=2)
    crashed.close()
    reopened = _wal(tmp_path / "d")
    assert reopened.snapshot is not None and reopened.applied_lsn == 2
    assert [r.lsn for r in reopened.replay()] == [3]
    assert reopened.applied_lsn == 3
    assert list(reopened.replay()) == []  # recovered records drain once
    reopened.close()


def test_durable_log_counts_a_record_applied_only_once_consumed(tmp_path):
    log = _wal(tmp_path / "d")
    for row_id in (1, 2, 3):
        _delete(log, row_id)
    log.close()
    reopened = _wal(tmp_path / "d")
    with pytest.raises(RuntimeError):
        for record in reopened.replay():
            if record.lsn == 2:
                raise RuntimeError("apply failed")
    assert reopened.applied_lsn == 1
    reopened.close()


def test_durable_log_checkpoint_never_truncates_past_applied(tmp_path):
    log = _wal(tmp_path / "d")
    for row_id in (1, 2, 3):
        _delete(log, row_id)
    log.close()
    reopened = _wal(tmp_path / "d")
    tail = reopened.replay()
    next(tail), next(tail)  # lsn 1 consumed, lsn 2 handed over only
    assert reopened.applied_lsn == 1
    manifest = reopened.checkpoint(_save_fn(1), count=1, next_id=1)
    assert manifest["applied_lsn"] == 1
    reopened.close()
    again = _wal(tmp_path / "d")
    assert [r.lsn for r in again.replay()] == [2, 3]
    again.close()


# ------------------------------------------------ order of durable operations


class _Spy:
    """Records, in order, every operation of the WAL module that decides
    what survives a power cut: fsyncs of files and directories, manifest
    publication, unlinks, and the segment writes and truncations."""

    def __init__(self, directory: Path, monkeypatch):
        self.directory = directory
        self.events = []
        real_fsync = os.fsync
        real_fsync_file = wal_module.fsync_file
        real_fsync_dir = wal_module.fsync_dir
        real_write_json = wal_module.atomic_write_json
        real_unlink = Path.unlink
        spy = self

        def fsync(fd):
            real_fsync(fd)
            spy.log("fsync", spy.name_of_inode(os.fstat(fd).st_ino))

        def fsync_file(path):
            real_fsync_file(path)
            spy.log("fsync_file", Path(path).name)

        def fsync_dir(path):
            real_fsync_dir(path)
            spy.log("fsync_dir", Path(path).name)

        def write_json(path, payload, **kwargs):
            real_write_json(path, payload, **kwargs)
            spy.log("publish", Path(path).name)

        def unlink(path, *args, **kwargs):
            real_unlink(path, *args, **kwargs)
            spy.log("unlink", path.name)

        class _Handle:
            def __init__(self, path, mode):
                self._path = Path(path)
                self._inner = open(path, mode)

            def write(self, data):
                spy.log("write", self._path.name)
                return self._inner.write(data)

            def truncate(self, size):
                spy.log("truncate", self._path.name)
                return self._inner.truncate(size)

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._inner.close()

        def open_spy(path, mode="r"):
            spy.log("open", Path(path).name)
            return _Handle(path, mode)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(wal_module, "fsync_file", fsync_file)
        monkeypatch.setattr(wal_module, "fsync_dir", fsync_dir)
        monkeypatch.setattr(wal_module, "atomic_write_json", write_json)
        monkeypatch.setattr(Path, "unlink", unlink)
        monkeypatch.setattr(wal_module, "open", open_spy, raising=False)

    def name_of_inode(self, inode):
        for path in self.directory.iterdir():
            if path.stat().st_ino == inode:
                return path.name
        return None

    def log(self, kind, name=None):
        self.events.append((kind, name))

    def index(self, kind, name=None, after=-1):
        """First event ``kind`` (on ``name``, if given) after ``after``."""
        for i in range(after + 1, len(self.events)):
            got_kind, got_name = self.events[i]
            if got_kind == kind and (name is None or got_name == name):
                return i
        raise AssertionError(f"no {kind} {name or ''} after event {after}: "
                             f"{self.events[after + 1:]}")


def _acked_append(spy, log, ids):
    """Append, then check the ack came after an fsync of the record's
    segment that followed the record's write, and after a directory
    fsync that followed the segment's creation."""
    start = len(spy.events)
    lsn = log.append(OP_INSERT, np.array(ids, dtype=np.int64),
                     np.ones((len(ids), DIM)))
    segment = list_segments(spy.directory)[-1].name
    ack = len(spy.events)
    spy.log("ack", segment)
    writes = [i for i in range(start, ack)
              if spy.events[i] == ("write", segment)]
    assert writes, f"lsn {lsn}: no write to {segment} before its ack"
    fsync = spy.index("fsync", segment, after=writes[-1])
    assert fsync < ack, f"lsn {lsn}: acked before its segment was fsynced"
    created = spy.index("open", segment)
    entry = spy.index("fsync_dir", spy.directory.name, after=created)
    assert entry < ack, f"lsn {lsn}: {segment}'s entry unsynced at ack"
    return lsn


def _checkpoint(spy, log, rows):
    """Checkpoint, checking snapshot write -> file fsync -> dir fsync ->
    manifest publish, with nothing unlinked before the publish."""
    start = len(spy.events) - 1
    spy.log("checkpoint-begin")
    manifest = log.checkpoint(
        lambda path: (spy.log("save", Path(path).name),
                      _save_fn(rows)(path)),
        count=rows, next_id=rows)
    spy.log("checkpoint-end")
    snapshot = manifest["file"]
    save = spy.index("save", snapshot, after=start)
    file_sync = spy.index("fsync_file", snapshot, after=save)
    dir_sync = spy.index("fsync_dir", spy.directory.name, after=file_sync)
    publish = spy.index("publish", "SNAPSHOT.json", after=dir_sync)
    end = spy.index("checkpoint-end", after=publish)
    unlinks = [(i, spy.events[i][1]) for i in range(start + 1, end)
               if spy.events[i][0] == "unlink"]
    assert all(i > publish for i, _ in unlinks), \
        "a file was unlinked before the new manifest was published"
    return manifest, unlinks, end


def test_durable_operations_run_in_order(tmp_path, monkeypatch):
    """open -> appends across a rotation -> checkpoint -> append ->
    close -> reopen over a torn tail, with every step's fsyncs checked
    against the acks and publications that depend on them."""
    directory = tmp_path / "d"
    spy = _Spy(directory, monkeypatch)
    log = _wal(directory, segment_bytes=512)
    _acked_append(spy, log, [0, 1])
    first, _, _ = _checkpoint(spy, log, 2)
    for i in range(2, 14):
        _acked_append(spy, log, [i * 2, i * 2 + 1])
    assert len(list_segments(directory)) > 1, "no rotation happened"
    old_segments = {p.name for p in list_segments(directory)}

    _, unlinks, end = _checkpoint(spy, log, 26)
    names = [name for _, name in unlinks]
    assert names[0] == first["file"], "old snapshot not unlinked first"
    assert set(names[1:]) == old_segments
    assert spy.index("fsync_dir", directory.name, after=unlinks[-1][0]) < end

    lsn = _acked_append(spy, log, [100])
    log.close()

    # A torn tail: a partial frame after the last acked record.
    tail = list_segments(directory)[-1]
    with open(tail, "ab") as handle:
        handle.write(encode_record(lsn + 1, OP_DELETE,
                                   np.array([7], dtype=np.int64))[:-3])
    begin = len(spy.events) - 1
    reopened = _wal(directory, segment_bytes=512)
    spy.log("open-returned")
    truncate = spy.index("truncate", tail.name, after=begin)
    synced = spy.index("fsync", tail.name, after=truncate)
    assert synced < spy.index("open-returned", after=begin)
    assert [r.lsn for r in reopened.replay()] == [lsn]
    assert reopened.applied_lsn == lsn
    reopened.close()


# ----------------------------------------------------------- WAL1 upgrade

WAL_V1 = Path(__file__).parent / "data" / "wal_v1"
V1_BASE = "wal-v1-fixture"
#: (lsn, op, ids) of every record the fixture holds past its snapshot.
V1_RECORDS = [(3, OP_INSERT, [10, 11, 12]), (4, OP_DELETE, [10]),
              (5, OP_INSERT, [20, 21]), (6, OP_DELETE, [1, 11]),
              (7, OP_INSERT, [30]), (8, OP_DELETE, [20])]
WAL1 = b"1LAW"
WAL2 = struct.pack("<I", WAL_MAGIC)


def _v1_rows(ids):
    return np.array([[i + 0.25 * j for j in range(DIM)] for i in ids],
                    dtype=np.float64)


def _v1_copy(tmp_path):
    return Path(shutil.copytree(WAL_V1, tmp_path / "v1"))


def _frames(buf):
    """``(magic, frame bytes)`` of each record in an undamaged segment."""
    frames, off = [], 0
    while off < len(buf):
        (length,) = struct.unpack_from("<I", buf, off + 4)
        frames.append((buf[off:off + 4], buf[off:off + 12 + length]))
        off += 12 + length
    return frames


def _v1_frames():
    return [frame for segment in list_segments(WAL_V1)
            for frame in _frames(segment.read_bytes())]


def _assert_v1_records(records):
    assert [(r.lsn, r.op, r.ids.tolist()) for r in records] == V1_RECORDS
    for record in records:
        if record.op == OP_INSERT:
            assert record.embeddings.tobytes() == \
                _v1_rows(record.ids).tobytes()
        else:
            assert record.embeddings is None


def test_wal1_directory_replays_every_record_past_its_snapshot(tmp_path):
    assert [magic for magic, _ in _v1_frames()] == [WAL1] * 6
    log = _wal(_v1_copy(tmp_path), V1_BASE)
    assert log.snapshot is not None and log.applied_lsn == 2
    assert read_npz(log.snapshot)["ids"].tolist() == [1]
    _assert_v1_records(list(log.replay()))
    assert log.applied_lsn == 8
    log.close()


def test_new_records_follow_wal1_ones_in_one_segment(tmp_path):
    directory = _v1_copy(tmp_path)
    log = _wal(directory, V1_BASE)
    list(log.replay())
    assert _delete(log, 30) == 9
    assert log.append(OP_INSERT, np.array([40], dtype=np.int64),
                      _v1_rows([40])) == 10
    log.close()
    tail = list_segments(directory)[-1]
    assert len(list_segments(directory)) == 2
    assert [magic for magic, _ in _frames(tail.read_bytes())] == \
        [WAL1] * 3 + [WAL2] * 2
    reopened = _wal(directory, V1_BASE)
    records = list(reopened.replay())
    reopened.close()
    _assert_v1_records(records[:6])
    assert [r.lsn for r in records[6:]] == [9, 10]
    assert records[7].embeddings.tobytes() == _v1_rows([40]).tobytes()


def test_flipped_wal1_byte_before_a_new_record_is_corrupt(tmp_path):
    directory = _v1_copy(tmp_path)
    log = _wal(directory, V1_BASE)
    _delete(log, 30)
    log.close()
    tail = list_segments(directory)[-1]
    frames = _frames(tail.read_bytes())
    first_payload_byte = 12
    # Damage the last WAL1 record; only the new-magic record follows it.
    offset = sum(len(frame) for _, frame in frames[:2]) + first_payload_byte
    CorruptionSpec(mode="flip", offset=offset).apply(tail)
    assert scan_buffer(tail.read_bytes())[2] == "corrupt"
    with pytest.raises(WALCorruptionError):
        _wal(directory, V1_BASE)


def test_torn_tail_after_either_magic_is_torn():
    wal1 = b"".join(frame for _, frame in _v1_frames()[3:])  # lsn 6-8
    wal2 = encode_record(9, OP_DELETE, np.array([30], dtype=np.int64))
    wal1_frame = _v1_frames()[0][1]
    # A new record torn after WAL1 ones, and a WAL1 frame torn after a
    # new record: every cut inside the last frame is a torn tail.
    for head, last in ((wal1, wal2), (wal1 + wal2, wal1_frame)):
        for cut in range(1, len(last)):
            records, valid_end, damage = scan_buffer(head + last[:cut])
            assert damage == "torn", cut
            assert valid_end == len(head)
            assert len(records) == len(_frames(head))


def test_first_checkpoint_deletes_every_wal1_record(tmp_path):
    directory = _v1_copy(tmp_path)
    log = _wal(directory, V1_BASE)
    list(log.replay())
    _delete(log, 30)
    log.checkpoint(_save_fn(4), count=4, next_id=41)
    _delete(log, 31)
    log.close()
    magics = [magic for segment in list_segments(directory)
              for magic, _ in _frames(segment.read_bytes())]
    assert magics == [WAL2]
    reopened = _wal(directory, V1_BASE)
    assert reopened.applied_lsn == 9
    assert [r.lsn for r in reopened.replay()] == [10]
    reopened.close()


def test_new_record_is_as_long_as_its_wal1_twin():
    for (lsn, op, ids), (magic, frame) in zip(V1_RECORDS, _v1_frames()):
        rows = _v1_rows(ids) if op == OP_INSERT else None
        fresh = encode_record(lsn, op, np.array(ids, dtype=np.int64), rows)
        assert magic == WAL1 and fresh[:4] == WAL2
        assert len(fresh) == len(frame)
        # Only the magic and the checksum differ.
        assert fresh[4:8] == frame[4:8] and fresh[12:] == frame[12:]
