"""WAL codec, recovery, group-commit, snapshot and DurableLog tests.

The fuzz half enforces the damage contract at every byte: truncation
anywhere in the log is a *torn tail* (recovered silently to the longest
valid prefix, never an exception), while damage with a valid record
after it is *corruption* (typed error, never a silent drop of an acked
record).
"""

import threading

import numpy as np
import pytest

from repro.exceptions import WALCorruptionError
from repro.serving import wal as wal_module
from repro.serving.wal import (OP_DELETE, OP_INSERT, DurableLog,
                               ShardDurability, ShardWAL, crc32c,
                               encode_record, list_segments, scan_buffer)
from repro.testing.faults import CorruptionSpec

pytestmark = pytest.mark.durability

DIM = 4


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


# ------------------------------------------------------------------- crc32c


def test_crc32c_rfc_vectors():
    # RFC 3720 / RFC 7143 CRC32C test vectors.
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(b"\x00" * 32) == 0x8A9136AA
    assert crc32c(b"\xff" * 32) == 0x62A8AB43
    assert crc32c(b"") == 0


def test_crc32c_vectorized_matches_scalar_and_chains():
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, size=100_000, dtype=np.uint8).tobytes()
    # Below the vectorization threshold the scalar loop runs; force both
    # paths over the same bytes and compare.
    want = 0
    for i in range(0, len(data), 1024):
        want = crc32c(data[i:i + 1024], want)  # scalar path, chained
    assert crc32c(data) == want  # vectorized path, one shot


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


# ----------------------------------------------------------- ShardWAL open


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
        wal = ShardWAL(directory)  # must never raise on a torn tail
        recovered = wal.drain_recovered()
        whole = sum(1 for b in bounds if b <= cut)
        assert [r.lsn for r in recovered] == list(range(1, whole + 1))
        # The log stays appendable right where the valid prefix ended.
        lsn = wal.append(OP_DELETE, np.array([99], dtype=np.int64))
        assert lsn == whole + 1
        wal.close()


def test_wal_open_raises_on_mid_log_corruption(tmp_path):
    blob, bounds = _records_blob(n=3)
    path = _write_segment(tmp_path / "wal", blob)
    CorruptionSpec(mode="flip", offset=bounds[0] + 4).apply(path)
    with pytest.raises(WALCorruptionError):
        ShardWAL(tmp_path / "wal")


def test_wal_empty_directory_starts_at_lsn_one(tmp_path):
    wal = ShardWAL(tmp_path / "wal")
    assert wal.drain_recovered() == []
    assert wal.append(OP_DELETE, np.array([1], dtype=np.int64)) == 1
    wal.close()


def test_wal_rotation_and_multi_segment_recovery(tmp_path):
    wal = ShardWAL(tmp_path / "wal", segment_bytes=256)
    for i in range(1, 12):
        wal.append(OP_DELETE, np.arange(i, dtype=np.int64))
    wal.close()
    assert len(list_segments(tmp_path / "wal")) > 1
    reopened = ShardWAL(tmp_path / "wal", segment_bytes=256)
    assert [r.lsn for r in reopened.drain_recovered()] == list(range(1, 12))
    assert reopened.append(OP_DELETE, np.array([0], dtype=np.int64)) == 12
    reopened.close()


def test_wal_new_segment_entry_is_fsynced_before_first_append_returns(
        tmp_path, monkeypatch):
    """A segment's name is durable before any record in it is acked.

    The spy records which segment files existed at each directory fsync;
    after every append returns, every segment on disk must have been
    covered by one. The first segment, each rotation and the reset in
    ``truncate_through`` all create a file.
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

    wal = ShardWAL(directory, segment_bytes=4096)
    rng = np.random.default_rng(0)
    for i in range(40):
        ids = np.arange(i * 8, i * 8 + 8, dtype=np.int64)
        wal.append(OP_INSERT, ids, rng.standard_normal((8, 16)))
        assert_entries_synced()
    assert len(list_segments(directory)) > 2
    wal.truncate_through(wal.durable_lsn)
    wal.append(OP_DELETE, np.array([1], dtype=np.int64))
    assert_entries_synced()
    wal.close()


def test_wal_valid_records_after_torn_segment_are_corruption(tmp_path):
    blob, bounds = _records_blob(n=2)
    # Segment 1 ends torn; segment 2 holds a later valid record.
    _write_segment(tmp_path / "wal", blob[:bounds[0] + 3], first_lsn=1)
    later = encode_record(5, OP_DELETE, np.array([1], dtype=np.int64))
    _write_segment(tmp_path / "wal", later, first_lsn=5)
    with pytest.raises(WALCorruptionError):
        ShardWAL(tmp_path / "wal")


def test_wal_group_commit_acks_are_durable(tmp_path):
    wal = ShardWAL(tmp_path / "wal", fsync_window_ms=4.0)
    acked = []
    lock = threading.Lock()

    def writer(base):
        for i in range(5):
            lsn = wal.append(OP_DELETE,
                             np.array([base * 100 + i], dtype=np.int64))
            assert wal.durable_lsn >= lsn  # ack implies fsynced
            with lock:
                acked.append(lsn)

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = wal.stats()
    wal.close()
    assert sorted(acked) == list(range(1, 21))
    # Group commit must have batched at least some of the 20 fsyncs.
    assert 1 <= stats["fsyncs"] < 20
    reopened = ShardWAL(tmp_path / "wal")
    assert len(reopened.drain_recovered()) == 20
    reopened.close()


# --------------------------------------------------------------- snapshots


def _save_fn(rows):
    def save(path):
        np.savez(path, embeddings=np.zeros((rows, DIM)),
                 ids=np.arange(rows, dtype=np.int64),
                 next_id=np.array(rows))
    return save


def test_snapshot_commit_cycle_truncates_wal(tmp_path):
    wal = ShardWAL(tmp_path / "d")
    for i in range(1, 4):
        wal.append(OP_DELETE, np.array([i], dtype=np.int64))
    dur = ShardDurability(tmp_path / "d", base_tag="base-1")
    manifest = dur.commit_snapshot(_save_fn(5), count=5, next_id=5,
                                   applied_lsn=3, wal=wal)
    wal.close()
    assert manifest["generation"] == 1
    assert dur.snapshot_path() is not None
    # WAL truncated: a fresh reader sees nothing before lsn 4.
    reopened = ShardWAL(tmp_path / "d")
    assert reopened.drain_recovered() == []
    assert reopened.append(OP_DELETE, np.array([0], dtype=np.int64)) == 4
    reopened.close()
    # Second generation replaces the first snapshot file.
    dur2 = ShardDurability(tmp_path / "d", base_tag="base-1")
    assert dur2.applied_lsn == 3
    dur2.commit_snapshot(_save_fn(6), count=6, next_id=6, applied_lsn=4)
    assert dur2.generation == 2
    snaps = list((tmp_path / "d").glob("snapshot-*.npz"))
    assert [p.name for p in snaps] == ["snapshot-000002.npz"]


def test_base_tag_mismatch_resets_primary_but_not_replica(tmp_path):
    wal = ShardWAL(tmp_path / "d")
    wal.append(OP_DELETE, np.array([1], dtype=np.int64))
    wal.close()
    dur = ShardDurability(tmp_path / "d", base_tag="base-old")
    dur.commit_snapshot(_save_fn(2), count=2, next_id=2, applied_lsn=1)
    assert (tmp_path / "d" / "SNAPSHOT.json").exists()
    primary = ShardDurability(tmp_path / "d", base_tag="base-new")
    assert primary.manifest is None
    assert not (tmp_path / "d" / "SNAPSHOT.json").exists()
    assert list((tmp_path / "d").glob("snapshot-*.npz")) == []


# -------------------------------------------------------------- DurableLog


def _log(directory, base_tag="base-1", **kwargs):
    kwargs.setdefault("segment_bytes", 1 << 20)
    kwargs.setdefault("fsync_window_ms", 0.0)
    return DurableLog(directory, base_tag, **kwargs)


def _delete(log, row_id):
    return log.append(OP_DELETE, np.array([row_id], dtype=np.int64))


def test_durable_log_foreign_base_resets_before_the_log_opens(tmp_path):
    old = _log(tmp_path / "d", "base-old")
    _delete(old, 1)
    old.checkpoint(_save_fn(2), count=2, next_id=2)
    _delete(old, 2)  # lsn 2 survives the checkpoint's truncation
    old.close()
    fresh = _log(tmp_path / "d", "base-new")
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
    old = _log(tmp_path / "d", "base-A")
    for row_id in (1, 2, 3):
        _delete(old, row_id)
    old.close()
    assert not (tmp_path / "d" / "SNAPSHOT.json").exists()
    fresh = _log(tmp_path / "d", "base-B")
    assert list(fresh.replay()) == []
    assert all(segment.stat().st_size == 0
               for segment in list_segments(tmp_path / "d"))
    assert _delete(fresh, 7) == 1  # the LSN sequence restarted too
    fresh.close()
    # The new base is recorded in turn: its own log survives a reopen.
    reopened = _log(tmp_path / "d", "base-B")
    assert [r.lsn for r in reopened.replay()] == [1]
    reopened.close()


def test_durable_log_replay_skips_what_the_snapshot_covers(tmp_path):
    log = _log(tmp_path / "d")
    for row_id in (1, 2, 3):
        _delete(log, row_id)
    log.close()
    # A crash between publishing the manifest and truncating the log:
    # the snapshot covers lsn 1-2, the log still holds 1-3.
    ShardDurability(tmp_path / "d", "base-1").commit_snapshot(
        _save_fn(2), count=2, next_id=2, applied_lsn=2)
    reopened = _log(tmp_path / "d")
    assert reopened.snapshot is not None and reopened.applied_lsn == 2
    assert [r.lsn for r in reopened.replay()] == [3]
    assert reopened.applied_lsn == 3
    assert list(reopened.replay()) == []  # recovered records drain once
    reopened.close()


def test_durable_log_counts_a_record_applied_only_once_consumed(tmp_path):
    log = _log(tmp_path / "d")
    for row_id in (1, 2, 3):
        _delete(log, row_id)
    log.close()
    reopened = _log(tmp_path / "d")
    with pytest.raises(RuntimeError):
        for record in reopened.replay():
            if record.lsn == 2:
                raise RuntimeError("apply failed")
    assert reopened.applied_lsn == 1
    reopened.close()


def test_durable_log_checkpoint_never_truncates_past_applied(tmp_path):
    log = _log(tmp_path / "d")
    for row_id in (1, 2, 3):
        _delete(log, row_id)
    log.close()
    reopened = _log(tmp_path / "d")
    tail = reopened.replay()
    next(tail), next(tail)  # lsn 1 consumed, lsn 2 handed over only
    assert reopened.applied_lsn == 1
    manifest = reopened.checkpoint(_save_fn(1), count=1, next_id=1)
    assert manifest["applied_lsn"] == 1
    reopened.close()
    again = _log(tmp_path / "d")
    assert [r.lsn for r in again.replay()] == [2, 3]
    again.close()
