"""The shard worker's contract, driven in-process (no fork).

``_ShardWorker`` is the state and op table a forked shard process runs;
constructing it directly lets these tests inject WAL faults and compare
stores without a pipe in the way. The property at the end states the
durability contract once: whatever sequence of mutations was applied
live, base + ``ShardWAL.replay()`` rebuilds the same store when the
worker reopens after a crash.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import load_partition_manifest, save_partitions
from repro.exceptions import ReloadError, ServiceClosedError
from repro.serving.shard_worker import _ShardWorker
from repro.serving.wal import OP_INSERT

pytestmark = pytest.mark.durability

DIM = 4
SEED_ROWS = 12


def _rows(ids, seed=0):
    """Deterministic embedding rows, one per id."""
    return np.stack([np.random.default_rng(seed + int(i))
                     .standard_normal(DIM) for i in ids])


def _partitions(root: Path, seed=0) -> Path:
    ids = np.arange(SEED_ROWS, dtype=np.int64)
    save_partitions(root / "parts", ids, _rows(ids, seed), num_shards=1)
    return root / "parts"


def _boot(partition_dir, durable_dir=None):
    base_tag = load_partition_manifest(partition_dir)["shards"][0]["sha256"]
    return {"partition_dir": str(partition_dir),
            "index": "exact", "nlist": 0, "nprobe": 8,
            "durable_dir": None if durable_dir is None else str(durable_dir),
            "base_tag": base_tag, "wal_segment_bytes": 1 << 20}


def _state(worker):
    """(ids, embeddings in id order, next_id) — what must survive."""
    store = worker.store
    order = np.argsort(store.ids)
    return (np.asarray(store.ids)[order].tolist(),
            np.asarray(store.embeddings)[order], store.next_id)


def _assert_same_state(got, want):
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


# ------------------------------------------------------------------ op table


def test_unknown_op_is_a_value_error(tmp_path):
    worker = _ShardWorker(0, _boot(_partitions(tmp_path)))
    with pytest.raises(ValueError, match="unknown op"):
        worker.handle("search_many", ([], 3))
    assert worker.handle("shutdown", None) == "bye"


def test_every_coordinator_op_is_in_the_table():
    sent = ("ping search insert delete compact ids stats prepare activate "
            "abort shutdown").split()
    assert all(callable(getattr(_ShardWorker, f"op_{op}")) for op in sent)


def test_one_report_serves_boot_ping_and_stats(tmp_path):
    worker = _ShardWorker(0, _boot(_partitions(tmp_path), tmp_path / "dur"))
    report = worker.report()
    assert worker.handle("ping", None) == worker.handle("stats", None) \
        == report
    assert report["count"] == SEED_ROWS and report["next_id"] == SEED_ROWS
    assert report["durability"]["applied_lsn"] == 0
    assert report["durability"]["wal"]["appended"] == 0
    worker.close()
    plain = _ShardWorker(0, _boot(_partitions(tmp_path / "plain")))
    assert "durability" not in plain.report()


# ------------------------------------------------------- log before mutation


def test_failed_fsync_fails_the_insert_and_the_retry_lands_once(tmp_path):
    """The shard-side twin of the ingester's mutate-before-append bug:
    a WAL failure must leave the store and ``applied_lsn`` untouched,
    and the coordinator's retry must land exactly once."""
    failures = {"left": 1}

    def flaky_hook(point):
        if point == "before_fsync" and failures["left"]:
            failures["left"] -= 1
            raise OSError("injected fsync failure")

    parts = _partitions(tmp_path)
    worker = _ShardWorker(0, _boot(parts, tmp_path / "dur"),
                          wal_hook=flaky_hook)
    before = _state(worker)
    ids = [100, 101, 102]
    with pytest.raises(OSError):
        worker.handle("insert", (ids, _rows(ids)))
    _assert_same_state(_state(worker), before)
    assert worker.log.applied_lsn == 0
    reply = worker.handle("insert", (ids, _rows(ids)))
    assert reply == {"applied": ids, "count": 3, "size": SEED_ROWS + 3}
    assert worker.handle("insert", (ids, _rows(ids)))["count"] == 0
    assert worker.handle("ids", None).count(101) == 1
    live = _state(worker)
    worker.close()
    # The unacked first record may have reached the disk with the
    # retry's fsync; replay is idempotent, so the rows exist once.
    reopened = _ShardWorker(0, _boot(parts, tmp_path / "dur"))
    _assert_same_state(_state(reopened), live)
    reopened.close()


def test_failed_activate_leaves_no_half_open_log(tmp_path, wal_handles):
    """``activate`` closes the old log before the new appender opens the
    same directory; if that open then fails, the log it opened must be
    closed too, not left holding its segment open."""
    parts = _partitions(tmp_path)
    boot = _boot(parts, tmp_path / "dur")
    worker = _ShardWorker(0, boot)
    assert [handle.closed for handle in wal_handles] == [False]
    with pytest.raises(ReloadError):
        worker.handle("activate", None)  # nothing prepared
    worker.handle("prepare", boot)
    # Poison the log: a record no store of this dimension can replay.
    worker.log.append(OP_INSERT, np.array([500], dtype=np.int64),
                      np.zeros((1, DIM + 1)))
    with pytest.raises(ValueError):
        worker.handle("activate", None)
    assert len(wal_handles) == 2  # the old generation's and the new one's
    assert all(handle.closed for handle in wal_handles)
    # The old generation still answers reads and refuses writes.
    ids, _, _ = worker.handle("search", (_rows([3])[0], 1))
    assert ids.tolist() == [3]
    with pytest.raises(ServiceClosedError):
        worker.handle("insert", ([100], _rows([100])))


def test_activate_onto_new_bytes_never_replays_the_old_log(tmp_path):
    """A reload onto new partition bytes, with no compact before it:
    the old generation's log (and no snapshot) is all the durable
    directory holds, and none of it may land on the new rows."""
    worker = _ShardWorker(0, _boot(_partitions(tmp_path / "old"),
                                   tmp_path / "dur"))
    worker.handle("insert", ([100, 101], _rows([100, 101])))
    worker.handle("delete", [3])
    new_ids = np.arange(20, 26, dtype=np.int64)
    save_partitions(tmp_path / "new", new_ids, _rows(new_ids, seed=5),
                    num_shards=1)
    new_boot = _boot(tmp_path / "new", tmp_path / "dur")
    worker.handle("prepare", new_boot)
    worker.handle("activate", None)
    assert worker.handle("ids", None) == new_ids.tolist()
    worker.handle("insert", ([200], _rows([200])))
    worker.close()
    reopened = _ShardWorker(0, new_boot)
    assert reopened.handle("ids", None) == new_ids.tolist() + [200]
    reopened.close()


# ------------------------------------------------- the contract, as a property

_STEP = st.one_of(
    st.tuples(st.just("insert"),
              st.lists(st.integers(SEED_ROWS, SEED_ROWS + 30), min_size=1,
                       max_size=4, unique=True)),
    st.tuples(st.just("delete"),  # present, already-deleted or never there
              st.lists(st.integers(0, SEED_ROWS + 30), min_size=1,
                       max_size=4)),
    st.tuples(st.just("retry"), st.none()),  # resend the previous request
    st.tuples(st.just("compact"), st.none()))


@settings(max_examples=25, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=12))
def test_live_state_equals_base_plus_replay(steps):
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        parts, dur = _partitions(root), root / "dur"
        primary = _ShardWorker(0, _boot(parts, dur))
        last = None
        for kind, ids in steps:
            if kind == "retry":
                if last is None:
                    continue
                kind, ids = last
            if kind == "insert":
                primary.handle("insert", (ids, _rows(ids, seed=7)))
            elif kind == "delete":
                primary.handle("delete", ids)
            else:
                primary.handle("compact", None)
            if kind in ("insert", "delete"):
                last = (kind, ids)
        live = _state(primary)
        primary.close()  # "crash": only the durable directory survives
        reopened = _ShardWorker(0, _boot(parts, dur))
        _assert_same_state(_state(reopened), live)
        assert reopened.log.applied_lsn == primary.log.applied_lsn
        reopened.close()
