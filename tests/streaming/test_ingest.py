"""StreamIngestor behaviour: durable acks, recovery, backpressure, query."""

import threading
import time

import numpy as np
import pytest

from repro.applications import detect_online_anomalies
from repro.core.atomicio import atomic_savez
from repro.exceptions import (CorruptArtifactError, ServiceClosedError,
                              ServiceOverloadedError)
from repro.serving.wal import ShardWAL
from repro.streaming import StreamConfig, StreamIngestor, WindowConfig
from repro.streaming.ingest import _FOLD_ROWS, STREAM_BASE_TAG
from repro.testing.faults import CorruptionSpec

from tests.streaming.conftest import in_order_points, make_encoder

pytestmark = pytest.mark.streaming

_SYNC = StreamConfig(window=WindowConfig(lateness_s=30.0, ttl_s=1e9,
                                         reorder_buffer=8,
                                         max_segment_points=6),
                     sync_encode=True)


def _shuffled_fleet(rng, sources=3, n=14):
    points = []
    for source in range(1, sources + 1):
        points.extend(in_order_points(source, n, seed=source))
    rng.shuffle(points)
    return points


def test_ingest_classifies_and_acks_durably(tmp_path, encoder):
    ingestor = StreamIngestor(encoder, tmp_path, _SYNC)
    points = in_order_points(1, 6)
    result = ingestor.ingest(points + points[:2])  # tail re-offered
    assert result.applied == 6 and result.duplicates == 2
    assert result.accepted == 6
    assert result.lsn == 1  # one WAL record per ingest batch
    assert ingestor.ingest([]).lsn is None
    stats = ingestor.stats()
    assert stats["accepted_total"] == 6
    assert stats["window"]["window_points"] == 6
    ingestor.close()
    with pytest.raises(ServiceClosedError):
        ingestor.ingest(points)


def test_incremental_embeddings_are_bit_identical(tmp_path, encoder):
    """The tentpole invariant, end to end through the ingester."""
    rng = np.random.default_rng(0)
    ingestor = StreamIngestor(encoder, tmp_path, _SYNC)
    points = _shuffled_fleet(rng)
    for start in range(0, len(points), 5):
        ingestor.ingest(points[start:start + 5])
    segments = ingestor.window_segments()
    ids, embeddings = ingestor.window_embeddings()
    assert sorted(ids.tolist()) == sorted(segments)
    for row, sid in enumerate(ids.tolist()):
        oracle = encoder.encode_prefix(segments[sid])
        assert np.array_equal(embeddings[row], oracle.embedding)
    ingestor.close()


def test_wal_append_failure_leaves_window_unmutated(tmp_path, encoder):
    """A failed WAL append must not ack, and must not poison the retry.

    Regression test: the window used to be mutated before the append,
    so after one transient WAL error the retried batch dedup'd away as
    duplicates, returned lsn=None, and the 'acked' points were lost on
    the next crash.
    """
    failures = {"left": 1}

    def flaky_hook(point):
        if point == "after_write" and failures["left"]:
            failures["left"] -= 1
            raise OSError("injected WAL append failure")

    ingestor = StreamIngestor(encoder, tmp_path, _SYNC, wal_hook=flaky_hook)
    points = in_order_points(1, 8)
    with pytest.raises(OSError):
        ingestor.ingest(points)
    # The failed batch left no trace: nothing applied, nothing acked.
    assert ingestor.stats()["window"]["window_points"] == 0
    assert ingestor.stats()["accepted_total"] == 0
    # The client retry is accepted in full — not absorbed as duplicates
    # of points that were never made durable.
    result = ingestor.ingest(points)
    assert result.applied == 8 and result.duplicates == 0
    assert result.lsn is not None
    fingerprint = ingestor._window.state_fingerprint()
    ingestor.close()

    # Crash recovery sees every acked point.
    recovered = StreamIngestor(encoder, tmp_path, _SYNC)
    assert recovered._window.state_fingerprint() == fingerprint
    assert recovered.stats()["window"]["window_points"] == 8
    recovered.close()


def test_stream_config_has_no_fsync_window():
    with pytest.raises(TypeError, match="fsync_window_ms"):
        StreamConfig(fsync_window_ms=0)


def test_failed_recovery_closes_the_log(tmp_path, encoder, wal_handles):
    """Regression: the constructor used to open the WAL and *then*
    recover, so a recovery error left the segment file open for the
    life of the process."""
    config = StreamConfig(window=_SYNC.window, sync_encode=True)
    ingestor = StreamIngestor(encoder, tmp_path, config)
    ingestor.ingest(in_order_points(1, 10))
    ingestor.snapshot()
    ingestor.close()
    (snapshot,) = tmp_path.glob("snapshot-*.npz")
    CorruptionSpec(mode="flip", offset=None).apply(snapshot)
    opened = len(wal_handles)
    with pytest.raises(CorruptArtifactError):
        StreamIngestor(encoder, tmp_path, config)
    assert len(wal_handles) == opened  # refused before any segment opened
    assert all(handle.closed for handle in wal_handles)
    # Same for a failure *after* the log is open: a snapshot whose
    # digest checks out but whose payload is not a window.
    other = tmp_path / "other"
    log = ShardWAL(other, STREAM_BASE_TAG)
    log.checkpoint(lambda path: atomic_savez(path, unrelated=np.zeros(3)),
                   count=0, next_id=0)
    log.close()
    opened = len(wal_handles)
    with pytest.raises(KeyError):
        StreamIngestor(encoder, other, config)
    assert len(wal_handles) > opened
    assert all(handle.closed for handle in wal_handles)


def test_wal_replay_recovers_identical_state(tmp_path, encoder):
    rng = np.random.default_rng(1)
    ingestor = StreamIngestor(encoder, tmp_path, _SYNC)
    for start in range(0, 42, 7):
        ingestor.ingest(_shuffled_fleet(rng)[start:start + 7])
    before = ingestor._window.state_fingerprint()
    ids_before, emb_before = ingestor.window_embeddings()
    ingestor.close()  # simulated crash: no snapshot was ever written

    recovered = StreamIngestor(encoder, tmp_path, _SYNC)
    assert recovered.stats()["recovered_points"] > 0
    assert recovered._window.state_fingerprint() == before
    ids_after, emb_after = recovered.window_embeddings()
    # Store row order depends on upsert history; the (id -> embedding)
    # mapping must be bit-identical.
    order_b, order_a = np.argsort(ids_before), np.argsort(ids_after)
    assert np.array_equal(ids_before[order_b], ids_after[order_a])
    assert np.array_equal(emb_before[order_b], emb_after[order_a])
    recovered.close()


def test_reopen_recovers_every_prefix_state_bit_for_bit(tmp_path):
    """Recovery re-encodes the whole window in blocks of batched folds;
    each segment's (h, c) is the one the live ingester had grown batch
    by batch, with the SAM memory read."""
    encoder = make_encoder()
    encoder.memory.data[:] = np.random.default_rng(5).normal(
        scale=0.5, size=encoder.memory.data.shape)
    config = StreamConfig(window=WindowConfig(lateness_s=30.0, ttl_s=1e9,
                                              reorder_buffer=8,
                                              max_segment_points=4),
                          sync_encode=True)
    points = _shuffled_fleet(np.random.default_rng(3), sources=30, n=12)
    ingestor = StreamIngestor(encoder, tmp_path, config)
    for start in range(0, len(points), 16):
        ingestor.ingest(points[start:start + 16])
    before = dict(ingestor._prefix)
    assert len(before) > _FOLD_ROWS  # more than one recovery block
    ingestor.close()

    recovered = StreamIngestor(encoder, tmp_path, config)
    try:
        after = recovered._prefix
        assert sorted(after) == sorted(before)
        for segment_id, state in before.items():
            assert after[segment_id].length == state.length
            assert np.array_equal(after[segment_id].h, state.h)
            assert np.array_equal(after[segment_id].c, state.c)
    finally:
        recovered.close()


def test_snapshot_truncates_wal_and_recovers(tmp_path, encoder):
    rng = np.random.default_rng(2)
    ingestor = StreamIngestor(encoder, tmp_path, _SYNC)
    points = _shuffled_fleet(rng)
    ingestor.ingest(points[:20])
    manifest = ingestor.snapshot()
    assert manifest["applied_lsn"] == 1
    ingestor.ingest(points[20:])  # lands in the WAL after the snapshot
    before = ingestor._window.state_fingerprint()
    total = ingestor.stats()["accepted_total"]
    ingestor.close()

    recovered = StreamIngestor(encoder, tmp_path, _SYNC)
    stats = recovered.stats()
    assert recovered._window.state_fingerprint() == before
    assert stats["accepted_total"] == total
    # Only the post-snapshot suffix was replayed from the WAL.
    assert stats["recovered_points"] < total
    recovered.close()


def test_auto_snapshot_every_n_accepted(tmp_path, encoder):
    config = StreamConfig(window=_SYNC.window, sync_encode=True,
                          snapshot_every=10)
    ingestor = StreamIngestor(encoder, tmp_path, config)
    for start in range(0, 28, 7):
        ingestor.ingest(in_order_points(1, 28)[start:start + 7])
    assert ingestor._log.snapshot is not None
    ingestor.close()


def test_eviction_drops_embeddings_and_ivf_entries(tmp_path, encoder):
    config = StreamConfig(
        window=WindowConfig(lateness_s=1.0, ttl_s=5.0, max_segment_points=64),
        sync_encode=True)
    ingestor = StreamIngestor(encoder, tmp_path, config,
                              backend="ivf", nlist=2, nprobe=2)
    ingestor.ingest(in_order_points(1, 8))          # t = 0..7
    assert ingestor.stats()["store_rows"] == 1
    result = ingestor.ingest(
        in_order_points(2, 4, t0=100.0))            # source 1 goes stale
    assert result.evicted_segments == 1
    ids, _ = ingestor.window_embeddings()
    assert len(ids) == 1  # evicted segment's embedding is gone
    answer = ingestor.query(np.asarray([[p.x, p.y] for p in
                                        in_order_points(2, 4, t0=100.0)]),
                            k=1)
    assert answer.segment_ids.tolist() == ids.tolist()
    assert ingestor.stats()["search"]["kind"] == "ivf"
    ingestor.close()


def test_query_reports_watermark_and_freshness(tmp_path, encoder):
    ingestor = StreamIngestor(encoder, tmp_path, _SYNC)
    ingestor.ingest(in_order_points(1, 10))
    answer = ingestor.query(np.array([[200.0, 300.0], [210.0, 310.0]]), k=1)
    assert not answer.degraded
    assert answer.watermark == pytest.approx(9.0 - 30.0)
    ingestor.close()


def test_online_anomaly_scores_live_window(tmp_path, encoder):
    ingestor = StreamIngestor(encoder, tmp_path, _SYNC)
    # 7 sources drawn from one seed family plus one distinct wanderer.
    for source in range(1, 8):
        ingestor.ingest(in_order_points(source, 6, seed=99))
    ingestor.ingest(in_order_points(8, 6, seed=1234))
    result = detect_online_anomalies(ingestor, k=3, quantile=0.8)
    assert len(result.segment_ids) == 8
    assert set(result.anomalies) <= set(result.segment_ids.tolist())
    assert not result.degraded
    with pytest.raises(ValueError):
        detect_online_anomalies(ingestor, quantile=1.5)
    ingestor.close()


# ------------------------------------------------------------- backpressure


def test_overload_defers_reembeds_and_keeps_serving(tmp_path, encoder):
    """2x encoder overload: shed/defer with bounded memory, still answer."""
    config = StreamConfig(
        window=WindowConfig(lateness_s=1e6, ttl_s=1e9, max_segment_points=4),
        sync_encode=False, encode_batch_size=2, max_pending_encodes=1,
        admission_limit=32)
    slow = {"calls": 0}

    def slow_encode():
        slow["calls"] += 1
        time.sleep(0.01)

    ingestor = StreamIngestor(encoder, tmp_path, config,
                              encode_hook=slow_encode)
    degraded_seen = False
    for source in range(1, 5):
        for start in range(0, 12, 4):
            result = ingestor.ingest(
                in_order_points(source, 12, seed=source)[start:start + 4])
            degraded_seen = degraded_seen or result.degraded
            # Deferred work never outgrows the live-segment count.
            stats = ingestor.stats()
            assert stats["dirty_segments"] <= stats["window"]["segments"]
            assert stats["inflight_encodes"] <= config.max_pending_encodes
    assert degraded_seen, "encoder lag never produced a degraded ack"

    # Queries keep working mid-lag and carry the freshness flag. The
    # encoder runs outside the ingester lock, so ingest no longer waits
    # on it at all — give the very first async encode a moment to land
    # before querying the table.
    deadline = time.monotonic() + 10.0
    while (ingestor.stats()["store_rows"] == 0
           and time.monotonic() < deadline):
        time.sleep(0.005)
    answer = ingestor.query(np.array([[500.0, 500.0], [510.0, 510.0]]), k=1)
    assert answer.segment_ids.shape == (1,)

    assert ingestor.wait_until_current(timeout_s=30.0)
    assert not ingestor.degraded
    # After catch-up the async path landed on the same bits as sync.
    segments = ingestor.window_segments()
    ids, embeddings = ingestor.window_embeddings()
    for row, sid in enumerate(ids.tolist()):
        oracle = encoder.encode_prefix(segments[sid])
        assert np.array_equal(embeddings[row], oracle.embedding)
    ingestor.close()


def test_admission_gate_sheds_concurrent_ingest(tmp_path, encoder):
    config = StreamConfig(window=_SYNC.window, sync_encode=True,
                          admission_limit=1)
    ingestor = StreamIngestor(encoder, tmp_path, config)
    barrier = threading.Barrier(3)
    outcomes = []

    def worker(source):
        barrier.wait()
        try:
            ingestor.ingest(in_order_points(source, 30, seed=source))
            outcomes.append("ok")
        except ServiceOverloadedError:
            outcomes.append("shed")

    threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 2, 3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert "ok" in outcomes
    shed_count = outcomes.count("shed")
    metric = ingestor.stats()
    assert metric["admission"]["limit"] == 1
    ingestor.close()
    # With limit=1 and a 3-way barrier, at least one call must shed.
    assert shed_count >= 1
