"""Crash-chaos and failover tests for the durable sharded tier.

The chaos harness runs the same deterministic mutation workload under
20+ seeded fault schedules — SIGKILL at a chosen point of the WAL
append path, optional torn-write tail damage, optional double crash —
then recovers and checks the durability contract:

* every **acked** write survives recovery (inserts present, deletes
  absent);
* an **unacked** per-shard sub-batch is all-or-nothing — the WAL record
  either replays whole or was torn away whole;
* post-recovery top-k answers are id-identical to a single-process
  exact oracle built from the surviving id set.
"""

import os
import signal
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.partition import save_partitions
from repro.core.store import EmbeddingStore
from repro.exceptions import PartialWriteError
from repro.serving import make_server
from repro.serving import ShardedConfig, ShardedService, group_by_shard
from repro.serving.wal import (OP_DELETE, encode_record, list_segments,
                               scan_buffer)
from repro.testing.faults import KillAtWALPoint

pytestmark = pytest.mark.durability

DIM = 8
SEED_ROWS = 40
NUM_SHARDS = 2
TIMEOUT = 30.0


def make_embeddings(n, seed=11, dim=DIM):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)).astype(np.float64)


def _config(**kwargs):
    kwargs.setdefault("request_timeout_s", TIMEOUT)
    return ShardedConfig(**kwargs)


def _make_partitions(tmp_path):
    emb = make_embeddings(SEED_ROWS, seed=5)
    ids = np.arange(SEED_ROWS, dtype=np.int64)
    part_dir = tmp_path / "parts"
    save_partitions(part_dir, ids, emb, num_shards=NUM_SHARDS)
    return part_dir, ids, emb


class _Tracker:
    """Ground truth for the chaos workload: what was acked vs in flight."""

    def __init__(self, ids, emb):
        self.embedding = {int(i): emb[j] for j, i in enumerate(ids)}
        self.acked_inserted = set(int(i) for i in ids)
        self.acked_deleted = set()
        # Per-shard sub-batches whose ack never arrived:
        # ("insert"|"delete", frozenset_of_ids)
        self.pending = []

    def live_acked(self):
        return self.acked_inserted - self.acked_deleted

    def record_insert(self, service, rows):
        base = service.target._next_id
        intended = list(range(base, base + len(rows)))
        for offset, row_id in enumerate(intended):
            self.embedding[row_id] = rows[offset]
        try:
            assigned = service.insert_embeddings(rows)
            assert assigned == intended
            self.acked_inserted.update(intended)
        except PartialWriteError as exc:
            applied = set(int(i) for i in exc.applied_ids)
            self.acked_inserted.update(applied)
            groups = group_by_shard(service.target._ring, intended)
            for positions in groups.values():
                batch = frozenset(intended[p] for p in positions)
                if not batch & applied:
                    self.pending.append(("insert", batch))

    def record_delete(self, service, ids):
        ids = [int(i) for i in ids]
        try:
            service.delete(ids)
            self.acked_deleted.update(ids)
        except PartialWriteError as exc:
            applied = set(int(i) for i in exc.applied_ids)
            self.acked_deleted.update(applied)
            groups = group_by_shard(service.target._ring, ids)
            for positions in groups.values():
                batch = frozenset(ids[p] for p in positions)
                if not batch & applied:
                    self.pending.append(("delete", batch))


def _workload(service, tracker, rng, round_no=0):
    """Deterministic insert/delete stream; survives dead shards."""
    for step in range(4):
        rows = make_embeddings(5 + step, seed=1000 + 10 * round_no + step)
        tracker.record_insert(service, rows)
        if step == 2:
            live = sorted(tracker.live_acked())
            victims = [live[i] for i in
                       rng.choice(len(live), size=4, replace=False)]
            tracker.record_delete(service, victims)


def _present_ids(service):
    present = set()
    for handle in service.target._shards:
        present.update(handle.call("ids", None, TIMEOUT))
    return present


def _restart_dead_shards(service):
    for shard_id in range(service.num_shards):
        if not service.target._shards[shard_id].alive or \
                service.target._shards[shard_id].breaker.state != "closed":
            service.restart_shard(shard_id)


def _check_contract(service, tracker):
    present = _present_ids(service)
    # 1. Acked inserts that were never acked-deleted must be present.
    missing = tracker.live_acked() - present
    assert not missing, f"acked writes lost: {sorted(missing)[:10]}"
    # 2. Acked deletes must stay deleted.
    resurrected = tracker.acked_deleted & present
    assert not resurrected, f"acked deletes resurrected: {sorted(resurrected)}"
    # 3. Unacked sub-batches are all-or-nothing (one WAL record each).
    for kind, batch in tracker.pending:
        overlap = batch & present
        assert overlap in (set(), set(batch)), \
            f"half-applied {kind} sub-batch: {sorted(overlap)} of {sorted(batch)}"
    # 4. Top-k is id-identical to an exact oracle over the surviving set.
    oracle = EmbeddingStore(None, dim=DIM)
    ordered = sorted(present)
    oracle.add_embeddings(
        np.stack([tracker.embedding[i] for i in ordered]), ids=ordered)
    for q_seed in (70, 71, 72):
        q = make_embeddings(1, seed=q_seed)[0]
        want_ids, want_dist = oracle.query_embedding(q, k=10)
        got = service.query_embedding(q, k=10)
        assert got.partial is False
        assert got.ids == [int(i) for i in want_ids]
        np.testing.assert_allclose(got.distances, want_dist, rtol=1e-6)
    return present


# ------------------------------------------------------------ chaos harness


_POINTS = ("after_write", "before_fsync", "after_fsync")


def _schedule(seed):
    """Derive one deterministic fault schedule from its seed."""
    point = _POINTS[seed % 3]
    return {
        "seed": seed,
        "point": point,
        "nth": 1 + (seed // 3) % 3,
        "target": seed % NUM_SHARDS,
        # Group commit for every before_fsync schedule plus a few others.
        "window_ms": 2.0 if point == "before_fsync" or seed % 5 == 0 else 0.0,
        # Torn tail: only where the killed record was never fsynced, so
        # cutting bytes off the tail cannot touch an acked record.
        "torn": point != "after_fsync" and seed % 4 == 0,
        "double": seed % 7 == 3,
        "cold": seed % 2 == 1,
    }


@pytest.mark.parametrize("seed", range(20))
def test_chaos_schedule_preserves_acked_writes(tmp_path, seed):
    sched = _schedule(seed)
    part_dir, ids, emb = _make_partitions(tmp_path)
    durable = tmp_path / "durable"
    marker_dir = tmp_path / "markers"
    hook = KillAtWALPoint(sched["point"], marker_dir, nth=sched["nth"],
                          max_kills=2 if sched["double"] else 1)
    config = _config(fsync_window_ms=sched["window_ms"])
    tracker = _Tracker(ids, emb)
    rng = np.random.default_rng(200 + seed)

    service = ShardedService(part_dir, config=config, durable_dir=durable,
                             wal_hooks={sched["target"]: hook})
    try:
        _workload(service, tracker, rng, round_no=0)
        assert hook.kills_so_far() >= 1, "fault schedule never fired"

        if sched["torn"]:
            # A SIGKILL drops the worker's userspace write buffer, so the
            # segment on disk ends at the durable boundary. Simulate the
            # record that only *partially* hit the platter: append a
            # truncated frame for the next LSN — recovery must shear it
            # off without touching the acked prefix.
            wal_dir = durable / f"shard-{sched['target']:04d}"
            segment = list_segments(wal_dir)[-1]
            records, _, damage = scan_buffer(segment.read_bytes())
            assert damage is None
            next_lsn = (records[-1].lsn + 1) if records else 1
            torn_frame = encode_record(next_lsn, OP_DELETE,
                                       np.array([123], dtype=np.int64))
            with open(segment, "ab") as tail:
                tail.write(torn_frame[:-4])

        if sched["cold"]:
            service.close()
            # Keep the hook installed: exhausted schedules must stay
            # inert on replay; double-crash ones get their second kill.
            service = ShardedService(part_dir, config=config,
                                     durable_dir=durable,
                                     wal_hooks={sched["target"]: hook})
        else:
            _restart_dead_shards(service)

        present = _check_contract(service, tracker)

        if sched["double"]:
            # Crash-recover-crash: the reinstalled hook has one kill
            # budget left; run another round and recover again.
            _workload(service, tracker, rng, round_no=1)
            assert hook.kills_so_far() == 2
            _restart_dead_shards(service)
            present = _check_contract(service, tracker)

        # Recovered id space must not collide with surviving rows.
        before = len(present)
        tracker.record_insert(service, make_embeddings(3, seed=999))
        assert len(_present_ids(service)) == before + 3
        _check_contract(service, tracker)
    finally:
        service.close()


# -------------------------------------------------------- replica failover


def test_replica_failover_mid_stream_keeps_acked_writes(tmp_path):
    part_dir, ids, emb = _make_partitions(tmp_path)
    service = ShardedService(part_dir, config=_config(replicas=1),
                             durable_dir=tmp_path / "durable")
    tracker = _Tracker(ids, emb)
    try:
        tracker.record_insert(service, make_embeddings(12, seed=300))
        tracker.record_delete(service, sorted(tracker.live_acked())[:3])
        assert not tracker.pending

        primary = service.target._shards[0]
        pid = primary._proc.pid
        os.kill(pid, signal.SIGKILL)

        # The very next scatter must fail over to the standby and answer
        # complete — not partial — with zero acked-write loss.
        q = make_embeddings(1, seed=42)[0]
        got = service.query_embedding(q, k=10)
        assert got.partial is False
        assert service.stats()["durability"]["failovers"] == 1
        assert service.target._shards[0]._proc.pid != pid
        _check_contract(service, tracker)

        # Writes keep flowing through the promoted primary, and a
        # replacement standby was spawned behind it.
        tracker.record_insert(service, make_embeddings(4, seed=301))
        assert not tracker.pending
        _check_contract(service, tracker)
        assert len(service.target._replicas[0]) == 1

        # Kill the promoted primary too: the replacement takes over.
        os.kill(service.target._shards[0]._proc.pid, signal.SIGKILL)
        got = service.query_embedding(q, k=10)
        assert got.partial is False
        assert service.stats()["durability"]["failovers"] == 2
        _check_contract(service, tracker)
    finally:
        service.close()


# ----------------------------------------------------- partial write surface


def test_partial_write_reports_exactly_the_applied_ids(tmp_path):
    part_dir, ids, emb = _make_partitions(tmp_path)
    service = ShardedService(part_dir, config=_config(),
                             durable_dir=tmp_path / "durable")
    try:
        os.kill(service.target._shards[1]._proc.pid, signal.SIGKILL)
        base = service.target._next_id
        rows = make_embeddings(8, seed=500)
        intended = list(range(base, base + len(rows)))
        groups = group_by_shard(service.target._ring, intended)
        with pytest.raises(PartialWriteError) as excinfo:
            service.insert_embeddings(rows)
        live_ids = sorted(intended[p] for p in groups.get(0, []))
        assert sorted(excinfo.value.applied_ids) == live_ids
        present = _present_ids_live(service, shard_ids=(0,))
        assert set(live_ids) <= present
        # The dead shard's sub-batch never reached a WAL: recovery must
        # not surface any of it.
        service.restart_shard(1)
        dead_ids = set(intended[p] for p in groups.get(1, []))
        assert not dead_ids & _present_ids(service)
    finally:
        service.close()


def _present_ids_live(service, shard_ids):
    present = set()
    for shard_id in shard_ids:
        present.update(
            service.target._shards[shard_id].call("ids", None, TIMEOUT))
    return present


# -------------------------------------------------- cold coordinator restart


def test_cold_restart_is_id_identical_including_id_space(tmp_path):
    part_dir, ids, emb = _make_partitions(tmp_path)
    durable = tmp_path / "durable"
    config = _config()
    tracker = _Tracker(ids, emb)
    service = ShardedService(part_dir, config=config, durable_dir=durable)
    tracker.record_insert(service, make_embeddings(10, seed=600))
    tracker.record_delete(service, sorted(tracker.live_acked())[5:8])
    compacted = service.compact()  # snapshot + WAL truncation path
    assert set(compacted) == {0, 1}
    tracker.record_insert(service, make_embeddings(5, seed=601))
    next_id = service.target._next_id
    q = make_embeddings(1, seed=602)[0]
    want = service.query_embedding(q, k=12)
    service.close()

    revived = ShardedService(part_dir, config=config, durable_dir=durable)
    try:
        assert revived.target._next_id == next_id
        got = revived.query_embedding(q, k=12)
        assert got.ids == want.ids
        np.testing.assert_allclose(got.distances, want.distances, rtol=1e-6)
        _check_contract(revived, tracker)
        # Fresh inserts continue the id sequence instead of colliding.
        assigned = revived.insert_embeddings(make_embeddings(2, seed=603))
        assert assigned == [next_id, next_id + 1]
    finally:
        revived.close()


def test_failed_constructor_leaves_no_worker_behind(tmp_path, bundle_dir):
    """A coordinator that fails after forking closes standbys too."""
    import json
    import multiprocessing

    from repro.exceptions import ConfigurationError

    part_dir, _, _ = _make_partitions(tmp_path)
    manifest = part_dir / "PARTITIONS.json"
    claimed = json.loads(manifest.read_text())
    claimed["embedding_dim"] = DIM + 1  # workers boot; the bundle disagrees
    manifest.write_text(json.dumps(claimed))
    before = set(multiprocessing.active_children())
    with pytest.raises(ConfigurationError, match="embedding_dim"):
        ShardedService(part_dir, bundle_dir=bundle_dir,
                       config=_config(replicas=1),
                       durable_dir=tmp_path / "durable")
    assert set(multiprocessing.active_children()) <= before


# ------------------------------------------------------- HTTP admin restart


def test_http_admin_restart_recovers_a_killed_shard(tmp_path):
    part_dir, ids, emb = _make_partitions(tmp_path)
    service = ShardedService(part_dir, config=_config(),
                             durable_dir=tmp_path / "durable")
    srv = make_server(service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        os.kill(service.target._shards[0]._proc.pid, signal.SIGKILL)
        request = urllib.request.Request(srv.url + "/admin/restart/0",
                                         data=b"", method="POST")
        with urllib.request.urlopen(request, timeout=TIMEOUT) as response:
            assert response.status == 200
        assert service.target._shards[0].alive
        got = service.query_embedding(make_embeddings(1, seed=700)[0], k=5)
        assert got.partial is False

        # Bad shard ids are a client error, not a crash.
        bad = urllib.request.Request(srv.url + "/admin/restart/nope",
                                     data=b"", method="POST")
        try:
            urllib.request.urlopen(bad, timeout=TIMEOUT)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as error:
            assert error.code == 400
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
        service.close()
