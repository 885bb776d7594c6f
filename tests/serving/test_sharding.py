"""Tests for the sharded scatter-gather serving tier.

Every multi-process test here runs 2-3 shard workers over tiny stores,
so the whole module stays tier-1 friendly. The load-bearing property is
*id-identity*: a sharded service must return exactly the ids (and
order) a single-process exact store would, ties included.
"""

import numpy as np
import pytest

from repro.core.partition import save_partitions
from repro.core.store import EmbeddingStore
from repro.exceptions import (NotFittedError, ReloadError, ServiceClosedError,
                              ServiceUnavailableError, ShardUnavailableError)
from repro.serving import (ShardedConfig, ShardedService, ShardRequestError,
                           merge_top_k)
from repro.testing.faults import KillWorkerOnce

pytestmark = pytest.mark.sharding

DIM = 8


def make_embeddings(n, seed=11, dim=DIM):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)).astype(np.float32)


@pytest.fixture
def partitions(tmp_path):
    """120 rows split across 3 shards, with exact-duplicate rows for ties."""
    emb = make_embeddings(120)
    emb[40] = emb[7]   # distance ties under different ids ...
    emb[80] = emb[7]   # ... spread across shards by the hash ring
    ids = np.arange(120, dtype=np.int64)
    save_partitions(tmp_path, ids, emb, num_shards=3)
    return tmp_path, ids, emb


@pytest.fixture
def reference(partitions):
    """The single-process exact store the sharded tier must agree with."""
    _, ids, emb = partitions
    store = EmbeddingStore(None, dim=DIM)
    store.add_embeddings(emb, ids=ids.tolist())
    return store


@pytest.fixture
def service(partitions):
    svc = ShardedService(partitions[0], config=ShardedConfig())
    yield svc
    svc.close()


# ------------------------------------------------------------------ merge


def test_merge_top_k_orders_by_distance_then_id():
    merged = merge_top_k([
        (np.array([5, 9]), np.array([0.3, 0.1])),
        (np.array([2, 7]), np.array([0.1, 0.3])),
    ], k=4)
    ids, dist = merged
    assert ids.tolist() == [2, 9, 5, 7]  # 0.1-tie broken by id
    assert dist.tolist() == [0.1, 0.1, 0.3, 0.3]


def test_merge_top_k_handles_k_beyond_total():
    merged = merge_top_k([(np.array([3]), np.array([0.5]))], k=10)
    assert merged[0].tolist() == [3]


# --------------------------------------------------------------- identity


@pytest.mark.parametrize("k", [1, 5, 17, 120])
def test_sharded_topk_identical_to_single_store(service, reference, k):
    # k=120 exceeds every per-shard count (~40): the merge must
    # reassemble the full ranking, not just per-shard heads.
    queries = make_embeddings(6, seed=23)
    queries[0] = reference.embeddings[7]  # lands on the 3-way tie
    for q in queries:
        want_ids, want_dist = reference.query_embedding(q, k=k)
        got = service.query_embedding(q, k=k)
        assert got.ids == [int(i) for i in want_ids]
        np.testing.assert_allclose(got.distances, want_dist, rtol=1e-5)
        assert got.partial is False


def test_tie_ranking_is_deterministic(service, reference):
    # ids 7/40/80 share one embedding; (distance, id) ordering puts
    # them adjacent and ascending regardless of which shard owns which.
    q = reference.embeddings[7]
    got = service.query_embedding(q, k=3)
    assert got.ids == [7, 40, 80]


# ------------------------------------------------------------ mutations


def test_insert_and_delete_route_by_hash(service, reference):
    new = make_embeddings(10, seed=99)
    assigned = service.insert_embeddings(new)
    assert assigned == list(range(120, 130))
    reference.add_embeddings(new, ids=assigned)
    assert service.size() == len(reference) == 130

    q = new[4]
    want_ids, _ = reference.query_embedding(q, k=8)
    assert service.query_embedding(q, k=8).ids == [int(i) for i in want_ids]

    removed = service.delete([124, 7, 999])
    assert removed == 2  # 999 was never present
    reference.remove([124, 7])
    want_ids, _ = reference.query_embedding(q, k=8)
    assert service.query_embedding(q, k=8).ids == [int(i) for i in want_ids]


def test_compact_reports_per_shard(service):
    result = service.compact()
    assert sorted(result) == [0, 1, 2]
    assert all(v is False for v in result.values())  # exact backend


def test_trajectory_entry_points_require_model(service):
    with pytest.raises(NotFittedError):
        service.top_k([[0.0, 0.0], [1.0, 1.0]], k=2)
    with pytest.raises(NotFittedError):
        service.synthetic_probe()


# -------------------------------------------------------- degraded mode


@pytest.mark.faults
def test_killed_shard_degrades_to_partial_results(partitions, reference,
                                                  tmp_path):
    marker = tmp_path / "killed.marker"
    hook = KillWorkerOnce(None, marker)
    config = ShardedConfig(breaker_failure_threshold=1, breaker_reset_s=60.0,
                           request_timeout_s=10.0)
    with ShardedService(partitions[0], config=config,
                        request_hooks={1: hook}) as svc:
        q = make_embeddings(1, seed=5)[0]

        # First query kills shard 1 mid-request: the answer must still
        # arrive, flagged partial, with shards 0+2's rows only.
        got = svc.query_embedding(q, k=10)
        assert marker.exists()
        assert got.partial is True
        owned_elsewhere = [int(i) for i in got.ids]
        full_ids, _ = reference.query_embedding(q, k=120)
        assert owned_elsewhere == [
            i for i in map(int, full_ids)
            if svc.ring.shard_for(i) != 1][:10]

        # The breaker opened, so the next query skips the dead shard
        # without paying a timeout, still partial.
        assert svc.shards[1].breaker.state == "open"
        assert svc.query_embedding(q, k=10).partial is True

        # Restart heals: fresh worker, closed breaker, full answers.
        svc.restart_shard(1)
        healed = svc.query_embedding(q, k=10)
        assert healed.partial is False
        want_ids, _ = reference.query_embedding(q, k=10)
        assert healed.ids == [int(i) for i in want_ids]


@pytest.mark.faults
def test_mutation_on_dead_shard_raises_after_routing_live_ones(partitions):
    config = ShardedConfig(breaker_failure_threshold=1, request_timeout_s=5.0)
    with ShardedService(partitions[0], config=config) as svc:
        svc.shards[2].call("shutdown", {})
        new = make_embeddings(12, seed=42)
        with pytest.raises(ShardUnavailableError):
            svc.insert_embeddings(new)
        # rows owned by live shards were still inserted
        assert svc.size() > 120


@pytest.mark.faults
def test_all_shards_down_is_unavailable(partitions):
    config = ShardedConfig(breaker_failure_threshold=1, request_timeout_s=5.0)
    with ShardedService(partitions[0], config=config) as svc:
        for handle in svc.shards:
            handle.call("shutdown", {})
        with pytest.raises(ServiceUnavailableError):
            svc.query_embedding(make_embeddings(1)[0], k=3)


def test_worker_app_error_does_not_trip_breaker(service):
    with pytest.raises(ShardRequestError):
        service.shards[0].call("no-such-op", {})
    assert service.shards[0].breaker.state == "closed"
    assert service.shards[0].alive


# --------------------------------------------------------------- reload


def test_reload_flips_to_new_partitions(service, tmp_path):
    emb = make_embeddings(50, seed=77)
    new_dir = tmp_path / "gen2"
    save_partitions(new_dir, np.arange(50, dtype=np.int64), emb,
                    num_shards=3)
    report = service.reload(partition_dir=new_dir)
    assert report["generation"] == 1
    assert sorted(report["activated"]) == [0, 1, 2]
    assert service.size() == 50

    ref = EmbeddingStore(None, dim=DIM)
    ref.add_embeddings(emb)
    q = make_embeddings(1, seed=3)[0]
    want_ids, _ = ref.query_embedding(q, k=7)
    assert service.query_embedding(q, k=7).ids == [int(i) for i in want_ids]


def test_reload_rejects_shard_count_change(service, tmp_path):
    other = tmp_path / "wrong-shards"
    save_partitions(other, np.arange(30, dtype=np.int64),
                    make_embeddings(30), num_shards=2)
    with pytest.raises(ReloadError):
        service.reload(partition_dir=other)
    assert service.size() == 120  # still serving the old generation


def test_failed_prepare_aborts_cleanly(service, tmp_path):
    with pytest.raises(ReloadError):
        service.reload(partition_dir=tmp_path / "does-not-exist")
    # old generation still answers
    assert service.query_embedding(make_embeddings(1)[0], k=2).partial is False


# ----------------------------------------------------------------- http


def test_http_front_end_serves_sharded_tier(partitions, reference, tmp_path):
    import json
    import threading
    import urllib.error
    import urllib.request

    from repro.serving import make_server

    def call(server, path, payload=None, method=None):
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(server.url + path, data=data,
                                         method=method)
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    with ShardedService(partitions[0]) as svc:
        server = make_server(svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, health = call(server, "/healthz")
            assert (status, health["store_size"]) == (200, 120)

            status, compacted = call(server, "/admin/compact", method="POST")
            assert status == 200
            assert sorted(compacted["compacted"]) == ["0", "1", "2"]

            new_dir = tmp_path / "gen2"
            save_partitions(new_dir, np.arange(30, dtype=np.int64),
                            make_embeddings(30, seed=13), num_shards=3)
            status, report = call(server, "/admin/reload",
                                  {"partition_dir": str(new_dir)})
            assert (status, report["generation"]) == (200, 1)
            assert call(server, "/healthz")[1]["store_size"] == 30

            status, body = call(server, "/admin/reload",
                                {"partition_dir": str(tmp_path / "nope")})
            assert status == 409
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


# ------------------------------------------------------------- plumbing


def test_readiness_and_stats(service):
    assert service.readiness()["ready"] is False  # not yet warmed
    assert service.warmup() > 0
    ready = service.readiness()
    assert ready["ready"] is True
    sharding = service.stats()["store"]["sharding"]
    assert sharding["num_shards"] == 3
    assert sum(w["count"] for w in sharding["workers"].values()) == 120


def test_closed_service_rejects_queries(partitions):
    svc = ShardedService(partitions[0])
    svc.close()
    with pytest.raises(ServiceClosedError):
        svc.query_embedding(make_embeddings(1)[0], k=1)
