"""Tests for SimilarityService: query parity, caching, mutation, warmup."""

import threading

import numpy as np
import pytest

from repro.core.store import EmbeddingStore
from repro.exceptions import ConfigurationError
from repro.serving import (ServingConfig, ShardedConfig, SimilarityService,
                           save_bundle)


@pytest.fixture
def service(serving_world, fresh_store):
    model, items = serving_world
    svc = SimilarityService(model, fresh_store,
                            ServingConfig(),
                            probes=items[:2])
    yield svc
    svc.close()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ServingConfig(max_batch_size=0)
    with pytest.raises(ConfigurationError):
        ServingConfig(cache_capacity=-1)
    with pytest.raises(ConfigurationError):
        ServingConfig(default_k=0)


def test_configs_have_no_fsync_window():
    """Every WAL append fsyncs before it returns; there is no commit
    window to configure on either tier."""
    for config in (ServingConfig, ShardedConfig):
        with pytest.raises(TypeError, match="fsync_window_ms"):
            config(fsync_window_ms=0)


def test_topk_matches_offline_store(service, serving_world, fresh_store):
    _, items = serving_world
    result = service.top_k(items[1], k=5, use_cache=False)
    expected_ids, expected_dist = fresh_store.query(items[1], k=5)
    assert result.ids == [int(i) for i in expected_ids]
    np.testing.assert_allclose(result.distances, expected_dist, atol=1e-9)
    assert not result.cached


def test_embed_matches_model(service, serving_world):
    model, items = serving_world
    via_service = service.embed(items[0])
    direct = model.embed([items[0]])[0]
    np.testing.assert_allclose(via_service, direct, atol=1e-12)


def test_cache_hit_on_repeat_query(service, serving_world):
    _, items = serving_world
    first = service.top_k(items[2], k=4)
    second = service.top_k(items[2], k=4)
    assert not first.cached
    assert second.cached
    assert second.ids == first.ids
    assert service._cache.hits == 1


def test_raw_points_list_accepted(service, serving_world):
    """Queries may arrive as plain coordinate lists (the HTTP body shape)."""
    _, items = serving_world
    as_list = items[3].points.tolist()
    a = service.top_k(as_list, k=3, use_cache=False)
    b = service.top_k(items[3], k=3, use_cache=False)
    assert a.ids == b.ids


def test_insert_invalidates_cache_and_extends_store(service, serving_world):
    _, items = serving_world
    before = service.top_k(items[4], k=3)
    assert service.top_k(items[4], k=3).cached
    new_ids = service.insert(items[16:18])
    assert new_ids == [16, 17]
    after = service.top_k(items[4], k=3)
    assert not after.cached  # generation bumped -> old key dead
    assert before.ids  # sanity: query produced answers both times


def test_delete_removes_and_invalidates(service, serving_world):
    _, items = serving_world
    target = service.top_k(items[5], k=1, use_cache=False).ids[0]
    removed = service.delete([target])
    assert removed == 1
    fresh = service.top_k(items[5], k=5, use_cache=False)
    assert target not in fresh.ids


def test_insert_empty_is_noop(service):
    assert service.insert([]) == []


def test_invalid_k_counts_an_error(service, serving_world):
    _, items = serving_world
    with pytest.raises(ValueError):
        service.top_k(items[0], k=0)
    assert service._m_errors.value >= 1


def test_stats_shape(service, serving_world):
    _, items = serving_world
    service.top_k(items[0], k=2)
    stats = service.stats()
    assert stats["store"]["size"] == 16
    assert stats["store"]["measure"] == "hausdorff"
    assert stats["cache"]["capacity"] == 1024
    assert stats["batcher"]["items"] >= 1
    assert stats["uptime_seconds"] >= 0
    assert "repro_topk_requests_total" in stats["metrics"]


def test_warmup_with_probes(service):
    assert service.warmup() == 2
    assert service._m_queries.value >= 2


def test_warmup_empty_store_uses_embed_path(serving_world):
    model, _ = serving_world
    svc = SimilarityService(model, EmbeddingStore(model))
    try:
        assert svc.warmup() == 1  # synthetic probe through the encoder
        assert svc._m_embeds.value == 1
    finally:
        svc.close()


def test_metrics_render_nonempty(service, serving_world):
    _, items = serving_world
    service.top_k(items[0], k=2)
    text = service.render_metrics()
    assert "repro_topk_requests_total 1" in text
    assert "repro_encode_batch_size_count" in text


def test_from_bundle(bundle_dir, serving_world, fresh_store):
    _, items = serving_world
    svc = SimilarityService.from_bundle(bundle_dir)
    try:
        assert len(svc.store) == len(fresh_store)
        assert len(svc.probes) == 3
        result = svc.top_k(items[0], k=5, use_cache=False)
        expected, _ = fresh_store.query(items[0], k=5)
        assert result.ids == [int(i) for i in expected]
    finally:
        svc.close()


def test_concurrent_queries_match_serial_quick(service, serving_world,
                                               fresh_store):
    """4 concurrent clients agree with the offline serial answers."""
    _, items = serving_world
    queries = items[:8]
    expected = [fresh_store.query(q, k=5)[0].tolist() for q in queries]
    answers = {}

    def client(idx):
        got = [service.top_k(q, k=5, use_cache=False).ids for q in queries]
        answers[idx] = got

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    for got in answers.values():
        assert got == expected


def test_insert_encodes_on_the_batcher_thread(serving_world, fresh_store,
                                              monkeypatch):
    """Every encoder call — for inserts too — runs on the one batcher
    thread, so no O(L) encode holds the store lock. (Inference no longer
    enters ``no_grad``, so the autograd flag is safe whichever thread
    encodes — ``tests/core/test_encoder.py`` pins that; the streaming
    tier always did encode from several threads.)"""
    from repro.nn.tensor import is_grad_enabled

    model, items = serving_world
    callers = []
    real_embed = model.embed

    def recording_embed(trajectories):
        callers.append(threading.current_thread().name)
        return real_embed(trajectories)

    # On the instance, so the store's own reference to the model sees it.
    monkeypatch.setattr(model, "embed", recording_embed)
    svc = SimilarityService(model, fresh_store,
                            ServingConfig())
    try:
        def inserter():
            for traj in items[16:20]:
                svc.insert([traj])

        def reader():
            for traj in items[:8]:
                svc.top_k(traj, k=3, use_cache=False)

        threads = [threading.Thread(target=inserter),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        svc.close()
    assert len(fresh_store) == 20
    assert callers and set(callers) == {"repro-encode-batcher"}
    assert is_grad_enabled()


@pytest.mark.serving
def test_concurrent_queries_match_serial_16_clients(serving_world,
                                                    fresh_store):
    """The acceptance-scale determinism check: 16 clients, shared batches."""
    model, items = serving_world
    svc = SimilarityService(model, fresh_store, ServingConfig())
    queries = items[:16]
    expected = [fresh_store.query(q, k=5)[0].tolist() for q in queries]
    answers = {}
    try:
        def client(idx):
            got = [svc.top_k(q, k=5, use_cache=False).ids for q in queries]
            answers[idx] = got

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        stats = svc._batcher.stats()
    finally:
        svc.close()
    assert len(answers) == 16
    for got in answers.values():
        assert got == expected
    assert stats["mean_batch_size"] > 1.0  # batching actually coalesced


@pytest.mark.durability
def test_durable_dir_needs_a_base_and_refuses_replicas(serving_world,
                                                       fresh_store, tmp_path):
    model, _ = serving_world
    with pytest.raises(ConfigurationError, match="base_tag"):
        SimilarityService(model, fresh_store, durable_dir=tmp_path / "wal")
    with pytest.raises(TypeError, match="replicas"):
        ShardedConfig(replicas=1)  # a dead shard restarts; no standbys
    assert not (tmp_path / "wal").exists()


@pytest.mark.durability
def test_a_replaced_bundle_starts_a_fresh_log(serving_world, fresh_store,
                                              tmp_path):
    """The log is keyed to the bundle's store bytes: new bytes under the
    same durable_dir must not inherit the old bundle's writes."""
    model, items = serving_world
    wal = tmp_path / "wal"
    save_bundle(tmp_path / "a", model, fresh_store)
    with SimilarityService.from_bundle(tmp_path / "a",
                                       durable_dir=wal) as service:
        assert service.insert(items[16:18]) == [16, 17]
    with SimilarityService.from_bundle(tmp_path / "a",
                                       durable_dir=wal) as service:
        assert service.size() == 18
    smaller = EmbeddingStore(model)
    smaller.add(items[:5])
    save_bundle(tmp_path / "b", model, smaller)
    with SimilarityService.from_bundle(tmp_path / "b",
                                       durable_dir=wal) as service:
        assert service.size() == 5
        assert service.store.ids == [0, 1, 2, 3, 4]
