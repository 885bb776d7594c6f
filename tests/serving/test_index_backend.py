"""Serving over the IVF search backend: config, answers, metrics."""

import numpy as np
import pytest

from repro.core.partition import save_partitions
from repro.core.store import EmbeddingStore
from repro.exceptions import ConfigurationError
from repro.serving import (ServingConfig, ShardedConfig, ShardedService,
                           SimilarityService, save_bundle)


def _every_shape(model, store, tmp_path, **knobs):
    """The local and the 2-shard deployment of ``store``, one at a time."""
    yield SimilarityService(model, store, ServingConfig(**knobs))
    save_bundle(tmp_path / "bundle", model, store)
    save_partitions(tmp_path / "parts", np.asarray(store.ids, dtype=np.int64),
                    store.embeddings, num_shards=2)
    yield ShardedService(tmp_path / "parts", bundle_dir=tmp_path / "bundle",
                         config=ShardedConfig(**knobs))


def test_serving_config_index_validation():
    with pytest.raises(ConfigurationError):
        ServingConfig(index="annoy")
    with pytest.raises(ConfigurationError):
        ServingConfig(nprobe=0)
    with pytest.raises(ConfigurationError):
        ServingConfig(nlist=-1)
    assert ServingConfig(index="ivf", nlist=8, nprobe=2).index == "ivf"
    with pytest.raises(ConfigurationError):
        ServingConfig(index="keep")


def test_service_installs_ivf_backend(serving_world, fresh_store):
    model, items = serving_world
    svc = SimilarityService(model, fresh_store,
                            ServingConfig(index="ivf", nlist=4, nprobe=4,
                                          max_wait_ms=0.5))
    try:
        assert fresh_store.backend.name == "ivf"
        # nprobe == nlist: answers match the exact scan
        exact = EmbeddingStore(model)
        exact.add(items[:16])
        want, want_d = exact.query(items[1], k=5)
        result = svc.top_k(items[1], k=5, use_cache=False)
        assert result.ids == [int(i) for i in want]
        np.testing.assert_allclose(result.distances, want_d, atol=1e-6)
    finally:
        svc.close()


def test_service_exact_resets_foreign_backend(serving_world, fresh_store):
    model, items = serving_world
    fresh_store.use_backend("ivf", nlist=4, nprobe=2)
    svc = SimilarityService(model, fresh_store,
                            ServingConfig(index="exact", max_wait_ms=0.5))
    try:
        assert fresh_store.backend.name == "exact"
    finally:
        svc.close()


def test_candidate_metrics_exposed(serving_world, fresh_store, tmp_path):
    model, items = serving_world
    for svc in _every_shape(model, fresh_store, tmp_path, index="ivf",
                            nlist=4, nprobe=4, max_wait_ms=0.5):
        try:
            svc.top_k(items[0], k=3, use_cache=False)
            svc.top_k(items[1], k=3, use_cache=False)
            text = svc.render_metrics()
            assert "repro_search_candidates_total" in text
            assert "repro_topk_candidates_bucket" in text
            total = next(line for line in text.splitlines()
                         if line.startswith("repro_search_candidates_total"))
            assert float(total.split()[-1]) >= 2 * 3  # scanned >= k a query
        finally:
            svc.close()


def test_stats_reports_search_backend(serving_world, fresh_store, tmp_path):
    model, items = serving_world
    for svc in _every_shape(model, fresh_store, tmp_path, index="ivf",
                            nlist=4, nprobe=2, max_wait_ms=0.5):
        try:
            svc.top_k(items[2], k=3, use_cache=False)
            backend_stats = svc.stats()["store"]["search_backend"]
            assert backend_stats["kind"] == "ivf"
            assert backend_stats["nprobe"] == 2
            assert backend_stats["queries"] >= 1
            assert backend_stats["candidates_scanned"] > 0
        finally:
            svc.close()


def test_mutation_through_service_keeps_ivf_consistent(serving_world,
                                                       fresh_store):
    model, items = serving_world
    svc = SimilarityService(model, fresh_store,
                            ServingConfig(index="ivf", nlist=4, nprobe=4,
                                          max_wait_ms=0.5))
    try:
        new_ids = svc.insert(items[16:18])
        result = svc.top_k(items[16], k=1, use_cache=False)
        assert result.ids == [new_ids[0]]
        assert svc.delete([new_ids[0]]) == 1
        result = svc.top_k(items[16], k=len(fresh_store), use_cache=False)
        assert new_ids[0] not in result.ids
    finally:
        svc.close()
