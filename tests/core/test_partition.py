"""Tests for consistent-hash partitioning (repro.core.partition)."""

import json

import numpy as np
import pytest

from repro.core.partition import (HashRing, load_partition,
                                  load_partition_manifest,
                                  partition_file_name, save_partitions)
from repro.exceptions import CorruptArtifactError

# ---------------------------------------------------------------- hash ring


def test_ring_validation():
    with pytest.raises(ValueError):
        HashRing(0)
    with pytest.raises(ValueError):
        HashRing(2, vnodes=0)
    with pytest.raises(ValueError):
        HashRing(2.5)  # type: ignore[arg-type]


def test_ring_deterministic_across_instances():
    ids = np.arange(5000)
    a = HashRing(4).shard_for(ids)
    b = HashRing(4).shard_for(ids)
    np.testing.assert_array_equal(a, b)


def test_ring_scalar_in_scalar_out():
    ring = HashRing(3)
    owner = ring.shard_for(7)
    assert isinstance(owner, int)
    assert owner == ring.shard_for(np.array([7]))[0]


def test_ring_rejects_negative_ids():
    with pytest.raises(ValueError):
        HashRing(2).shard_for([-1, 3])


def test_ring_sequential_small_ids_are_spread():
    # Regression: ring-point hash inputs once coincided with small
    # sequential ids, pinning every id < vnodes onto shard 0.
    for num_shards in (2, 3, 4):
        spread = HashRing(num_shards).spread(np.arange(64))
        assert max(spread) < 64, spread
        assert sum(spread) == 64


def test_ring_balance_at_scale():
    ids = np.arange(100_000)
    for num_shards in (2, 4, 8):
        spread = HashRing(num_shards).spread(ids)
        expected = len(ids) / num_shards
        assert sum(spread) == len(ids)
        # Consistent hashing with 64 vnodes keeps shards within ~2x of
        # the mean; catastrophic skew (one shard owning ~everything)
        # is what this guards against.
        assert min(spread) > expected / 2
        assert max(spread) < expected * 2


def test_ring_minimal_movement_on_shard_add():
    ids = np.arange(50_000)
    before = HashRing(3).shard_for(ids)
    after = HashRing(4).shard_for(ids)
    moved = before != after
    # Every relocated id lands on the NEW shard; survivors keep their
    # placement. This is the property that makes resharding cheap.
    assert np.all(after[moved] == 3)
    assert 0 < moved.sum() < len(ids) / 2


def test_ring_partition_covers_all_rows_once():
    ring = HashRing(5)
    ids = np.arange(777)
    rows = ring.partition(ids)
    assert len(rows) == 5
    combined = np.sort(np.concatenate(rows))
    np.testing.assert_array_equal(combined, np.arange(777))


# ---------------------------------------------------------- save / load


@pytest.fixture
def world(tmp_path):
    rng = np.random.default_rng(7)
    ids = np.arange(200, dtype=np.int64)
    embeddings = rng.standard_normal((200, 8)).astype(np.float32)
    manifest = save_partitions(tmp_path, ids, embeddings, num_shards=3,
                               metadata={"origin": "tests"})
    return tmp_path, ids, embeddings, manifest


def test_save_partitions_manifest(world):
    path, ids, embeddings, manifest = world
    assert manifest["schema"] == "repro.partitions.v1"
    assert manifest["num_shards"] == 3
    assert manifest["embedding_dim"] == 8
    assert manifest["total_count"] == 200
    assert manifest["next_id"] == 200
    assert sum(e["count"] for e in manifest["shards"]) == 200
    assert manifest["user_metadata"] == {"origin": "tests"}
    reread = load_partition_manifest(path)
    assert reread["num_shards"] == manifest["num_shards"]


def test_round_trip_reassembles_store(world):
    path, ids, embeddings, manifest = world
    ring = HashRing(3, vnodes=manifest["vnodes"])
    seen_ids, seen_rows = [], []
    for shard_id in range(3):
        store = load_partition(path, shard_id)
        assert len(store) == manifest["shards"][shard_id]["count"]
        # every row in this shard is owned by this shard
        np.testing.assert_array_equal(
            ring.shard_for(np.asarray(store.ids)), shard_id)
        assert store.next_id == 200
        seen_ids.append(np.asarray(store.ids))
        seen_rows.append(store.embeddings)
    all_ids = np.concatenate(seen_ids)
    order = np.argsort(all_ids)
    np.testing.assert_array_equal(all_ids[order], ids)
    np.testing.assert_allclose(
        np.concatenate(seen_rows)[order], embeddings, atol=0)


def test_save_partitions_validation(tmp_path):
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((4, 3))
    with pytest.raises(ValueError):  # mismatched lengths
        save_partitions(tmp_path, np.arange(3), emb, num_shards=2)
    with pytest.raises(ValueError):  # duplicate ids
        save_partitions(tmp_path, np.array([0, 1, 1, 2]), emb, num_shards=2)


def test_explicit_next_id_is_floored_at_max_id(tmp_path):
    rng = np.random.default_rng(0)
    manifest = save_partitions(tmp_path, np.array([5, 9]),
                               rng.standard_normal((2, 4)),
                               num_shards=2, next_id=3)
    assert manifest["next_id"] == 10


def test_load_partition_rejects_bad_shard_id(world):
    path = world[0]
    with pytest.raises(ValueError):
        load_partition(path, 3)
    with pytest.raises(ValueError):
        load_partition(path, -1)


def test_load_partition_missing_file(world):
    path = world[0]
    (path / partition_file_name(2)).unlink()
    with pytest.raises(CorruptArtifactError):
        load_partition(path, 2)


def test_manifest_schema_checks(tmp_path):
    with pytest.raises(CorruptArtifactError):  # no manifest at all
        load_partition_manifest(tmp_path)
    bad = {"schema": "something.else.v9", "num_shards": 1, "shards": []}
    (tmp_path / "PARTITIONS.json").write_text(json.dumps(bad))
    with pytest.raises(CorruptArtifactError):
        load_partition_manifest(tmp_path)
