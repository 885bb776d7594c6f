"""Tests for the incremental EmbeddingStore."""

import numpy as np
import pytest

from repro import NeuTraj, NeuTrajConfig, PortoConfig, generate_porto
from repro.core.store import EmbeddingStore
from repro.exceptions import NotFittedError


@pytest.fixture(scope="module")
def world():
    ds = generate_porto(PortoConfig(num_trajectories=40, min_points=8,
                                    max_points=14), seed=31)
    seeds = list(ds)[:20]
    rest = list(ds)[20:]
    model = NeuTraj(NeuTrajConfig(measure="hausdorff", embedding_dim=8,
                                  epochs=2, sampling_num=3, batch_anchors=8,
                                  cell_size=500.0, seed=0))
    model.fit(seeds)
    return model, rest


def test_requires_fitted_model():
    with pytest.raises(NotFittedError):
        EmbeddingStore(NeuTraj(NeuTrajConfig()))


def test_add_assigns_sequential_ids(world):
    model, items = world
    store = EmbeddingStore(model)
    first = store.add(items[:5])
    second = store.add(items[5:8])
    assert first == [0, 1, 2, 3, 4]
    assert second == [5, 6, 7]
    assert len(store) == 8


def test_add_empty_is_noop(world):
    model, _ = world
    store = EmbeddingStore(model)
    assert store.add([]) == []
    assert len(store) == 0


def test_query_returns_inserted_item_first(world):
    model, items = world
    store = EmbeddingStore(model)
    ids = store.add(items[:10])
    found, distances = store.query(items[3], k=3)
    assert found[0] == ids[3]
    assert distances[0] == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.diff(distances) >= -1e-12)


def test_query_matches_model_topk(world):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items)
    emb = model.embed(items)
    expected = model.top_k(items[0], emb, 5)
    found, _ = store.query(items[0], k=5)
    np.testing.assert_array_equal(found, expected)


def test_query_empty_store_raises(world):
    model, items = world
    store = EmbeddingStore(model)
    with pytest.raises(NotFittedError):
        store.query(items[0], k=3)


def test_query_clamps_k(world):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:3])
    found, _ = store.query(items[0], k=100)
    assert len(found) == 3


def test_remove(world):
    model, items = world
    store = EmbeddingStore(model)
    ids = store.add(items[:6])
    assert store.remove([ids[1], ids[4], 999]) == 2
    assert len(store) == 4
    found, _ = store.query(items[1], k=10)
    assert ids[1] not in found


def test_ids_continue_after_remove(world):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:3])
    store.remove([0, 1, 2])
    new = store.add(items[3:5])
    assert new == [3, 4]


def test_query_radius(world):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:10])
    ids, distances = store.query_radius(items[2], radius=1e-9)
    assert 2 in ids  # itself
    all_ids, _ = store.query_radius(items[2], radius=1e9)
    assert len(all_ids) == 10


def test_query_radius_rejects_negative(world):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:3])
    with pytest.raises(ValueError):
        store.query_radius(items[0], radius=-1.0)


def test_embeddings_view_readonly(world):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:3])
    with pytest.raises(ValueError):
        store.embeddings[0, 0] = 5.0


def test_save_load_roundtrip(world, tmp_path):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:7])
    store.remove([2])
    path = tmp_path / "store.npz"
    store.save(path)
    loaded = EmbeddingStore.load(path, model)
    assert len(loaded) == 6
    assert loaded.ids == store.ids
    found_a, _ = store.query(items[0], k=4)
    found_b, _ = loaded.query(items[0], k=4)
    np.testing.assert_array_equal(found_a, found_b)
    # New inserts continue from the persisted id counter.
    assert loaded.add(items[7:8]) == [7]


def test_save_load_roundtrips_id_state_exactly(world, tmp_path):
    """_next_id/_ids survive save/load bit-for-bit, even after removals."""
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:5])
    store.remove([0, 4])          # holes at both ends
    path = tmp_path / "store.npz"
    store.save(path)
    loaded = EmbeddingStore.load(path, model)
    assert loaded.ids == [1, 2, 3]
    assert loaded.next_id == 5
    # Insert-after-load continues the counter; ids are never reused.
    assert loaded.add(items[5:7]) == [5, 6]
    assert len(set(loaded.ids)) == len(loaded.ids)


def test_save_load_roundtrip_empty_store(world, tmp_path):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:2])
    store.remove([0, 1])
    path = tmp_path / "store.npz"
    store.save(path)
    loaded = EmbeddingStore.load(path, model)
    assert len(loaded) == 0
    assert loaded.next_id == 2    # counter survives an empty table
    assert loaded.add(items[2:3]) == [2]


def test_save_lands_at_exact_path(world, tmp_path):
    """Paths without a .npz suffix are honoured (np.savez would append)."""
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:2])
    path = tmp_path / "store.bin"
    store.save(path)
    assert path.exists()
    assert not path.with_suffix(".bin.npz").exists()
    loaded = EmbeddingStore.load(path, model)
    assert loaded.ids == store.ids


def test_load_legacy_file_never_reuses_ids(world, tmp_path):
    """Files without next_id (or with a stale one) floor the counter."""
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:4])
    legacy = tmp_path / "legacy.npz"
    np.savez_compressed(legacy, embeddings=store.embeddings,
                        ids=np.array(store.ids, dtype=np.int64))
    loaded = EmbeddingStore.load(legacy, model)
    assert loaded.next_id == 4
    assert loaded.add(items[4:5]) == [4]
    stale = tmp_path / "stale.npz"
    np.savez_compressed(stale, embeddings=store.embeddings,
                        ids=np.array(store.ids, dtype=np.int64),
                        next_id=np.array(1))  # lies: ids 0..3 are live
    loaded = EmbeddingStore.load(stale, model)
    assert loaded.next_id == 4


def test_load_rejects_corrupt_id_state(world, tmp_path):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:3])
    dupes = tmp_path / "dupes.npz"
    np.savez_compressed(dupes, embeddings=store.embeddings,
                        ids=np.array([0, 1, 1], dtype=np.int64),
                        next_id=np.array(3))
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingStore.load(dupes, model)
    short = tmp_path / "short.npz"
    np.savez_compressed(short, embeddings=store.embeddings,
                        ids=np.array([0, 1], dtype=np.int64),
                        next_id=np.array(3))
    with pytest.raises(ValueError, match="mismatch"):
        EmbeddingStore.load(short, model)


def test_query_embedding_matches_query(world):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:10])
    emb = model.embed([items[2]])[0]
    ids_a, dist_a = store.query(items[2], k=4)
    ids_b, dist_b = store.query_embedding(emb, k=4)
    np.testing.assert_array_equal(ids_a, ids_b)
    np.testing.assert_allclose(dist_a, dist_b, atol=1e-12)
    ids_c, _ = store.top_k(items[2], k=4)
    np.testing.assert_array_equal(ids_a, ids_c)


@pytest.mark.parametrize("bad_k", [0, -1, -100])
def test_query_rejects_non_positive_k(world, bad_k):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:3])
    emb = model.embed([items[0]])[0]
    with pytest.raises(ValueError, match="k"):
        store.query(items[0], k=bad_k)
    with pytest.raises(ValueError, match="k"):
        store.query_embedding(emb, k=bad_k)
    with pytest.raises(ValueError, match="k"):
        store.top_k(items[0], k=bad_k)


@pytest.mark.parametrize("bad_k", [1.5, "3", None, True])
def test_query_rejects_non_integer_k(world, bad_k):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:3])
    with pytest.raises(ValueError, match="k"):
        store.query(items[0], k=bad_k)


def test_query_accepts_numpy_integer_k(world):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:5])
    found, _ = store.query(items[0], k=np.int64(3))
    assert len(found) == 3


def test_k_validated_before_empty_store_check(world):
    """A bad k is a caller bug even when the store is empty."""
    model, items = world
    store = EmbeddingStore(model)
    with pytest.raises(ValueError, match="k"):
        store.query(items[0], k=0)


def test_internal_ids_are_int64_ndarray(world):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:4])
    assert isinstance(store._ids, np.ndarray)
    assert store._ids.dtype == np.int64
    store.remove([1, 2])
    assert store._ids.dtype == np.int64
    assert store.ids == [0, 3]         # public API stays a python list
    ids, _ = store.query(items[0], k=2)
    assert ids.dtype == np.int64


def test_query_embedding_rejects_bad_shape(world):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:3])
    with pytest.raises(ValueError, match="shape"):
        store.query_embedding(np.zeros(3), k=2)


def test_load_rejects_dim_mismatch(world, tmp_path):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:2])
    path = tmp_path / "store.npz"
    store.save(path)
    other = NeuTraj(NeuTrajConfig(measure="hausdorff", embedding_dim=4,
                                  epochs=1, sampling_num=3, batch_anchors=8,
                                  cell_size=500.0, seed=0))
    other.fit(items[:10])
    with pytest.raises(ValueError):
        EmbeddingStore.load(path, other)


# ------------------------------------------------- corruption injection (PR 3)

@pytest.mark.faults
@pytest.mark.parametrize("mode", ["flip", "truncate", "zero"])
def test_load_rejects_byte_corruption_with_typed_error(world, tmp_path, mode):
    """Any byte-level damage to the saved npz must surface as
    CorruptArtifactError (which is also a ValueError for old call sites),
    never as a half-loaded store or a raw numpy internal error."""
    from repro.exceptions import CorruptArtifactError
    from repro.testing import CorruptionSpec

    model, rest = world
    store = EmbeddingStore(model)
    store.add(rest[:6])
    path = tmp_path / "store.npz"
    store.save(path)
    CorruptionSpec(mode=mode, length=24).apply(path)
    with pytest.raises(CorruptArtifactError):
        EmbeddingStore.load(path, model)
    with pytest.raises(ValueError):  # backwards-compatible contract
        EmbeddingStore.load(path, model)


@pytest.mark.faults
def test_load_missing_file_is_not_corruption(world, tmp_path):
    model, _ = world
    with pytest.raises(FileNotFoundError):
        EmbeddingStore.load(tmp_path / "nope.npz", model)


# --------------------------------------------------- model-less (search-only)


def test_modelless_store_requires_dim():
    with pytest.raises(ValueError):
        EmbeddingStore(None)


def test_modelless_store_add_embeddings_and_query_embedding():
    rng = np.random.default_rng(3)
    store = EmbeddingStore(None, dim=8)
    emb = rng.standard_normal((6, 8)).astype(np.float32)
    assigned = store.add_embeddings(emb)
    assert assigned == [0, 1, 2, 3, 4, 5]
    ids, dist = store.query_embedding(emb[2], k=1)
    assert int(ids[0]) == 2
    assert dist[0] == pytest.approx(0.0, abs=1e-6)


def test_modelless_store_explicit_ids_and_next_id():
    rng = np.random.default_rng(3)
    store = EmbeddingStore(None, dim=4)
    store.add_embeddings(rng.standard_normal((2, 4)), ids=[10, 40])
    assert store.next_id == 41
    auto = store.add_embeddings(rng.standard_normal((1, 4)))
    assert auto == [41]


def test_modelless_store_rejects_trajectory_entry_points(world):
    _, items = world
    store = EmbeddingStore(None, dim=8)
    store.add_embeddings(np.zeros((1, 8)))
    with pytest.raises(NotFittedError):
        store.add(items[:1])
    with pytest.raises(NotFittedError):
        store.query(items[0], k=1)


def test_add_embeddings_validation():
    store = EmbeddingStore(None, dim=4)
    with pytest.raises(ValueError):  # wrong dim
        store.add_embeddings(np.zeros((2, 5)))
    with pytest.raises(ValueError):  # not 2-D
        store.add_embeddings(np.zeros(4))
    store.add_embeddings(np.zeros((1, 4)), ids=[7])
    with pytest.raises(ValueError):  # id already present
        store.add_embeddings(np.ones((1, 4)), ids=[7])
    with pytest.raises(ValueError):  # duplicate within batch
        store.add_embeddings(np.ones((2, 4)), ids=[8, 8])
    with pytest.raises(ValueError):  # negative id
        store.add_embeddings(np.ones((1, 4)), ids=[-2])


def test_dim_conflicts_with_model(world):
    model, _ = world
    with pytest.raises(ValueError):
        EmbeddingStore(model, dim=99)


def test_modelless_load_roundtrip(world, tmp_path):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:5])
    store.save(tmp_path / "s.npz")
    reloaded = EmbeddingStore.load(tmp_path / "s.npz", None)
    assert reloaded.model is None
    assert len(reloaded) == 5
    ids, _ = reloaded.query_embedding(store.embeddings[3], k=1)
    assert int(ids[0]) == 3


# ---------------------------------------------------------------- layout

BACKENDS = [{"backend": "exact"},
            {"backend": "ivf", "nlist": 4, "nprobe": 4}]


def snapshot(store):
    return store.ids, store.embeddings.tobytes(), store.next_id


@pytest.mark.parametrize("kwargs", BACKENDS, ids=["exact", "ivf"])
def test_rejected_upsert_changes_nothing(kwargs):
    """Validate first, mutate second: the parent dropped the rows it was
    replacing before the insert was checked, so an error deleted data."""
    rng = np.random.default_rng(3)
    store = EmbeddingStore(None, dim=4, **kwargs)
    store.add_embeddings(rng.normal(size=(12, 4)), ids=list(range(1, 13)))
    before = snapshot(store)
    query = store.embeddings[2]
    answer = [a.tolist() for a in store.query_embedding(query, 3)]
    with pytest.raises(ValueError, match="duplicate ids"):
        store.upsert_embeddings(np.zeros((2, 4)), ids=[3, 3])
    with pytest.raises(ValueError, match="shape"):       # wrong width
        store.upsert_embeddings(np.zeros((1, 5)), ids=[3])
    with pytest.raises(ValueError, match="non-negative"):
        store.upsert_embeddings(np.zeros((2, 4)), ids=[3, -1])
    with pytest.raises(ValueError, match="ids"):          # one id short
        store.upsert_embeddings(np.zeros((2, 4)), ids=[3])
    assert snapshot(store) == before
    assert store.contains([3]).all()
    assert [a.tolist() for a in store.query_embedding(query, 3)] == answer
    assert store.search_stats().get("live", len(store)) == len(store)


class _NoTableSweep:
    """``numpy`` for ``repro.core.store``, minus every call whose cost
    grows with the table: a single-row mutation must not reach one."""

    BANNED = {"concatenate", "isin", "in1d", "argsort", "sort_complex",
              "flatnonzero", "nonzero", "take", "empty", "zeros", "copy"}

    def __getattr__(self, name):
        if name in self.BANNED:
            raise AssertionError(f"O(N) call np.{name} on the mutation path")
        return getattr(np, name)


def test_single_row_mutations_do_not_sweep_the_table(monkeypatch):
    """Counts, not times: ids spread over 0..10**7 are where ``np.isin``
    left its table method and one insert cost 68 ms on the parent."""
    rng = np.random.default_rng(9)
    count, dim = 50_000, 8
    ids = 2 * np.sort(rng.choice(5 * 10 ** 6, size=count, replace=False))
    store = EmbeddingStore(None, dim=dim)
    store.add_embeddings(rng.normal(size=(count, dim)), ids=ids.tolist())
    store.add_embeddings(rng.normal(size=(1, dim)))      # one growth step
    table, slots = store._table, store._slots
    monkeypatch.setattr("repro.core.store.np", _NoTableSweep())
    victims = rng.choice(ids, size=40, replace=False)
    for step, victim in enumerate(victims.tolist()):
        row = rng.normal(size=(1, dim))
        added = store.add_embeddings(row)[0]
        assert store.remove([victim]) == 1
        assert store.remove([victim]) == 0
        store.upsert_embeddings(row + 1.0, ids=[added])           # replace
        store.upsert_embeddings(row, ids=[2 * step + 1])          # insert
        assert store.contains([victim, added]).tolist() == [False, True]
    monkeypatch.undo()
    assert store._table is table and store._slots is slots
    assert np.shares_memory(store._table, table)
    assert len(store) == count + 1 + len(victims)
    survivors = np.setdiff1d(ids, victims)
    assert store.ids[:survivors.size] == survivors.tolist()  # order kept


def test_views_handed_out_survive_later_mutations():
    store = EmbeddingStore(None, dim=2)
    store.add_embeddings(np.arange(12.0).reshape(6, 2))
    view = store.embeddings
    frozen = view.copy()
    store.remove([1, 4])
    store.add_embeddings(np.full((40, 2), -1.0))     # forces a repack
    store.upsert_embeddings(np.full((1, 2), 7.0), ids=[0])
    assert np.array_equal(view, frozen)
    assert store.ids[:3] == [2, 3, 5] and store.ids[-1] == 0


def test_load_rejects_negative_ids(tmp_path):
    path = tmp_path / "negative.npz"
    np.savez_compressed(path, embeddings=np.zeros((2, 3)),
                        ids=np.array([0, -1], dtype=np.int64),
                        next_id=np.array(2))
    with pytest.raises(ValueError, match="negative"):
        EmbeddingStore.load(path, None)
