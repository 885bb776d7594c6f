"""Tests for the IVF ANN index (repro.index.ann)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, CorruptArtifactError
from repro.index.ann import IVFConfig, IVFIndex, auto_nlist, kmeans


def make_vectors(count=2000, dim=8, clusters=24, spread=0.4, seed=5):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, dim)).astype(np.float32)
    assign = rng.integers(0, clusters, size=count)
    noise = (spread * rng.standard_normal(size=(count, dim))
             ).astype(np.float32)
    return centers[assign] + noise


def exact_topk(ids, vectors, query, k):
    diffs = vectors - query[None, :]
    sq = (diffs * diffs).sum(axis=1)
    order = np.argsort(sq, kind="stable")[:k]
    return ids[order]


@pytest.fixture(scope="module")
def fixture_index():
    vectors = make_vectors()
    ids = np.arange(vectors.shape[0], dtype=np.int64) * 2 + 1
    index = IVFIndex.build(ids, vectors,
                           IVFConfig(nlist=32, nprobe=8, quantize=True,
                                     seed=0))
    return index, ids, vectors


# ----------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ConfigurationError):
        IVFConfig(nlist=-1)
    with pytest.raises(ConfigurationError):
        IVFConfig(nprobe=0)
    with pytest.raises(ConfigurationError):
        IVFConfig(rerank=0)
    with pytest.raises(ConfigurationError):
        IVFConfig(kmeans_iters=0)


def test_auto_nlist_scales_like_sqrt():
    assert auto_nlist(0) == 1
    assert auto_nlist(100) == 10
    assert auto_nlist(1_000_000) == 1000
    assert auto_nlist(10**9) == 4096  # clipped


# ----------------------------------------------------------------- kmeans

def test_kmeans_deterministic_and_shaped():
    vectors = make_vectors(count=500, dim=4)
    a = kmeans(vectors, 10, np.random.default_rng(3), iters=5)
    b = kmeans(vectors, 10, np.random.default_rng(3), iters=5)
    assert a.shape == (10, 4)
    assert a.dtype == np.float32
    np.testing.assert_array_equal(a, b)


def test_kmeans_clamps_k_to_population():
    vectors = make_vectors(count=6, dim=4)
    centroids = kmeans(vectors, 50, np.random.default_rng(0))
    assert centroids.shape[0] == 6


def test_kmeans_rejects_empty():
    with pytest.raises(ValueError):
        kmeans(np.zeros((0, 4), dtype=np.float32), 4,
               np.random.default_rng(0))


# ------------------------------------------------------------------ build

def test_build_validates_ids():
    vectors = make_vectors(count=10)
    with pytest.raises(ValueError):
        IVFIndex.build(np.arange(9, dtype=np.int64), vectors)
    with pytest.raises(ValueError):
        IVFIndex.build(np.zeros(10, dtype=np.int64), vectors)  # duplicates


def test_build_empty_is_untrained():
    index = IVFIndex.build(np.zeros(0, dtype=np.int64),
                           np.zeros((0, 8), dtype=np.float32))
    assert not index.is_trained
    ids, dist = index.search(np.zeros(8, dtype=np.float32), 5)
    assert ids.size == 0 and dist.size == 0


def test_cells_partition_every_row(fixture_index):
    index, ids, _ = fixture_index
    assert index.nlist == 32
    assert index.ntotal == ids.size
    stats = index.stats()
    assert stats["cell_min"] >= 0
    assert stats["cell_max"] <= ids.size
    # bounds cover exactly the id array
    assert index._bounds[0] == 0 and index._bounds[-1] == ids.size


# ----------------------------------------------------------------- search

def test_search_validates_inputs(fixture_index):
    index, _, vectors = fixture_index
    with pytest.raises(ValueError):
        index.search(vectors[0], 0)
    with pytest.raises(ValueError):
        index.search(np.zeros(3, dtype=np.float32), 5)


def test_search_self_query_hits_itself(fixture_index):
    index, ids, vectors = fixture_index
    got, dist = index.search(vectors[7], 5)
    assert got[0] == ids[7]
    assert dist[0] == pytest.approx(0.0, abs=1e-5)
    assert np.all(np.diff(dist) >= -1e-12)


def test_recall_at_10_beats_095(fixture_index):
    """The satellite acceptance fixture: recall@10 >= 0.95."""
    index, ids, vectors = fixture_index
    rng = np.random.default_rng(9)
    pick = rng.choice(vectors.shape[0], size=50, replace=False)
    queries = vectors[pick] + 0.1 * rng.standard_normal(
        size=(50, vectors.shape[1])).astype(np.float32)
    hits = 0
    for query in queries:
        got, _ = index.search(query, 10)
        truth = exact_topk(ids, vectors, query, 10)
        hits += len(set(got.tolist()) & set(truth.tolist()))
    assert hits / 500 >= 0.95


def test_search_scans_a_fraction(fixture_index):
    index, ids, vectors = fixture_index
    before = index.stats()["candidates_scanned"]
    index.search(vectors[0], 10)
    scanned = index.stats()["candidates_scanned"] - before
    assert 0 < scanned < ids.size  # strictly sub-linear probe


def test_quantize_off_matches_exact_on_probed_cells():
    vectors = make_vectors(count=400, dim=8)
    ids = np.arange(400, dtype=np.int64)
    index = IVFIndex.build(ids, vectors,
                           IVFConfig(nlist=4, nprobe=4, quantize=False,
                                     seed=0))
    # nprobe == nlist: every cell probed, so answers are exact.
    for row in (0, 13, 77):
        got, _ = index.search(vectors[row], 10)
        np.testing.assert_array_equal(
            got, exact_topk(ids, vectors, vectors[row], 10))


def test_nprobe_equals_nlist_is_exhaustive(fixture_index):
    index, ids, vectors = fixture_index
    got, _ = index.search(vectors[3], 10, nprobe=index.nlist)
    truth = exact_topk(ids, vectors, vectors[3], 10)
    # int8 rerank repairs ranking; exhaustive probe must recall all.
    assert set(got.tolist()) == set(truth.tolist())


def test_search_radius(fixture_index):
    index, ids, vectors = fixture_index
    got, dist = index.search_radius(vectors[11], 0.5)
    assert ids[11] in got.tolist()
    assert np.all(dist <= 0.5)
    assert np.all(np.diff(dist) >= -1e-12)
    with pytest.raises(ValueError):
        index.search_radius(vectors[0], -1.0)


# --------------------------------------------------------------- mutation

def test_add_remove_compact_roundtrip():
    vectors = make_vectors(count=300, dim=8)
    ids = np.arange(300, dtype=np.int64)
    index = IVFIndex.build(ids, vectors,
                           IVFConfig(nlist=8, nprobe=8, quantize=True,
                                     seed=0))
    extra = vectors[:3] + np.float32(0.01)
    index.add(np.array([1000, 1001, 1002], dtype=np.int64), extra)
    assert index.ntotal == 303 and index.pending_count == 3
    got, _ = index.search(extra[0], 3)
    assert 1000 in got.tolist()

    assert index.remove([1000, 5, 5, 99999]) == 2  # dupes/missing ignored
    assert index.live_count == 301
    got, _ = index.search(extra[0], 10)
    assert 1000 not in got.tolist()
    got, _ = index.search(vectors[5], 10)
    assert 5 not in got.tolist()

    before_ids, before_dist = index.search(vectors[42], 10)
    index.compact()
    assert index.pending_count == 0
    assert index.stats()["tombstones"] == 0
    assert index.live_count == 301
    after_ids, after_dist = index.search(vectors[42], 10)
    np.testing.assert_array_equal(before_ids, after_ids)
    np.testing.assert_allclose(before_dist, after_dist, atol=1e-5)


def test_search_sees_every_add_and_remove():
    """The stacked pending block of a cell is kept between searches and
    must be dropped the moment that cell changes."""
    vectors = make_vectors(count=300, dim=8)
    index = IVFIndex.build(np.arange(300, dtype=np.int64), vectors,
                           IVFConfig(nlist=8, nprobe=8, quantize=False,
                                     seed=0))
    spot = vectors[7] + np.float32(0.5)
    near = [spot + np.float32(0.001 * step) for step in range(1, 5)]

    def top():
        return index.search(spot, 3)[0].tolist()

    index.add(np.array([900], dtype=np.int64), near[0][None, :])
    assert top()[0] == 900                     # block built by this search
    index.add(np.array([901, 902], dtype=np.int64), np.stack(near[1:3]))
    assert top() == [900, 901, 902]            # ... and rebuilt after an add
    assert index.remove([901]) == 1
    assert top()[:2] == [900, 902]
    assert index.remove([900, 902, 7]) == 3    # two pending rows, one base
    assert not {900, 901, 902, 7} & set(top())
    assert index.stats()["pending"] == 0 and index.stats()["tombstones"] == 1
    index.add(np.array([900], dtype=np.int64), near[3][None, :])
    assert top()[0] == 900
    index.compact()
    assert top()[0] == 900 and 7 not in top()


def test_readding_a_removed_base_row_does_not_revive_it():
    """Upsert of a compacted row: the parent un-tombstoned the id on
    ``add``, so the stale base row answered beside the new one."""
    vectors = make_vectors(count=300, dim=8)
    index = IVFIndex.build(np.arange(300, dtype=np.int64), vectors,
                           IVFConfig(nlist=8, nprobe=8, quantize=False,
                                     seed=0))
    moved = vectors[5] + np.float32(25.0)
    assert index.remove([5]) == 1
    index.add(np.array([5], dtype=np.int64), moved[None, :])
    assert index.live_count == 300
    assert 5 not in index.search(vectors[5], 10)[0].tolist()
    assert index.search(moved, 1)[0].tolist() == [5]
    index.compact()
    assert index.live_count == 300
    assert sorted(index._materialise_live()[0].tolist()) == list(range(300))
    assert 5 not in index.search(vectors[5], 10)[0].tolist()


def test_add_to_untrained_raises():
    index = IVFIndex(8)
    with pytest.raises(ConfigurationError):
        index.add(np.array([1], dtype=np.int64),
                  np.zeros((1, 8), dtype=np.float32))


# ------------------------------------------------------------ persistence

def test_save_load_mmap_roundtrip(tmp_path, fixture_index):
    index, ids, vectors = fixture_index
    path = index.save(tmp_path / "ivf")
    for mmap in (True, False):
        reloaded = IVFIndex.load(path, mmap=mmap)
        assert reloaded.ntotal == index.ntotal
        assert reloaded.config.nprobe == index.config.nprobe
        got_a, dist_a = index.search(vectors[0], 10)
        got_b, dist_b = reloaded.search(vectors[0], 10)
        np.testing.assert_array_equal(got_a, got_b)
        np.testing.assert_allclose(dist_a, dist_b, atol=1e-6)


def test_save_compacts_pending_state(tmp_path):
    vectors = make_vectors(count=100, dim=8)
    ids = np.arange(100, dtype=np.int64)
    index = IVFIndex.build(ids, vectors, IVFConfig(nlist=4, seed=0))
    index.add(np.array([500], dtype=np.int64), vectors[:1] + np.float32(0.02))
    index.remove([7])
    index.save(tmp_path / "ivf")
    reloaded = IVFIndex.load(tmp_path / "ivf")
    assert reloaded.ntotal == 100  # 100 - 1 removed + 1 added
    assert reloaded.pending_count == 0
    got, _ = reloaded.search(vectors[7], 100, nprobe=4)
    assert 7 not in got.tolist()
    assert 500 in got.tolist()


def test_load_rejects_bad_schema(tmp_path, fixture_index):
    index, _, _ = fixture_index
    path = index.save(tmp_path / "ivf")
    manifest = path / "MANIFEST.json"
    manifest.write_text(manifest.read_text().replace(
        "repro.ivf.v1", "repro.ivf.v999"))
    with pytest.raises(CorruptArtifactError):
        IVFIndex.load(path)


def test_mmap_load_survives_restart_and_mutation(tmp_path):
    """Reopen-after-restart: mmap index keeps answering, accepts deltas."""
    vectors = make_vectors(count=500, dim=8)
    ids = np.arange(500, dtype=np.int64)
    IVFIndex.build(ids, vectors,
                   IVFConfig(nlist=8, nprobe=8, seed=0)).save(tmp_path / "i")
    reloaded = IVFIndex.load(tmp_path / "i", mmap=True)
    got, _ = reloaded.search(vectors[17], 5)
    assert got[0] == 17
    # mutation on top of read-only mmap arrays must not write through
    reloaded.add(np.array([900], dtype=np.int64),
                 vectors[17:18] + np.float32(0.001))
    assert reloaded.remove([17]) == 1
    got, _ = reloaded.search(vectors[17], 5)
    assert 17 not in got.tolist() and 900 in got.tolist()
    reloaded.compact()  # detaches from the mmap backing
    got, _ = reloaded.search(vectors[17], 5)
    assert 900 in got.tolist()
    # the on-disk file is untouched: a second load still sees row 17
    fresh = IVFIndex.load(tmp_path / "i", mmap=True)
    got, _ = fresh.search(vectors[17], 5)
    assert got[0] == 17
