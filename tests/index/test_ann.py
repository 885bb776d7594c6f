"""Tests for the IVF ANN index (repro.index.ann)."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atomicio import file_entry
from repro.exceptions import ConfigurationError, CorruptArtifactError
from repro.index import ann
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
                           IVFConfig(nlist=32, nprobe=8, seed=0))
    return index, ids, vectors


# ----------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ConfigurationError):
        IVFConfig(nlist=-1)
    with pytest.raises(ConfigurationError):
        IVFConfig(nprobe=0)


@pytest.mark.parametrize("removed", ["quantize", "rerank", "train_sample",
                                     "kmeans_iters"])
def test_config_holds_only_what_a_deployment_sets(removed):
    with pytest.raises(TypeError):
        IVFConfig(**{removed: 1})


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


# ------------------------------------- bit identity with the scatter-add form

# The k-means and assignment kernels as they were before the GEMM blocks
# and the sorted per-cell sums, frozen: one GEMM per 16 384-row chunk, the
# product scaled by -2 afterwards, centroid sums by ``np.add.at``. The
# current kernels must reproduce them bit for bit.


def _frozen_chunked_assign(vectors, centroids):
    cent_sq = (centroids * centroids).sum(axis=1)
    out = np.empty(vectors.shape[0], dtype=np.int64)
    for start in range(0, vectors.shape[0], 16384):
        chunk = vectors[start:start + 16384]
        scores = chunk @ centroids.T
        scores *= -2.0
        scores += cent_sq[None, :]
        out[start:start + 16384] = np.argmin(scores, axis=1)
    return out


def _frozen_kmeans(vectors, k, rng, iters=10):
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    n = vectors.shape[0]
    k = min(k, n)
    centroids = vectors[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(iters):
        assign = _frozen_chunked_assign(vectors, centroids)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, vectors)
        live = counts > 0
        centroids[live] = sums[live] / counts[live, None]
        dead = np.flatnonzero(~live)
        if dead.size:
            centroids[dead] = vectors[rng.choice(n, size=dead.size,
                                                 replace=False)]
    return centroids


@pytest.fixture(scope="module")
def wide_vectors():
    """79 940 clustered 32-d rows: the widths a shard's index works at."""
    return make_vectors(count=79_940, dim=32, clusters=300, seed=11)


@pytest.fixture(scope="module")
def near_ties():
    """Centroids in pairs one ulp apart in every coordinate, and rows
    whose nearest centroid changes when the row is scored in a GEMM of
    its own instead of one of thousands of rows: each such row changes
    its assignment if it moves to another GEMM row-count class."""
    pool = make_vectors(count=4096, dim=32, clusters=300, seed=13)
    base = pool[::29][:141]
    centroids = np.concatenate([base, np.nextafter(base, np.float32(1e9))])
    together = _frozen_chunked_assign(pool, centroids)
    alone = np.concatenate([_frozen_chunked_assign(row[None, :], centroids)
                            for row in pool])
    flipping = pool[alone != together]
    # A BLAS whose products do not depend on the row count has none.
    rows = flipping if flipping.size else pool
    return centroids, np.resize(rows, (79_940, pool.shape[1]))


@pytest.mark.parametrize("count", [1, 2, 3, 2047, 2049, 2050, 16385, 16386,
                                   16387, 18433, 79940])
def test_assignment_matches_frozen_kernel_bit_for_bit(near_ties, count):
    centroids, rows = near_ties
    vectors = rows[:count]
    got = ann._chunked_assign(vectors, centroids)
    want = _frozen_chunked_assign(vectors, centroids)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def _build_arrays(ids, vectors, config):
    index = IVFIndex.build(ids, vectors, config)
    return {name: np.asarray(array) for name, array in index._array_plan()}


@pytest.mark.parametrize("nlist,count", [(0, 20_000), (64, 20_000),
                                         (4096, 4_500)])
def test_build_matches_frozen_kernels_bit_for_bit(wide_vectors, monkeypatch,
                                                  nlist, count):
    vectors = wide_vectors[:count]
    ids = np.arange(count, dtype=np.int64) * 3 + 1
    monkeypatch.setattr(ann, "_TRAIN_SAMPLE", 16_000)
    config = IVFConfig(nlist=nlist, seed=4)
    got = _build_arrays(ids, vectors, config)
    monkeypatch.setattr(ann, "kmeans", _frozen_kmeans)
    monkeypatch.setattr(ann, "_chunked_assign", _frozen_chunked_assign)
    want = _build_arrays(ids, vectors, config)
    assert sorted(got) == ["bounds", "centroids", "ids", "vectors"]
    assert got["centroids"].shape[0] == (nlist or auto_nlist(count))
    for name, array in want.items():
        assert got[name].dtype == array.dtype, name
        assert got[name].tobytes() == array.tobytes(), name


def test_kmeans_reseeding_empty_cells_matches_frozen_kernel():
    # 8 distinct points for 12 cells: every iteration leaves >= 4 cells
    # empty and reseeds them from the data.
    points = make_vectors(count=8, dim=32, seed=2)
    vectors = np.repeat(points, 50, axis=0)
    vectors[:, 3] = -0.0  # a zero sum keeps the sign a scatter-add gives it
    got = kmeans(vectors, 12, np.random.default_rng(9), iters=4)
    want = _frozen_kmeans(vectors, 12, np.random.default_rng(9), iters=4)
    assert got.tobytes() == want.tobytes()


def test_kmeans_scratch_memory_stays_bounded():
    vectors = make_vectors(count=65_536, dim=32, clusters=300, seed=12)
    tracemalloc.start()
    try:
        kmeans(vectors, 283, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One (16 384 × 283) float32 score matrix alone is 17.7 MiB.
    assert peak < 12 * 2**20, f"k-means peak {peak / 2**20:.1f} MiB"


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


def test_exhaustive_probe_matches_exact_topk():
    vectors = make_vectors(count=400, dim=8)
    ids = np.arange(400, dtype=np.int64)
    index = IVFIndex.build(ids, vectors,
                           IVFConfig(nlist=4, nprobe=4, seed=0))
    # nprobe == nlist: every cell probed, so answers are exact.
    for row in (0, 13, 77):
        got, _ = index.search(vectors[row], 10)
        np.testing.assert_array_equal(
            got, exact_topk(ids, vectors, vectors[row], 10))


@st.composite
def mutated_indexes(draw):
    """A small IVF index after a drawn history, and its live rows.

    Values sit on a half-integer grid, so duplicate rows and tied
    distances are common. The history tombstones base rows, adds new
    rows, re-adds removed base ids with new vectors, removes some
    pending rows again, and may compact.
    """
    grid = st.integers(-3, 3).map(lambda v: v / 2)
    dim = draw(st.integers(1, 4))
    rows = st.lists(grid, min_size=dim, max_size=dim)
    base = draw(st.lists(rows, min_size=1, max_size=50))
    ids = draw(st.permutations(range(len(base))))
    nlist = draw(st.integers(1, min(len(base), 6)))
    index = IVFIndex.build(
        np.array(ids, dtype=np.int64), np.array(base, dtype=np.float32),
        IVFConfig(nlist=nlist, nprobe=draw(st.integers(1, nlist + 1)),
                  seed=draw(st.integers(0, 3))))
    live = {row_id: np.array(row, dtype=np.float32)
            for row_id, row in zip(ids, base)}
    removed = draw(st.lists(st.sampled_from(ids), unique=True))
    index.remove(removed)
    for row_id in removed:
        del live[row_id]
    readded = draw(st.lists(st.sampled_from(removed), unique=True)
                   if removed else st.just([]))
    fresh = list(range(len(base), len(base) + draw(st.integers(0, 10))))
    added = readded + fresh
    if added:
        vectors = np.array([draw(rows) for _ in added], dtype=np.float32)
        index.add(np.array(added, dtype=np.int64), vectors)
        live.update(zip(added, vectors))
        dropped = draw(st.lists(st.sampled_from(added), unique=True))
        index.remove(dropped)
        for row_id in dropped:
            del live[row_id]
    if draw(st.booleans()):
        index.compact()
    queries = draw(st.lists(rows, min_size=1, max_size=3))
    return index, live, np.array(queries, dtype=np.float32)


def _probed_live_rows(index, live, query):
    """``(ids, float32 squared distances)`` by brute force over the live
    rows whose cell is one of the query's probed cells."""
    ids, vectors, cells = index._materialise_live()
    assert sorted(ids.tolist()) == sorted(live)
    for row_id, vector in zip(ids.tolist(), vectors):
        assert vector.tobytes() == live[row_id].tobytes()
    probed = np.isin(cells, index._probe_order(query, index.config.nprobe))
    diffs = vectors[probed] - query[None, :]
    return ids[probed], (diffs * diffs).sum(axis=1)


@given(mutated_indexes(), st.integers(1, 70), st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_search_is_brute_force_over_the_probed_cells(case, k, radius_steps):
    index, live, queries = case
    radius = radius_steps / 2
    for query in queries:
        ids, sq = _probed_live_rows(index, live, query)
        dist = np.sqrt(sq.astype(np.float64))
        order = np.lexsort((ids, sq))[:k]
        got_ids, got_dist = index.search(query, k)
        assert got_ids.dtype == np.int64 and got_dist.dtype == np.float64
        assert got_ids.tolist() == ids[order].tolist()
        assert got_dist.tobytes() == dist[order].tobytes()
        hit = np.flatnonzero(dist <= radius)
        hit = hit[np.lexsort((ids[hit], dist[hit]))]
        got_ids, got_dist = index.search_radius(query, radius)
        assert got_ids.tolist() == ids[hit].tolist()
        assert got_dist.tobytes() == dist[hit].tobytes()


def test_nprobe_equals_nlist_is_exhaustive(fixture_index):
    index, ids, vectors = fixture_index
    got, _ = index.search(vectors[3], 10, nprobe=index.nlist)
    truth = exact_topk(ids, vectors, vectors[3], 10)
    np.testing.assert_array_equal(got, truth)


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
                           IVFConfig(nlist=8, nprobe=8, seed=0))
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
                           IVFConfig(nlist=8, nprobe=8, seed=0))
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
                           IVFConfig(nlist=8, nprobe=8, seed=0))
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


def _odd_shape_index():
    vectors = make_vectors(count=600, dim=5)
    return IVFIndex.build(np.arange(600, dtype=np.int64), vectors,
                          IVFConfig(nlist=45, seed=0))


def test_saved_arrays_sit_at_aligned_offsets(tmp_path):
    # An odd nlist times an odd dim leaves the float32 centroids ending
    # off an 8-byte boundary: the int64 arrays after them must still
    # start on one.
    index = _odd_shape_index()
    index.save(tmp_path / "ivf")
    manifest = json.loads((tmp_path / "ivf" / "MANIFEST.json").read_text())
    offsets = {name: meta["offset"]
               for name, meta in manifest["arrays"].items()}
    assert all(offset % 8 == 0 for offset in offsets.values()), offsets
    for mmap in (True, False):
        reloaded = IVFIndex.load(tmp_path / "ivf", mmap=mmap)
        for name, array in index._array_plan():
            loaded = getattr(reloaded, "_" + name)
            assert loaded.flags.aligned, name
            assert loaded.tobytes() == array.tobytes(), name


def test_packed_unaligned_directories_still_load(tmp_path):
    # Earlier releases packed the arrays back to back; the manifest's
    # offsets say where each one is, so such a directory opens as is.
    index = _odd_shape_index()
    path = index.save(tmp_path / "ivf")
    manifest = json.loads((path / "MANIFEST.json").read_text())
    offset, packed = 0, []
    for name, array in index._array_plan():
        manifest["arrays"][name]["offset"] = offset
        packed.append(array.tobytes())
        offset += array.nbytes
    (path / "data.bin").write_bytes(b"".join(packed))
    manifest["data"].update(file_entry(path / "data.bin"))
    (path / "MANIFEST.json").write_text(json.dumps(manifest))
    assert manifest["arrays"]["bounds"]["offset"] % 8 != 0
    reloaded = IVFIndex.load(path)
    assert not reloaded._bounds.flags.aligned
    query = make_vectors(count=600, dim=5)[5]
    for got, want in zip(reloaded.search(query, 10), index.search(query, 10)):
        np.testing.assert_array_equal(got, want)


#: Written by the release before the index kept one float32 scan:
#: ``IVFIndex.build(np.arange(200) * 2 + 1, make_vectors(count=200,
#: dim=8), IVFConfig(nlist=6, nprobe=3, seed=0)).save(...)``, so it
#: still carries the quantized ``codes`` / ``scales`` arrays and the
#: ``quantize`` / ``rerank`` / ``train_sample`` / ``kmeans_iters`` keys.
PARENT_LAYOUT = Path(__file__).parent / "data" / "ivf_v1_int8"


@pytest.mark.parametrize("mmap", [True, False])
def test_directories_with_quantized_codes_still_load(tmp_path, mmap):
    manifest = json.loads((PARENT_LAYOUT / "MANIFEST.json").read_text())
    assert {"codes", "scales"} <= set(manifest["arrays"])
    assert manifest["config"]["quantize"] is True
    vectors = make_vectors(count=200, dim=8)
    ids = np.arange(200, dtype=np.int64) * 2 + 1
    fresh = IVFIndex.build(ids, vectors, IVFConfig(nlist=6, nprobe=3, seed=0))
    legacy = IVFIndex.load(PARENT_LAYOUT, mmap=mmap)
    assert legacy.config == fresh.config
    for name, array in fresh._array_plan():
        assert np.asarray(getattr(legacy, "_" + name)).tobytes() == \
            array.tobytes(), name
    for row in (0, 3, 77, 199):
        query = vectors[row] + np.float32(0.05)
        for got, want in zip(legacy.search(query, 10),
                             fresh.search(query, 10)):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(legacy.search_radius(query, 1.5),
                             fresh.search_radius(query, 1.5)):
            assert got.tobytes() == want.tobytes()
    legacy.save(tmp_path / "resaved")
    resaved = json.loads((tmp_path / "resaved" / "MANIFEST.json").read_text())
    assert sorted(resaved["arrays"]) == ["bounds", "centroids", "ids",
                                         "vectors"]
    assert sorted(resaved["config"]) == ["nlist", "nprobe", "seed"]
