"""Tests for the pairwise / cross distance-matrix drivers."""

import os
import sys
import threading

import numpy as np
import pytest

from repro.measures import (available_measures, cross_distances, get_measure,
                            last_precompute_stats, pairwise_distances)

ALL_MEASURES = available_measures()


def arrays(trajs):
    return [np.asarray(getattr(t, "points", t), dtype=np.float64)
            for t in trajs]


def oracle_pairwise(trajs, measure):
    """The per-pair reference: one ``measure.distance`` call per pair."""
    points = arrays(trajs)
    matrix = np.zeros((len(points), len(points)), dtype=np.float64)
    for i, a in enumerate(points):
        for j in range(i + 1, len(points)):
            matrix[i, j] = matrix[j, i] = measure.distance(a, points[j])
    return matrix


def oracle_cross(queries, database, measure):
    return np.array([[measure.distance(a, b) for b in arrays(database)]
                     for a in arrays(queries)], dtype=np.float64)


def ragged(seed, count, low=2, high=40):
    """Random walks of very different lengths (2 points up to ``high``)."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(int(n), 2)).cumsum(axis=0)
            for n in rng.integers(low, high + 1, size=count)]


def test_pairwise_symmetric_zero_diagonal(small_dataset):
    measure = get_measure("hausdorff")
    trajs = list(small_dataset)[:12]
    matrix = pairwise_distances(trajs, measure)
    assert matrix.shape == (12, 12)
    np.testing.assert_allclose(matrix, matrix.T)
    np.testing.assert_allclose(np.diag(matrix), 0.0)


def test_pairwise_matches_direct_calls(small_dataset):
    measure = get_measure("frechet")
    trajs = list(small_dataset)[:6]
    matrix = pairwise_distances(trajs, measure)
    for i in range(6):
        for j in range(6):
            assert matrix[i, j] == pytest.approx(measure(trajs[i], trajs[j]))


def test_pairwise_progress_callback(small_dataset):
    """Default path: one call per work unit, monotone, ending at the total."""
    calls = []
    trajs = list(small_dataset)[:5]
    pairwise_distances(trajs, get_measure("hausdorff"), chunk_pairs=4,
                       progress=lambda done, total: calls.append((done, total)))
    assert calls == [(4, 10), (8, 10), (10, 10)]
    assert last_precompute_stats().chunks == 3

    calls.clear()
    pairwise_distances(trajs, get_measure("hausdorff"),
                       progress=lambda done, total: calls.append((done, total)))
    assert calls == [(10, 10)]  # 10 pairs fit one default-sized unit


def test_cross_distances_shape_and_values(small_dataset):
    measure = get_measure("dtw")
    queries = list(small_dataset)[:3]
    database = list(small_dataset)[:7]
    matrix = cross_distances(queries, database, measure)
    assert matrix.shape == (3, 7)
    assert matrix[1, 1] == pytest.approx(0.0)
    assert matrix[0, 5] == pytest.approx(measure(queries[0], database[5]))


def test_accepts_raw_arrays(rng):
    arrays = [rng.normal(size=(5, 2)) for _ in range(4)]
    matrix = pairwise_distances(arrays, get_measure("hausdorff"))
    assert matrix.shape == (4, 4)


@pytest.mark.parametrize("name", ALL_MEASURES)
def test_parallel_identical_to_serial(small_dataset, name):
    """In-process and workers=2 both reproduce the per-pair oracle exactly."""
    trajs = list(small_dataset)[:14]
    measure = get_measure(name)
    reference = oracle_pairwise(trajs, measure)
    np.testing.assert_array_equal(
        reference, pairwise_distances(trajs, measure, workers=1))
    np.testing.assert_array_equal(
        reference, pairwise_distances(trajs, measure, workers=2,
                                      chunk_pairs=17))


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("name", ALL_MEASURES)
def test_ragged_matrices_equal_the_per_pair_oracle(name, workers):
    """Every measure x {pairwise, cross} x {default, pool}, ragged lengths."""
    trajs = ragged(seed=5, count=13)
    queries = ragged(seed=6, count=4)
    measure = get_measure(name)
    # 78 and 52 pairs in units of 11: several chunks, a short last one.
    pairwise = pairwise_distances(trajs, measure, workers=workers,
                                  chunk_pairs=11)
    if workers is None:
        stats = last_precompute_stats()
        assert stats.chunks >= 1 and stats.parallel_chunks == 0
    np.testing.assert_array_equal(pairwise, oracle_pairwise(trajs, measure))
    cross = cross_distances(queries, trajs, measure, workers=workers,
                            chunk_pairs=11)
    np.testing.assert_array_equal(cross,
                                  oracle_cross(queries, trajs, measure))


def test_unnormalized_edr_matches_the_per_pair_oracle():
    trajs = ragged(seed=8, count=9)
    measure = get_measure("edr", epsilon=0.7, normalize=False)
    np.testing.assert_array_equal(pairwise_distances(trajs, measure),
                                  oracle_pairwise(trajs, measure))


def test_concurrent_threads_do_not_share_state():
    """Two threads, different trajectory sets: each gets its own matrix."""
    measure = get_measure("dtw")
    sets = [ragged(seed=21, count=12), ragged(seed=22, count=9, high=25)]
    expected = [oracle_pairwise(trajs, measure) for trajs in sets]
    results = [[], []]
    errors = []
    start = threading.Barrier(2)

    def work(slot):
        try:
            start.wait(timeout=10)
            for _ in range(6):
                results[slot].append(pairwise_distances(
                    sets[slot], measure, chunk_pairs=3))
        except Exception as exc:  # reported below, in the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert not errors
    for slot in range(2):
        assert len(results[slot]) == 6
        for matrix in results[slot]:
            np.testing.assert_array_equal(matrix, expected[slot])


@pytest.mark.parametrize("name", ALL_MEASURES)
def test_distance_many_matches_distance(small_dataset, name):
    """The batched kernels are bit-identical to per-pair calls."""
    trajs = [np.asarray(t.points) for t in list(small_dataset)[:10]]
    measure = get_measure(name)
    rows, cols = np.triu_indices(len(trajs), k=1)
    per_pair = np.array([measure.distance(trajs[i], trajs[j])
                         for i, j in zip(rows, cols)])
    batched = measure.distance_many([trajs[i] for i in rows],
                                    [trajs[j] for j in cols])
    np.testing.assert_array_equal(per_pair, batched)


def test_parallel_progress_reaches_total(small_dataset):
    calls = []
    trajs = list(small_dataset)[:10]
    pairwise_distances(trajs, get_measure("hausdorff"), workers=2,
                       chunk_pairs=10,
                       progress=lambda done, total: calls.append((done, total)))
    assert calls[-1] == (45, 45)
    assert all(total == 45 for _, total in calls)
    assert [done for done, _ in calls] == sorted(done for done, _ in calls)


def test_cross_distances_progress_and_parallel(small_dataset):
    calls = []
    queries = list(small_dataset)[:3]
    database = list(small_dataset)[:7]
    measure = get_measure("dtw")
    reference = oracle_cross(queries, database, measure)
    in_process = cross_distances(queries, database, measure, chunk_pairs=5,
                                 progress=lambda d, t: calls.append((d, t)))
    assert calls == [(5, 21), (10, 21), (15, 21), (20, 21), (21, 21)]
    np.testing.assert_array_equal(reference, in_process)
    parallel = cross_distances(queries, database, measure, workers=2,
                               chunk_pairs=5)
    np.testing.assert_array_equal(reference, parallel)


class TestMatrixCache:
    def test_round_trip_hit(self, small_dataset, tmp_path):
        trajs = list(small_dataset)[:8]
        measure = get_measure("dtw")
        first = pairwise_distances(trajs, measure, cache_dir=str(tmp_path))
        files = os.listdir(tmp_path)
        assert len(files) == 1 and files[0].endswith(".npz")

        calls = []
        second = pairwise_distances(
            trajs, measure, cache_dir=str(tmp_path),
            progress=lambda d, t: calls.append((d, t)))
        np.testing.assert_array_equal(first, second)
        # A hit reports completion once without recomputing anything.
        assert calls == [(28, 28)]
        assert len(os.listdir(tmp_path)) == 1

    def test_miss_after_perturbing_a_point(self, small_dataset, tmp_path):
        trajs = [np.asarray(t.points).copy() for t in list(small_dataset)[:8]]
        measure = get_measure("hausdorff")
        first = pairwise_distances(trajs, measure, cache_dir=str(tmp_path))
        trajs[3][0, 0] += 1.5
        second = pairwise_distances(trajs, measure, cache_dir=str(tmp_path))
        assert len(os.listdir(tmp_path)) == 2  # distinct content hash
        assert not np.array_equal(first, second)
        np.testing.assert_array_equal(
            second, pairwise_distances(trajs, measure))

    def test_distinct_measures_do_not_collide(self, small_dataset, tmp_path):
        trajs = list(small_dataset)[:8]
        dtw = pairwise_distances(trajs, get_measure("dtw"),
                                 cache_dir=str(tmp_path))
        frechet = pairwise_distances(trajs, get_measure("frechet"),
                                     cache_dir=str(tmp_path))
        assert len(os.listdir(tmp_path)) == 2
        assert not np.array_equal(dtw, frechet)

    def test_measure_parameters_change_the_key(self, small_dataset, tmp_path):
        trajs = list(small_dataset)[:6]
        pairwise_distances(trajs, get_measure("dtw"), cache_dir=str(tmp_path))
        pairwise_distances(trajs, get_measure("dtw", window=2),
                           cache_dir=str(tmp_path))
        assert len(os.listdir(tmp_path)) == 2

    def test_cross_cache_round_trip(self, small_dataset, tmp_path):
        queries = list(small_dataset)[:3]
        database = list(small_dataset)[:6]
        measure = get_measure("erp")
        first = cross_distances(queries, database, measure,
                                cache_dir=str(tmp_path))
        second = cross_distances(queries, database, measure,
                                 cache_dir=str(tmp_path))
        np.testing.assert_array_equal(first, second)
        assert len(os.listdir(tmp_path)) == 1


class TestPrecomputeConfigDefaults:
    def test_workers_default_flows_from_config(self, small_dataset):
        from repro.core.config import set_precompute_config
        trajs = list(small_dataset)[:8]
        measure = get_measure("frechet")
        reference = oracle_pairwise(trajs, measure)
        np.testing.assert_array_equal(reference,
                                      pairwise_distances(trajs, measure))
        assert last_precompute_stats().parallel_chunks == 0
        set_precompute_config(workers=2, chunk_pairs=9)
        try:
            configured = pairwise_distances(trajs, measure)
            assert last_precompute_stats().parallel_chunks == 4
        finally:
            set_precompute_config(workers=1, chunk_pairs=512)
        np.testing.assert_array_equal(reference, configured)

    def test_cache_dir_default_flows_from_config(self, small_dataset,
                                                 tmp_path):
        from repro.core.config import set_precompute_config
        trajs = list(small_dataset)[:6]
        set_precompute_config(cache_dir=str(tmp_path))
        try:
            pairwise_distances(trajs, get_measure("dtw"))
        finally:
            set_precompute_config(cache_dir=None)
        assert len(os.listdir(tmp_path)) == 1
