"""The statistics helpers, the oracle and the comparison tool on known data."""

import numpy as np

import compare
import oracle
from common import percentile, quartile_spread, slice_rate


def test_percentile_on_known_data():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 0) == 1
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(values, 25) == 2
    assert percentile([10, 20], 75) == 17.5
    assert percentile(list(range(101)), 95) == 95
    assert percentile([], 50) == 0.0


def test_slice_rate_is_the_median_slice():
    # Five 1 s slices completing 10, 10, 50, 10, 10 operations, the last
    # completion of each slice exactly on its boundary.
    ends, start = [], 100.0
    for index, count in enumerate([10, 10, 50, 10, 10]):
        ends += [start + index + (n + 1) / count for n in range(count)]
    assert slice_rate(ends, [1.0] * len(ends), start, 5.0) == 10.0
    # Weights are summed, not counted.
    assert slice_rate(ends, [64.0] * len(ends), start, 5.0) == 640.0
    # Completions outside the phase are ignored.
    assert slice_rate(ends + [99.0, 105.5], [1.0] * (len(ends) + 2),
                      start, 5.0) == 10.0


def test_quartile_spread_matches_statistics_quantiles():
    median, q1, q3, spread = quartile_spread(
        [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0])
    assert (median, q1, q3) == (14.5, 11.75, 17.25)
    assert abs(spread - 5.5 / 14.5) < 1e-12


def _table():
    rng = np.random.default_rng(7)
    return rng.normal(size=(50, 8)), np.arange(100, 150, dtype=np.int64)


def test_oracle_accepts_the_right_answer_and_rejects_wrong_ones():
    matrix, ids = _table()
    query = matrix[3] + 0.01
    right, _ = oracle.brute_force_top_k(matrix, ids, query, 5)
    assert right[0] == 103
    assert oracle.top_k_matches(list(right), matrix, ids, query, 5)
    swapped = list(right)
    swapped[-1] = int(ids[np.argmax(((matrix - query) ** 2).sum(axis=1))])
    assert not oracle.top_k_matches(swapped, matrix, ids, query, 5)
    assert not oracle.top_k_matches(list(right[:4]), matrix, ids, query, 5)
    assert not oracle.top_k_matches(list(right[::-1]), matrix, ids, query, 5)
    assert not oracle.top_k_matches([999] + list(right[1:]), matrix, ids,
                                    query, 5)
    duplicated = [int(right[0])] * 5
    assert not oracle.top_k_matches(duplicated, matrix, ids, query, 5)


def test_oracle_accepts_either_order_of_an_exact_tie():
    matrix = np.array([[0.0, 1.0], [0.0, -1.0], [5.0, 5.0]])
    ids = np.array([7, 3, 9], dtype=np.int64)
    query = np.zeros(2)
    assert oracle.top_k_matches([3, 7], matrix, ids, query, 2)
    assert oracle.top_k_matches([7, 3], matrix, ids, query, 2)
    assert not oracle.top_k_matches([7, 9], matrix, ids, query, 2)


def test_sampled_check_fails_on_one_wrong_answer():
    matrix, ids = _table()
    rows = [1, 2, 3]
    sampled = [(row, list(oracle.brute_force_top_k(matrix, ids, matrix[row],
                                                   3)[0])) for row in rows]
    good = oracle.check_sampled_top_k("t", sampled, matrix, ids,
                                      lambda row: matrix[row], 3)
    assert good.ok
    sampled[1] = (2, [100, 101, 102])
    bad = oracle.check_sampled_top_k("t", sampled, matrix, ids,
                                     lambda row: matrix[row], 3)
    assert not bad.ok and "2/3" in bad.detail
    assert not oracle.check_sampled_top_k("t", [], matrix, ids,
                                          lambda row: matrix[row], 3).ok


def test_deleted_ids_and_losses_and_recall():
    answers = [(1.0, [5, 6]), (3.0, [6, 7])]
    assert oracle.check_deleted_never_returned(answers, {5: 2.0}).ok
    assert not oracle.check_deleted_never_returned(answers, {6: 2.0}).ok
    assert oracle.check_losses_fall([0.5, 0.4, 0.3]).ok
    assert not oracle.check_losses_fall([0.3, 0.4]).ok
    assert not oracle.check_losses_fall([0.5, float("nan")]).ok
    assert oracle.recall_at_k([[1, 2, 3, 4]], [[1, 2, 9, 8]]) == 0.5


def test_hit_ratio_excludes_the_query_itself():
    database = np.array([[0.0], [1.0], [2.0], [10.0]])
    exact = np.array([[0.0, 1.0, 2.0, 10.0]])   # same order as embedding
    assert oracle.hit_ratio_at_k(database, [0], exact, 2) == 1.0
    wrong = np.array([[0.0, 9.0, 8.0, 1.0]])    # exact top-2 = rows 3, 2
    assert oracle.hit_ratio_at_k(database, [0], wrong, 2) == 0.5


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.1) == "within-bound"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower",
                           0.1) == "worse"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "lower",
                           0.1) == "better"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "higher",
                           0.1) == "worse"
    noisy = [60.0, 140.0, 100.0, 80.0, 120.0]
    assert compare.verdict(noisy, steady, "lower", 0.1) == "unresolved"
    # Too noisy for the bound, but every candidate run beats every base run.
    assert compare.verdict(noisy, [v * 0.1 for v in noisy], "lower",
                           0.1) == "better"
    assert compare.verdict([1.0], [1.0], "lower", 0.1) == "unresolved"
