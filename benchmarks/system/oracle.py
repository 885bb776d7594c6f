"""Correctness oracle: every workload's answers against brute force.

Each function returns a :class:`Check`; a run is ``correct`` only when all
of them hold, and ``run.py`` exits non-zero otherwise. The references
here are written from the definitions (a full scan, a plain sort) and
share no code with the search paths they judge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self):
        return (f"[{'ok' if self.ok else 'FAIL'}] {self.name}"
                + (f": {self.detail}" if self.detail else ""))


def brute_force_top_k(matrix, ids, query, k):
    """``(ids, distances)`` of the k nearest rows by ``(distance, id)``."""
    distances = np.sqrt(((matrix - query[None, :]) ** 2).sum(axis=1))
    order = np.lexsort((ids, distances))[:k]
    return ids[order], distances[order]


def top_k_matches(answer_ids, matrix, ids, query, k, rel_tol=1e-9):
    """Whether ``answer_ids`` is a correct exact top-k for ``query``.

    The answer must hold ``min(k, rows)`` distinct stored ids whose
    brute-force distances are, rank by rank, the k smallest. Comparing
    distances instead of ids accepts either order of an exact tie and
    the 1-ulp wobble of a padded batched encode, and nothing else.
    """
    want_ids, want = brute_force_top_k(matrix, ids, query, k)
    answer = np.asarray(answer_ids, dtype=np.int64)
    if answer.shape != want_ids.shape or np.unique(answer).size != answer.size:
        return False
    rows = {int(row_id): row for row, row_id in enumerate(ids)}
    if any(int(a) not in rows for a in answer):
        return False
    got = np.sqrt(((matrix[[rows[int(a)] for a in answer]]
                    - query[None, :]) ** 2).sum(axis=1))
    return bool(np.allclose(got, want, rtol=rel_tol, atol=1e-12))


def check_sampled_top_k(name, sampled, matrix, ids, embed, k):
    """Every sampled ``(trajectory, answer ids)`` against brute force."""
    wrong = [index for index, (trajectory, answer) in enumerate(sampled)
             if not top_k_matches(answer, matrix, ids, embed(trajectory), k)]
    return Check(name, bool(sampled) and not wrong,
                 f"{len(sampled) - len(wrong)}/{len(sampled)} sampled "
                 f"answers equal the brute-force top-{k}")


def recall_at_k(answers, truths):
    """Mean share of each truth list found in the matching answer."""
    shares = [len(set(map(int, answer)) & set(map(int, truth))) / len(truth)
              for answer, truth in zip(answers, truths)]
    return float(np.mean(shares))


def check_at_least(name, value, floor):
    return Check(name, value >= floor, f"{value:.4f} (floor {floor})")


def check_equal(name, got, want):
    return Check(name, got == want, f"got {got}, want {want}")


def check_deleted_never_returned(answers, deletions):
    """No answer that began after a delete was acknowledged holds its id.

    ``answers`` is ``[(start time, ids)]``; ``deletions`` is ``{id: time
    the delete returned}``.
    """
    ghosts = sum(1 for start, ids in answers for answer_id in ids
                 if deletions.get(int(answer_id), math.inf) < start)
    return Check("deleted ids never returned", ghosts == 0,
                 f"{ghosts} deleted ids in {len(answers)} later answers")


def check_losses_fall(losses):
    finite = all(math.isfinite(loss) for loss in losses)
    falling = len(losses) >= 2 and losses[-1] < losses[0]
    return Check("losses finite and falling", finite and falling,
                 " -> ".join(f"{loss:.4f}" for loss in losses))


def hit_ratio_at_k(database, query_rows, truth, k):
    """HR@k: overlap of embedding top-k and exact top-k, self excluded.

    ``database`` is the (n, d) embedding table, ``query_rows`` the rows
    used as queries, ``truth`` the (queries, n) exact distance matrix.
    """
    ratios = []
    for row, exact in zip(query_rows, truth):
        learned = np.sqrt(((database - database[row][None, :]) ** 2)
                          .sum(axis=1))
        learned[row] = np.inf
        exact = np.array(exact, dtype=np.float64)
        exact[row] = np.inf
        ratios.append(len(set(np.argsort(learned, kind="stable")[:k])
                          & set(np.argsort(exact, kind="stable")[:k])) / k)
    return float(np.mean(ratios))


def check_arrays_equal(name, left, right):
    """Two ``{key: array}`` maps hold the same keys and the same bits."""
    same = (left.keys() == right.keys()
            and all(np.array_equal(left[key], right[key]) for key in left))
    return Check(name, same, f"{len(left)} vs {len(right)} entries")
