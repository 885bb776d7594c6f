"""Batched (many-pairs-at-once) kernels for the alignment measures.

The anti-diagonal DP in :mod:`repro.measures._dp` already turns the O(n*m)
Python loop of one pair into O(n+m) vectorised steps, but computing a seed
distance matrix still pays that per-diagonal numpy dispatch overhead once
per *pair*. These kernels stack a whole chunk of pairs into padded
(P, n, m) cost volumes and sweep the identical recurrence over all pairs at
once, so the dispatch overhead is paid once per diagonal per *chunk* —
this is where the distance-matrix driver's single-core speedup comes from.

Three implementation choices keep the sweep fast:

* pairs are sorted by length before being split into blocks, so padding
  waste inside each block stays small (results are returned in input
  order);
* the DP keeps three *rolling diagonal buffers* instead of the full table,
  so every read/write in the hot loop is a contiguous slice rather than an
  advanced-indexing gather;
* the cost volume is pre-gathered into diagonal-major layout once per
  block, so the per-diagonal loop does no fancy indexing at all.

Bit-exactness: every cell of every pair sees exactly the same operands and
the same elementwise operations as the per-pair kernels (padding lives
strictly *after* each pair's true region and DP dependencies only flow
forward), so the results are element-wise identical to calling
``measure.distance`` pair by pair. The equivalence tests in
``tests/measures/test_matrix.py`` assert this for every registered measure.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

_INF = np.inf

#: Cap on padded DP cells (P * n * m) per internal block, keeping the
#: transient cost volumes within ~100 MB even for long trajectories.
MAX_BLOCK_CELLS = 4_000_000


def pad_stack(points_list: Sequence[np.ndarray]
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Stack variable-length (L_i, 2) arrays into (P, L_max, 2) + lengths."""
    lengths = np.array([len(p) for p in points_list], dtype=int)
    max_len = int(lengths.max()) if len(lengths) else 0
    out = np.zeros((len(points_list), max_len, 2), dtype=np.float64)
    for idx, pts in enumerate(points_list):
        out[idx, :len(pts)] = pts
    return out, lengths


def batched_point_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(P, n, m) Euclidean cost volumes for stacked point sequences.

    Elementwise-identical to ``point_distances`` per pair: ``dx² + dy²``
    is the same two-term sum the (…, 2)-axis reduction performs.
    """
    dx = a[:, :, None, 0] - b[:, None, :, 0]
    dy = a[:, :, None, 1] - b[:, None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _blocks(lengths_a: np.ndarray, lengths_b: np.ndarray):
    """Split a (sorted) pair list into blocks bounded by padded-cell volume."""
    total = len(lengths_a)
    start = 0
    while start < total:
        stop = start
        max_n = max_m = 1
        while stop < total:
            new_n = max(max_n, int(lengths_a[stop]))
            new_m = max(max_m, int(lengths_b[stop]))
            if stop > start and (stop - start + 1) * new_n * new_m > MAX_BLOCK_CELLS:
                break
            max_n, max_m = new_n, new_m
            stop += 1
        yield start, stop
        start = stop


def _run_blocked(points_a: List[np.ndarray], points_b: List[np.ndarray],
                 kernel) -> np.ndarray:
    """Sort pairs by size, evaluate per block, return in input order."""
    la = np.array([len(p) for p in points_a], dtype=int)
    lb = np.array([len(p) for p in points_b], dtype=int)
    order = np.lexsort((lb, la))
    out = np.empty(len(points_a), dtype=np.float64)
    for start, stop in _blocks(la[order], lb[order]):
        rows = order[start:stop]
        a, block_la = pad_stack([points_a[r] for r in rows])
        b, block_lb = pad_stack([points_b[r] for r in rows])
        out[rows] = kernel(a, b, block_la, block_lb)
    return out


def _diagonal_layout(n: int, m: int
                     ) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, int, int]]]:
    """Diagonal-major enumeration of an (n, m) cost matrix.

    Returns row indices, column indices, and per-diagonal metadata
    ``(i_lo, i_hi, offset)`` for table diagonals ``k = 2 .. n+m`` where the
    interior cells are ``i in [i_lo, i_hi]``, ``j = k - i`` and the cost
    entries ``cost[i-1, k-i-1]`` live at ``offset`` in the gathered layout.
    """
    rows, cols, spans = [], [], []
    offset = 0
    for k in range(2, n + m + 1):
        i_lo = max(1, k - m)
        i_hi = min(n, k - 1)
        i = np.arange(i_lo, i_hi + 1, dtype=np.intp)
        rows.append(i - 1)
        cols.append(k - i - 1)
        spans.append((i_lo, i_hi, offset))
        offset += len(i)
    if rows:
        return np.concatenate(rows), np.concatenate(cols), spans
    return np.zeros(0, dtype=int), np.zeros(0, dtype=int), spans


def _sweep(cost: np.ndarray, la: np.ndarray, lb: np.ndarray, combine,
           init_diag=None, result_init=None) -> np.ndarray:
    """Shared rolling-buffer anti-diagonal sweep.

    Parameters
    ----------
    cost:
        (P, n, m) local-cost volume.
    la, lb:
        True lengths per pair; the result is each pair's table entry at
        ``(la, lb)``.
    combine:
        ``combine(up, left, diag, cost_slice) -> new diagonal values``,
        mirroring the per-pair recurrence exactly.
    init_diag:
        Optional ``init_diag(cur, k)`` hook writing boundary cells of
        diagonal ``k`` (used by ERP's cumulative gap boundary).
    result_init:
        (P,) initial results covering the degenerate ``la + lb < 2``
        boundary cases; defaults to +inf with 0 where both are empty.
    """
    pairs, n, m = cost.shape
    rows, cols, spans = _diagonal_layout(n, m)
    cost_diag = cost[:, rows, cols]  # one gather; the sweep only slices

    if result_init is None:
        result = np.where((la == 0) & (lb == 0), 0.0,
                          np.full(len(la), _INF, dtype=np.float64))
    else:
        result = np.asarray(result_init, dtype=np.float64).copy()
    interior = (la > 0) & (lb > 0)
    ends = la + lb

    width = n + 1
    prev2 = np.full((pairs, width), _INF, dtype=np.float64)
    prev = np.full((pairs, width), _INF, dtype=np.float64)
    cur = np.full((pairs, width), _INF, dtype=np.float64)
    prev2[:, 0] = 0.0  # table[0, 0]
    if init_diag is not None:
        init_diag(prev2, 0)
        init_diag(prev, 1)

    for k in range(2, n + m + 1):
        i_lo, i_hi, offset = spans[k - 2]
        span = i_hi - i_lo + 1
        cur.fill(_INF)
        # table[i-1, j] / table[i, j-1] / table[i-1, j-1] as contiguous
        # slices of the two previous diagonals.
        up = prev[:, i_lo - 1:i_hi]
        left = prev[:, i_lo:i_hi + 1]
        diag = prev2[:, i_lo - 1:i_hi]
        cur[:, i_lo:i_hi + 1] = combine(
            up, left, diag, cost_diag[:, offset:offset + span], k)
        if init_diag is not None:
            init_diag(cur, k)
        captured = np.nonzero((ends == k) & interior)[0]
        if len(captured):
            result[captured] = cur[captured, la[captured]]
        prev2, prev, cur = prev, cur, prev2
    return result


def dtw_many(points_a: Sequence[np.ndarray], points_b: Sequence[np.ndarray],
             window: Optional[int] = None) -> np.ndarray:
    """Batched DTW distances; matches ``DTWDistance.distance`` per pair."""

    def kernel(a, b, la, lb):
        cost = batched_point_distances(a, b)
        if window is not None:
            n, m = cost.shape[1], cost.shape[2]
            i = np.arange(n, dtype=np.int64)[None, :, None]
            j = np.arange(m, dtype=np.int64)[None, None, :]
            # Per-pair band scaled by the *true* lengths, as in the serial path.
            band = (np.abs(i * lb[:, None, None] - j * la[:, None, None])
                    > window * np.maximum(la, lb)[:, None, None])
            cost = np.where(band, _INF, cost)

        def combine(up, left, diag, cost_slice, k):
            return np.minimum(np.minimum(up, left), diag) + cost_slice

        return _sweep(cost, la, lb, combine)

    return _run_blocked(list(points_a), list(points_b), kernel)


def frechet_many(points_a: Sequence[np.ndarray],
                 points_b: Sequence[np.ndarray]) -> np.ndarray:
    """Batched discrete Fréchet distances."""

    def kernel(a, b, la, lb):
        cost = batched_point_distances(a, b)

        def combine(up, left, diag, cost_slice, k):
            return np.maximum(cost_slice, np.minimum(np.minimum(up, left), diag))

        return _sweep(cost, la, lb, combine)

    return _run_blocked(list(points_a), list(points_b), kernel)


def erp_many(points_a: Sequence[np.ndarray], points_b: Sequence[np.ndarray],
             gap: np.ndarray) -> np.ndarray:
    """Batched ERP distances against a fixed gap point."""
    gap = np.asarray(gap, dtype=np.float64)

    def kernel(a, b, la, lb):
        cost = batched_point_distances(a, b)
        n, m = cost.shape[1], cost.shape[2]
        gap_a = np.linalg.norm(a - gap, axis=2)  # (P, n)
        gap_b = np.linalg.norm(b - gap, axis=2)  # (P, m)
        # cum_a[i] = table[i, 0], cum_b[j] = table[0, j] (cumulative gaps).
        cum_a = np.concatenate([np.zeros((len(a), 1), dtype=np.float64),
                                np.cumsum(gap_a, axis=1)], axis=1)
        cum_b = np.concatenate([np.zeros((len(b), 1), dtype=np.float64),
                                np.cumsum(gap_b, axis=1)], axis=1)

        def init_diag(cur, k):
            if 1 <= k <= n:
                cur[:, k] = cum_a[:, k]  # table[k, 0]
            if 1 <= k <= m:
                cur[:, 0] = cum_b[:, k]  # table[0, k]

        def combine(up, left, diag, cost_slice, k):
            i_lo = max(1, k - m)
            i_hi = min(n, k - 1)
            match = diag + cost_slice
            delete = up + gap_a[:, i_lo - 1:i_hi]
            # gap_b[j - 1] with j = k - i runs backwards as i increases.
            insert = left + gap_b[:, k - 1 - i_hi:k - i_lo][:, ::-1]
            return np.minimum(np.minimum(match, delete), insert)

        # Degenerate pairs finish on the boundary (one side empty).
        result_init = np.full(len(a), _INF, dtype=np.float64)
        empty_a, empty_b = la == 0, lb == 0
        result_init[empty_a] = cum_b[empty_a, lb[empty_a]]
        result_init[empty_b] = cum_a[empty_b, la[empty_b]]
        result_init[empty_a & empty_b] = 0.0
        return _sweep(cost, la, lb, combine, init_diag=init_diag,
                      result_init=result_init)

    return _run_blocked(list(points_a), list(points_b), kernel)


def edr_many(points_a: Sequence[np.ndarray], points_b: Sequence[np.ndarray],
             epsilon: float, normalize: bool) -> np.ndarray:
    """Batched EDR: ERP's recurrence with unit gaps and a 0/1 match cost."""

    def kernel(a, b, la, lb):
        dx = np.abs(a[:, :, None, 0] - b[:, None, :, 0])
        dy = np.abs(a[:, :, None, 1] - b[:, None, :, 1])
        cost = np.where((dx <= epsilon) & (dy <= epsilon), 0.0, 1.0)
        n, m = cost.shape[1], cost.shape[2]

        def init_diag(cur, k):
            if 1 <= k <= n:
                cur[:, k] = k  # table[k, 0]: k deletions
            if 1 <= k <= m:
                cur[:, 0] = k  # table[0, k]: k insertions

        def combine(up, left, diag, cost_slice, k):
            return np.minimum(np.minimum(up + 1.0, left + 1.0),
                              diag + cost_slice)

        result = _sweep(cost, la, lb, combine, init_diag=init_diag)
        return result / np.maximum(la, lb) if normalize else result

    return _run_blocked(list(points_a), list(points_b), kernel)


def hausdorff_many(points_a: Sequence[np.ndarray],
                   points_b: Sequence[np.ndarray]) -> np.ndarray:
    """Batched symmetric Hausdorff distances."""

    def kernel(a, b, la, lb):
        cost = batched_point_distances(a, b)
        n, m = cost.shape[1], cost.shape[2]
        row_pad = np.arange(n, dtype=np.int64)[None, :] >= la[:, None]
        col_pad = np.arange(m, dtype=np.int64)[None, :] >= lb[:, None]
        masked = np.where(col_pad[:, None, :], _INF, cost)
        forward = np.where(row_pad, -_INF, masked.min(axis=2)).max(axis=1)
        masked = np.where(row_pad[:, :, None], _INF, cost)
        backward = np.where(col_pad, -_INF, masked.min(axis=1)).max(axis=1)
        return np.maximum(forward, backward)

    return _run_blocked(list(points_a), list(points_b), kernel)
