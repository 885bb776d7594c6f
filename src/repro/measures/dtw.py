"""Dynamic Time Warping (Yi et al., ICDE'98) — exact O(n*m) computation.

DTW aligns every point of one trajectory to one or more points of the other
(monotone, continuous alignment) and sums the matched point distances. It is
*not* a metric (no triangle inequality), which the paper uses to probe
NeuTraj on non-metric measures (§VII-A2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._batch import dtw_many
from ._dp import dtw_table
from .base import (TrajectoryMeasure, check_pair, check_pairs,
                   point_distances, register_measure)


@register_measure("dtw")
class DTWDistance(TrajectoryMeasure):
    """Exact DTW with Euclidean local cost.

    Parameters
    ----------
    window:
        Optional Sakoe–Chiba band half-width; alignments farther than
        ``window`` steps from the diagonal are forbidden. ``None`` (default)
        is the unconstrained DTW the paper uses.
    """

    is_metric = False

    def __init__(self, window: Optional[int] = None):
        if window is not None and window < 0:
            raise ValueError("window must be None or >= 0")
        self.window = window

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        check_pair(a, b)
        cost = point_distances(a, b)
        if self.window is not None:
            n, m = cost.shape
            i = np.arange(n, dtype=np.int64)[:, None]
            j = np.arange(m, dtype=np.int64)[None, :]
            # Scale the band to handle different lengths (standard practice).
            band = np.abs(i * m - j * n) > self.window * max(n, m)
            cost = np.where(band, np.inf, cost)
        table = dtw_table(cost)
        return float(table[-1, -1])

    def distance_many(self, pairs_a, pairs_b) -> np.ndarray:
        pairs_a, pairs_b = check_pairs(pairs_a, pairs_b)
        return dtw_many(pairs_a, pairs_b, window=self.window)
