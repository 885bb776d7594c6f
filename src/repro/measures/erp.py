"""Edit distance with Real Penalty (Chen & Ng, VLDB'04).

ERP is an edit distance where matching costs the point distance and a
skip costs the distance to a fixed *gap* point ``g``. Unlike DTW it is a
metric (satisfies the triangle inequality), which is why the paper groups it
with Fréchet and Hausdorff.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ._batch import erp_many
from ._dp import erp_table
from .base import (TrajectoryMeasure, check_pair, check_pairs,
                   point_distances, register_measure)


@register_measure("erp")
class ERPDistance(TrajectoryMeasure):
    """Exact ERP distance.

    Parameters
    ----------
    gap:
        The reference gap point ``g``. Chen & Ng use the origin; for
        datasets far from the origin pass e.g. the dataset centroid so skip
        costs stay comparable to match costs.
    """

    is_metric = True

    def __init__(self, gap: Optional[Sequence[float]] = None):
        self.gap = (np.zeros(2, dtype=np.float64) if gap is None
                    else np.asarray(gap, dtype=np.float64))
        if self.gap.shape != (2,):
            raise ValueError("gap point must have shape (2,)")

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        check_pair(a, b)
        cost = point_distances(a, b)
        gap_a = np.linalg.norm(a - self.gap, axis=1)
        gap_b = np.linalg.norm(b - self.gap, axis=1)
        table = erp_table(cost, gap_a, gap_b)
        return float(table[-1, -1])

    def distance_many(self, pairs_a, pairs_b) -> np.ndarray:
        pairs_a, pairs_b = check_pairs(pairs_a, pairs_b)
        return erp_many(pairs_a, pairs_b, self.gap)
