"""Discrete Fréchet distance (Alt & Godau; discrete variant of Eiter/Mannila).

The Fréchet distance is the classic "dog-leash" measure: the minimal leash
length over all monotone traversals of both curves. The discrete variant on
sample points is the one trajectory systems (and the paper's experiments)
compute; it is a metric.
"""

from __future__ import annotations

import numpy as np

from ._batch import frechet_many
from ._dp import frechet_table
from .base import (TrajectoryMeasure, check_pair, check_pairs,
                   point_distances, register_measure)


@register_measure("frechet")
class FrechetDistance(TrajectoryMeasure):
    """Exact discrete Fréchet distance with Euclidean point costs."""

    is_metric = True

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        check_pair(a, b)
        cost = point_distances(a, b)
        table = frechet_table(cost)
        return float(table[-1, -1])

    def distance_many(self, pairs_a, pairs_b) -> np.ndarray:
        pairs_a, pairs_b = check_pairs(pairs_a, pairs_b)
        return frechet_many(pairs_a, pairs_b)
