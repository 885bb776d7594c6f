"""Symmetric Hausdorff distance between trajectory point sets.

``H(A, B) = max( max_a min_b d(a, b), max_b min_a d(a, b) )`` — the largest
distance from any point of one trajectory to the other trajectory. Ignores
point ordering; a metric on compact point sets. Fully vectorised (no DP).
"""

from __future__ import annotations

import numpy as np

from ._batch import hausdorff_many
from .base import (TrajectoryMeasure, check_pair, check_pairs,
                   point_distances, register_measure)


@register_measure("hausdorff")
class HausdorffDistance(TrajectoryMeasure):
    """Exact symmetric Hausdorff distance."""

    is_metric = True

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        check_pair(a, b)
        cost = point_distances(a, b)
        forward = cost.min(axis=1).max()
        backward = cost.min(axis=0).max()
        return float(max(forward, backward))

    def distance_many(self, pairs_a, pairs_b) -> np.ndarray:
        pairs_a, pairs_b = check_pairs(pairs_a, pairs_b)
        return hausdorff_many(pairs_a, pairs_b)

    def directed(self, a: np.ndarray, b: np.ndarray) -> float:
        """One-sided (directed) Hausdorff distance from ``a`` to ``b``."""
        return float(point_distances(a, b).min(axis=1).max())
