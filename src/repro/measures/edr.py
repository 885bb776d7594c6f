"""Edit Distance on Real sequences (EDR; Chen, Özsu & Oria, SIGMOD'05).

EDR counts the minimum number of edit operations (insert / delete /
substitute) needed to align two trajectories, where two points *match*
(cost 0) when both coordinates are within a tolerance ``epsilon``.
Not a metric (violates the triangle inequality), like DTW.

Not part of the paper's evaluated four, but the paper cites it ([10]) and
NeuTraj's genericity claim covers it — the registry makes it available as
a training target out of the box.
"""

from __future__ import annotations

import numpy as np

from ._batch import edr_many
from .base import (TrajectoryMeasure, check_pair, check_pairs,
                   register_measure)


@register_measure("edr")
class EDRDistance(TrajectoryMeasure):
    """Exact EDR with an L-infinity match tolerance.

    Parameters
    ----------
    epsilon:
        Match threshold: points match when ``|dx| <= eps`` and
        ``|dy| <= eps`` (Chen et al.'s definition).
    normalize:
        Divide by ``max(n, m)`` so values fall in [0, 1] (common practice;
        default True).
    """

    is_metric = False

    def __init__(self, epsilon: float = 1.0, normalize: bool = True):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = float(epsilon)
        self.normalize = bool(normalize)

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        check_pair(a, b)
        n, m = len(a), len(b)
        # subcost[i, j] = 0 if points match else 1.
        close = np.all(np.abs(a[:, None, :] - b[None, :, :]) <= self.epsilon,
                       axis=-1)
        subcost = np.where(close, 0.0, 1.0)
        table = np.empty((n + 1, m + 1), dtype=np.float64)
        table[0, :] = np.arange(m + 1, dtype=np.float64)
        table[:, 0] = np.arange(n + 1, dtype=np.float64)
        for k in range(2, n + m + 1):
            i = np.arange(max(1, k - m), min(n, k - 1) + 1, dtype=np.intp)
            j = k - i
            best = np.minimum(
                np.minimum(table[i - 1, j] + 1.0, table[i, j - 1] + 1.0),
                table[i - 1, j - 1] + subcost[i - 1, j - 1])
            table[i, j] = best
        value = float(table[n, m])
        if self.normalize:
            value /= max(n, m)
        return value

    def distance_many(self, pairs_a, pairs_b) -> np.ndarray:
        pairs_a, pairs_b = check_pairs(pairs_a, pairs_b)
        return edr_many(pairs_a, pairs_b, self.epsilon, self.normalize)
