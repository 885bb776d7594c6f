"""Embedding-based approximate Hausdorff distance (Farach-Colton & Indyk).

Farach-Colton & Indyk (FOCS'99) and Backurs & Sidiropoulos (APPROX'16) embed
Hausdorff metrics into low-dimensional normed spaces. We implement the
practical anchor variant: fix ``m`` anchor points; embed a point set ``A``
as ``E(A)_k = min_{p in A} d(p, anchor_k)`` (its distance field sampled at
the anchors). Then

``max_k |E(A)_k - E(B)_k|  <=  H(A, B)``

because each coordinate is 1-Lipschitz under Hausdorff perturbation — the
L-infinity distance between embeddings is a lower bound that tightens as
anchors densify. Preprocessing is O(L*m) per trajectory; each pair costs
O(m) afterwards.
"""

from __future__ import annotations

import numpy as np

from .base import ApproximateMeasure


class AnchorHausdorff(ApproximateMeasure):
    """Anchor-embedding approximation of the symmetric Hausdorff distance.

    Parameters
    ----------
    bbox:
        (xmin, ymin, xmax, ymax) region to scatter anchors over.
    num_anchors:
        Embedding dimensionality ``m`` (more anchors = tighter bound).
    seed:
        Seed for anchor placement.
    """

    name = "anchor-hausdorff"
    target_measure = "hausdorff"

    def __init__(self, bbox, num_anchors: int = 64, seed: int = 0):
        if num_anchors < 1:
            raise ValueError("num_anchors must be >= 1")
        xmin, ymin, xmax, ymax = bbox
        rng = np.random.default_rng(seed)
        # Stratified anchors: a jittered grid covers the region evenly,
        # which keeps the lower bound tight everywhere.
        side = int(np.ceil(np.sqrt(num_anchors)))
        gx, gy = np.meshgrid(np.linspace(xmin, xmax, side),
                             np.linspace(ymin, ymax, side))
        anchors = np.stack([gx.ravel(), gy.ravel()], axis=1)[:num_anchors]
        anchors = anchors + rng.normal(
            scale=0.05 * (xmax - xmin) / side, size=anchors.shape)
        self.anchors = anchors

    def preprocess(self, points: np.ndarray) -> np.ndarray:
        """Embed: distance from each anchor to the nearest trajectory point."""
        points = np.asarray(points, dtype=np.float64)
        diff = self.anchors[:, None, :] - points[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1)).min(axis=1)

    def signature_distance(self, sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        return float(np.abs(sig_a - sig_b).max())
