"""Grid discretisation of the space (paper §IV-A, §VII-A1).

The paper partitions the city-center area into 50m x 50m cells; the SAM
memory tensor has one slot per cell. :class:`Grid` maps continuous
coordinates to integer cell indices and back, and
:class:`CoordinateNormalizer` standardises raw coordinates for the RNN input
(the released implementation feeds mean/std-normalised coordinates).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .trajectory import Trajectory, TrajectoryDataset


class Grid:
    """Uniform grid over a bounding box.

    Parameters
    ----------
    bbox:
        (xmin, ymin, xmax, ymax) extent of the space.
    cell_size:
        Side length of each square cell, in coordinate units.
    """

    def __init__(self, bbox: Tuple[float, float, float, float], cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        xmin, ymin, xmax, ymax = map(float, bbox)
        if xmax <= xmin or ymax <= ymin:
            raise ValueError(f"degenerate bbox {bbox}")
        self.bbox = (xmin, ymin, xmax, ymax)
        self.cell_size = float(cell_size)
        self.shape = (
            int(np.ceil((xmax - xmin) / cell_size)),
            int(np.ceil((ymax - ymin) / cell_size)),
        )

    @classmethod
    def for_dataset(cls, dataset: TrajectoryDataset, cell_size: float,
                    margin: float = 0.0) -> "Grid":
        """Build a grid that covers every trajectory, with optional margin."""
        xmin, ymin, xmax, ymax = dataset.bbox
        return cls((xmin - margin, ymin - margin, xmax + margin, ymax + margin),
                   cell_size)

    @property
    def num_cells(self) -> int:
        return self.shape[0] * self.shape[1]

    def to_cells(self, points: np.ndarray) -> np.ndarray:
        """Map (.., 2) coordinates to integer cell indices, clipped to range."""
        points = np.asarray(points, dtype=np.float64)
        xmin, ymin, _, _ = self.bbox
        cells = np.empty(points.shape, dtype=int)
        cells[..., 0] = np.floor((points[..., 0] - xmin) / self.cell_size)
        cells[..., 1] = np.floor((points[..., 1] - ymin) / self.cell_size)
        # min/max, not np.clip: clip looks up the dtype's limits per call,
        # ~4x the cost on the one-point arrays the streaming tier passes.
        cells[..., 0] = np.minimum(np.maximum(cells[..., 0], 0),
                                   self.shape[0] - 1)
        cells[..., 1] = np.minimum(np.maximum(cells[..., 1], 0),
                                   self.shape[1] - 1)
        return cells

    def cell_center(self, cells: np.ndarray) -> np.ndarray:
        """Continuous coordinates of cell centers for (.., 2) cell indices."""
        cells = np.asarray(cells, dtype=np.float64)
        xmin, ymin, _, _ = self.bbox
        out = np.empty_like(cells)
        out[..., 0] = xmin + (cells[..., 0] + 0.5) * self.cell_size
        out[..., 1] = ymin + (cells[..., 1] + 0.5) * self.cell_size
        return out

    def discretize(self, trajectory: Trajectory) -> np.ndarray:
        """Grid-cell sequence ``T^g`` (L, 2) for a trajectory (§IV-A)."""
        return self.to_cells(trajectory.points)

    def __repr__(self) -> str:
        return f"Grid(shape={self.shape}, cell_size={self.cell_size})"


class CoordinateNormalizer:
    """Standardise coordinates to zero mean / unit std per axis.

    Fitted on the seed pool; the same transform is applied to every
    trajectory the encoder consumes so train/test inputs share a scale.
    """

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64).reshape(2)
        std = np.asarray(std, dtype=np.float64).reshape(2)
        self.std = np.where(std > 0, std, 1.0)

    @classmethod
    def fit(cls, trajectories: Sequence[Trajectory]) -> "CoordinateNormalizer":
        stacked = np.concatenate([t.points for t in trajectories], axis=0)
        return cls(stacked.mean(axis=0), stacked.std(axis=0))

    def transform(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=np.float64) - self.mean) / self.std

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) * self.std + self.mean
