"""Grid-based inverted index (paper Table V, second index).

Each grid cell keeps the set of trajectory ids that pass through it; a
query collects the union of ids over the query trajectory's cells (expanded
by a ring of neighbouring cells). Simpler than an R-tree and very effective
for trajectory data whose density follows the street network.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..datasets.grid import Grid


class GridInvertedIndex:
    """Inverted cell -> trajectory-id index.

    Parameters
    ----------
    grid:
        Discretisation of the space.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._cells: Dict[Tuple[int, int], Set[int]] = {}
        self.size = 0

    @classmethod
    def from_trajectories(cls, trajectories: Sequence, grid: Grid
                          ) -> "GridInvertedIndex":
        """Index trajectories (ids = positions)."""
        index = cls(grid)
        for i, traj in enumerate(trajectories):
            index.insert(i, np.asarray(getattr(traj, "points", traj)))
        return index

    def insert(self, traj_id: int, points: np.ndarray) -> None:
        """Register a trajectory's visited cells."""
        cells = self.grid.to_cells(points)
        for cell in {(int(x), int(y)) for x, y in cells}:
            self._cells.setdefault(cell, set()).add(traj_id)
        self.size += 1

    def query_cells(self, cells: Sequence[Tuple[int, int]]) -> List[int]:
        """Union of ids over the given cells."""
        out: Set[int] = set()
        for cell in cells:
            out |= self._cells.get((int(cell[0]), int(cell[1])), set())
        return sorted(out)

    def query(self, points: np.ndarray, ring: int = 1) -> List[int]:
        """Candidate ids for a query trajectory.

        ``ring`` expands each visited cell by that many neighbouring cells,
        trading candidate count against the risk of missing near matches.
        """
        cells = self.grid.to_cells(np.asarray(getattr(points, "points", points)))
        expanded: Set[Tuple[int, int]] = set()
        for x, y in {(int(cx), int(cy)) for cx, cy in cells}:
            for dx in range(-ring, ring + 1):
                for dy in range(-ring, ring + 1):
                    expanded.add((x + dx, y + dy))
        return self.query_cells(sorted(expanded))

    @property
    def num_occupied_cells(self) -> int:
        return len(self._cells)
