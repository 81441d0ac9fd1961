"""Uniform-grid binning of 3D points (cell lists).

The quadtree's leaf level reduces to "which uniform cell does this
point fall in"; this module holds that arithmetic, fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigurationError

__all__ = ["CellGrid", "bin_points"]


@dataclass(frozen=True)
class CellGrid:
    """A uniform 3D cell grid covering ``[origin, origin + dims*cell)``."""

    origin: tuple[float, float, float]
    cell: float
    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if self.cell <= 0:
            raise ConfigurationError(f"cell size must be positive, got {self.cell}")
        if any(d < 1 for d in self.dims):
            raise ConfigurationError(f"cell grid dims must be >= 1, got {self.dims}")

    @property
    def ncells(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def cell_coords(self, points: np.ndarray) -> np.ndarray:
        """Integer cell coordinates (n, 3), clamped into the grid."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        rel = (pts - np.asarray(self.origin)) / self.cell
        coords = np.floor(rel).astype(np.int64)
        np.clip(coords, 0, np.asarray(self.dims) - 1, out=coords)
        return coords

    def flatten(self, coords: np.ndarray) -> np.ndarray:
        """Row-major linear cell ids from integer coords."""
        dx, dy, dz = self.dims
        return (coords[:, 0] * dy + coords[:, 1]) * dz + coords[:, 2]

    def cell_ids(self, points: np.ndarray) -> np.ndarray:
        return self.flatten(self.cell_coords(points))


@dataclass
class Binning:
    """Points sorted by cell, with CSR-style per-cell ranges."""

    grid: CellGrid
    order: np.ndarray          # permutation sorting points by cell id
    sorted_cells: np.ndarray   # cell id per sorted point
    cell_start: np.ndarray     # (ncells + 1,) prefix offsets into `order`

def bin_points(points: np.ndarray, grid: CellGrid) -> Binning:
    """Sort ``points`` into ``grid`` cells; O(n log n), fully vectorized."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    ids = grid.cell_ids(pts)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    counts = np.bincount(sorted_ids, minlength=grid.ncells)
    cell_start = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return Binning(grid=grid, order=order, sorted_cells=sorted_ids, cell_start=cell_start)
