"""The 3D spatial mesh with a 2D x/y block decomposition (paper §3.2).

Beatnik's cutoff solver moves surface points out of their 2D
*surface-index* decomposition into a *spatial* decomposition based on
their x/y/z position, so that nearby points land on the same rank and
far-field forces can be computed from local + halo data.  The paper
uses "a 2D x/y block decomposition of the 3D space to mirror the
initial distribution of 2D surface points and reduce load imbalance" —
each rank owns an x/y rectangle extended infinitely in z.

Blocks are *uniform* in physical space (equal-width rectangles), which
makes ownership a closed-form computation and is exactly why load
imbalance develops when the single-mode interface rolls up: the points
concentrate in a few blocks (Figures 6/7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigurationError

__all__ = ["SpatialMesh"]


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform x/y block decomposition of a 3D box over ``dims`` ranks.

    Parameters
    ----------
    low, high:
        Physical corners of the 3D domain (z bounds are informational;
        ownership ignores z).
    dims:
        Process-grid extents ``(Bx, By)``; linear rank is row-major,
        matching :class:`~repro.mpi.cart.CartComm` ordering.
    """

    low: tuple[float, float, float]
    high: tuple[float, float, float]
    dims: tuple[int, int]

    def __post_init__(self) -> None:
        for lo, hi in zip(self.low, self.high):
            if not hi > lo:
                raise ConfigurationError(f"degenerate spatial domain [{lo}, {hi}]")
        if any(d < 1 for d in self.dims):
            raise ConfigurationError(f"dims must be >= 1, got {self.dims}")
        # Block bounds are fixed by (low, high, dims): resolved once,
        # outside the dataclass fields (frozen, so set through object).
        object.__setattr__(self, "nblocks", self.dims[0] * self.dims[1])
        object.__setattr__(self, "_widths", (
            (self.high[0] - self.low[0]) / self.dims[0],
            (self.high[1] - self.low[1]) / self.dims[1],
        ))

    def block_widths(self) -> tuple[float, float]:
        return self._widths

    # -- ownership ------------------------------------------------------------

    def block_coords_of(self, positions: np.ndarray) -> np.ndarray:
        """(n, 2) integer block coords for each position, clamped.

        Positions outside the domain are owned by the nearest edge
        block (points can drift past the declared bounds as the
        interface evolves; Beatnik clamps identically).
        """
        pts = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        wx, wy = self.block_widths()
        bx = np.floor((pts[:, 0] - self.low[0]) / wx).astype(np.int64)
        by = np.floor((pts[:, 1] - self.low[1]) / wy).astype(np.int64)
        np.clip(bx, 0, self.dims[0] - 1, out=bx)
        np.clip(by, 0, self.dims[1] - 1, out=by)
        return np.stack([bx, by], axis=1)

    def owner_of(self, positions: np.ndarray) -> np.ndarray:
        """Linear owner rank per position (row-major over ``dims``)."""
        coords = self.block_coords_of(positions)
        return coords[:, 0] * self.dims[1] + coords[:, 1]

    # -- halo targets ------------------------------------------------------------

    def halo_targets(
        self, positions: np.ndarray, cutoff: float,
        owner: "int | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(point_index, dest_rank) pairs for cutoff ghost copies.

        A point must be ghosted to every block whose x/y rectangle lies
        within ``cutoff`` of it (excluding its owner).  With uniform
        blocks the set of such blocks is the rectangle of block indices
        covering ``[p - cutoff, p + cutoff]``, which handles cutoffs
        larger than a block width too.  ``owner`` is the rank that owns
        every point, when the caller knows it (points it has just
        migrated); otherwise each point's is :meth:`owner_of`.
        """
        if cutoff <= 0:
            raise ConfigurationError(f"cutoff must be positive, got {cutoff}")
        pts = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        n = pts.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        wx, wy = self.block_widths()
        if owner is None:
            owner = self.owner_of(pts)

        def block_range(vals: np.ndarray, lo: float, width: float, nblocks: int):
            b_lo = np.floor((vals - cutoff - lo) / width).astype(np.int64)
            b_hi = np.floor((vals + cutoff - lo) / width).astype(np.int64)
            np.clip(b_lo, 0, nblocks - 1, out=b_lo)
            np.clip(b_hi, 0, nblocks - 1, out=b_hi)
            return b_lo, b_hi

        bx_lo, bx_hi = block_range(pts[:, 0], self.low[0], wx, self.dims[0])
        by_lo, by_hi = block_range(pts[:, 1], self.low[1], wy, self.dims[1])
        # Expand the per-point block rectangles into (point, dest) pairs.
        points: list[np.ndarray] = []
        dests: list[np.ndarray] = []
        max_reach_x = int((bx_hi - bx_lo).max()) if n else 0
        max_reach_y = int((by_hi - by_lo).max()) if n else 0
        for ox in range(max_reach_x + 1):
            for oy in range(max_reach_y + 1):
                bx = bx_lo + ox
                by = by_lo + oy
                valid = (bx <= bx_hi) & (by <= by_hi)
                if not np.any(valid):
                    continue
                dest = bx[valid] * self.dims[1] + by[valid]
                idx = np.nonzero(valid)[0]
                not_owner = dest != (owner if np.ndim(owner) == 0
                                     else owner[idx])
                points.append(idx[not_owner])
                dests.append(dest[not_owner])
        if not points:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(points), np.concatenate(dests)
