"""Global description of the 2D logical surface mesh.

Beatnik's ``SurfaceMesh`` is an open, regular, rectangular 2D grid over
the Z-Model's parameter space ``(α1, α2)``; each node carries the 3D
position and two vorticity components of a point on the fluid
interface.  This module holds the *global* (undecomposed) description;
:class:`~repro.core.surface_mesh.SurfaceMesh` is one rank's block of
it.

Node-spacing convention
-----------------------
* Periodic axis: ``N`` nodes cover ``[lo, hi)`` with spacing
  ``(hi-lo)/N`` — node ``N`` would alias node 0.
* Non-periodic axis: ``N`` nodes cover ``[lo, hi]`` inclusive with
  spacing ``(hi-lo)/(N-1)``.

The distributed FFT relies on the periodic convention for its
wavenumber grid, and :meth:`repro.core.SolverConfig.spacing` reads it
from here; tests pin both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.grid.indexspace import IndexSpace
from repro.util.errors import ConfigurationError

__all__ = ["GlobalMesh2D"]


@dataclass(frozen=True)
class GlobalMesh2D:
    """Global 2D structured mesh over parameter space.

    Parameters
    ----------
    low, high:
        Physical bounds of the parameter domain, ``(x, y)`` each.
    num_nodes:
        Global node counts ``(N1, N2)``.
    periodic:
        Per-axis periodicity ``(px, py)``.
    """

    low: tuple[float, float]
    high: tuple[float, float]
    num_nodes: tuple[int, int]
    periodic: tuple[bool, bool]

    def __post_init__(self) -> None:
        if len(self.low) != 2 or len(self.high) != 2 or len(self.num_nodes) != 2:
            raise ConfigurationError("GlobalMesh2D is strictly two-dimensional")
        for lo, hi in zip(self.low, self.high):
            if not hi > lo:
                raise ConfigurationError(f"degenerate domain [{lo}, {hi}]")
        for axis, n in enumerate(self.num_nodes):
            minimum = 1 if self.periodic[axis] else 2
            if n < minimum:
                raise ConfigurationError(
                    f"axis {axis} needs at least {minimum} nodes, got {n}"
                )

    @classmethod
    def create(
        cls,
        low: Sequence[float],
        high: Sequence[float],
        num_nodes: Sequence[int],
        periodic: Sequence[bool],
    ) -> "GlobalMesh2D":
        return cls(
            (float(low[0]), float(low[1])),
            (float(high[0]), float(high[1])),
            (int(num_nodes[0]), int(num_nodes[1])),
            (bool(periodic[0]), bool(periodic[1])),
        )

    # -- geometry -----------------------------------------------------------

    @property
    def extent(self) -> tuple[float, float]:
        return (self.high[0] - self.low[0], self.high[1] - self.low[1])

    def spacing(self, axis: int) -> float:
        """Node spacing along ``axis`` (see module docstring)."""
        n = self.num_nodes[axis]
        length = self.high[axis] - self.low[axis]
        if self.periodic[axis]:
            return length / n
        return length / (n - 1)

    @property
    def spacings(self) -> tuple[float, float]:
        return (self.spacing(0), self.spacing(1))

    @property
    def cell_area(self) -> float:
        """Parameter-space area element ΔA used by the BR quadrature."""
        return self.spacing(0) * self.spacing(1)

    def node_coordinate(self, axis: int, index: np.ndarray | int) -> np.ndarray:
        """Physical coordinate(s) of node ``index`` along ``axis``."""
        return self.low[axis] + np.asarray(index) * self.spacing(axis)

    def node_coordinates(self, space: IndexSpace) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (indexing='ij') coordinate arrays for an index box."""
        xs = self.node_coordinate(0, np.arange(space.mins[0], space.maxs[0]))
        ys = self.node_coordinate(1, np.arange(space.mins[1], space.maxs[1]))
        return np.meshgrid(xs, ys, indexing="ij")

