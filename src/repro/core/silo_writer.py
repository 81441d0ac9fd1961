"""SiloWriter analogue: periodic surface dumps for visualization.

Beatnik's ``SiloWriter`` "uses the Silo library to write surface mesh
data for visualization" (paper §3.1).  Here the surface is gathered to
rank 0 and written as legacy VTK, producing the same artifact as the
paper's Figures 1/2: the interface surface colored by vorticity
magnitude.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.core.diagnostics import gather_global_state, vorticity_magnitude
from repro.core.solver import Solver
from repro.io.vtk import write_vtk_surface

__all__ = ["SiloWriter"]


class SiloWriter:
    """Writes ``<basename>_NNNNN.vtk`` snapshots from a running solver."""

    def __init__(
        self, directory: str | os.PathLike, basename: str = "surface"
    ) -> None:
        self.directory = os.fspath(directory)
        self.basename = basename
        self.written: list[str] = []

    def __call__(self, solver: Solver) -> Optional[str]:
        """Write the current state; returns the VTK path on rank 0."""
        z_global, w_global = gather_global_state(solver.pm)
        if z_global is None:
            return None
        path = os.path.join(
            self.directory, f"{self.basename}_{solver.step_count:05d}.vtk"
        )
        write_vtk_surface(
            path,
            z_global,
            fields={
                "vorticity_magnitude": vorticity_magnitude(w_global),
                "vorticity": np.concatenate(
                    [w_global, np.zeros_like(w_global[..., :1])], axis=-1
                ),
            },
            title=f"beatnik t={solver.time:.6f} step={solver.step_count}",
        )
        self.written.append(path)
        return path
