"""ProblemManager: the shared mesh state (paper §3.1).

Owns the two persistent fields of the Z-Model — interface position
``z`` (3 components) and vorticity ``w = (γ1, γ2)`` — and provides the
halo-gather + boundary-condition sequence every derivative evaluation
starts with.  Solvers that need ghost values for *derived* fields
(e.g. the potential Φ) go through :meth:`gather_field` so all ghost
fills share one code path.

Both fields are stored as component planes (:class:`NodeArray`):
``z.full`` is ``(3, n1 + 4, n2 + 4)``.  The state may also be a
``(B, …)`` stack of B same-grid scenarios on one rank (a
:class:`~repro.batch.ScenarioFleet` slice, bound by assigning the
stacks to ``z.full`` / ``w.full``): the gather and the boundary plan
index the two trailing (grid) axes.
"""

from __future__ import annotations

import numpy as np

from repro.core.boundary import BoundaryCondition
from repro.core.surface_mesh import SurfaceMesh
from repro.grid.array import NodeArray

__all__ = ["ProblemManager"]


class ProblemManager:
    """Holds z/w state for one rank and manages their ghost updates."""

    def __init__(self, mesh: SurfaceMesh) -> None:
        self.mesh = mesh
        self.bc = BoundaryCondition(mesh)
        self.z = NodeArray(mesh, 3, name="position")
        self.w = NodeArray(mesh, 2, name="vorticity")

    # -- state access ----------------------------------------------------------

    def set_state(self, z_own: np.ndarray, w_own: np.ndarray) -> None:
        """Install owned-state values (e.g. from an initial condition),
        given component-last as :attr:`NodeArray.own` reads them."""
        self.z.own[...] = z_own
        self.w.own[...] = w_own

    # -- ghost updates ---------------------------------------------------------

    def gather_state(self) -> None:
        """Halo-exchange z and w together, then apply boundary fixes.

        One packed exchange for both fields (4 messages total), then the
        periodic position shift / free extrapolation — the exact
        sequence Beatnik performs before each derivative computation.
        """
        self.mesh.gather([self.z.full, self.w.full])
        self.bc.apply_position(self.z.full)
        self.bc.apply_field(self.w.full)

    def gather_field(self, full: np.ndarray) -> None:
        """Halo-exchange one derived full-shape field + boundary fill."""
        self.mesh.gather([full])
        self.bc.apply_field(full)
