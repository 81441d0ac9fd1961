"""ExactBRSolver: brute-force Birkhoff-Rott with a ring pass (paper §3.2).

Computes the exact (desingularized) BR integral over *all* surface
points: O(n²) pairs, included "to enable evaluation of the
accuracy/performance tradeoffs of approximate Birchoff-Rott solvers".

Communication is the standard ring algorithm: each rank's point block
circulates around all P ranks in P−1 hops while every rank accumulates
forces from whichever block is visiting — regular, bandwidth-heavy,
compute-bound communication.  The visiting payload packs positions and
vorticity vectors into one ``(m, 6)`` array, one message per hop.

Periodic images
---------------
Beatnik's shipped BR solvers integrate over a single period (the paper
lists "periodic boundary conditions for scalable high-order solves" as
future work), so on periodic domains the direct sum systematically
underestimates the Riesz-multiplier velocity by the missing image
contributions (~20 % for low modes — measured during development).
``periodic_images=True`` implements that future-work item: each
visiting block is accumulated 9 times, shifted over the 3×3 ring of
periodic copies, which tests show captures the image correction to
first order in the grid spacing with no additional communication.

Stacks
------
The solver also steps a ``(B, ni, nj, 3)`` stack of B same-grid
scenarios (a :class:`~repro.batch.ScenarioFleet` slice on one rank),
each with its own ε: ``eps`` is then a ``(B,)`` array, and every
scenario gets exactly the velocity it would get alone.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.core.kernels import br_velocity_allpairs
from repro.core.surface_mesh import SurfaceMesh
from repro.mpi.comm import Comm

__all__ = ["ExactBRSolver", "image_shifts"]

_RING_TAG = 7300


def image_shifts(extent: tuple[float, float]) -> list[tuple[float, float]]:
    """Lateral ``(x, y)`` shifts of the 3×3 ring of periodic copies of a
    domain of this extent, the unshifted copy included."""
    return [
        (sx * extent[0], sy * extent[1])
        for sx in (-1, 0, 1)
        for sy in (-1, 0, 1)
    ]


class ExactBRSolver:
    """All-pairs BR solver with ring-pass communication."""

    name = "exact"

    def __init__(
        self,
        comm: Comm,
        mesh: SurfaceMesh,
        eps: "float | np.ndarray",
        periodic_images: bool = False,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        self.comm = comm
        self.mesh = mesh
        self.eps = eps
        self.backend = get_backend(backend)
        self.periodic_images = bool(periodic_images)
        if self.periodic_images and not all(mesh.global_mesh.periodic):
            from repro.util.errors import ConfigurationError

            raise ConfigurationError(
                "periodic_images requires a fully periodic surface mesh"
            )
        self._shifts = (
            image_shifts(mesh.global_mesh.extent)
            if self.periodic_images else [(0.0, 0.0)]
        )

    def compute_velocities(
        self, z_own: np.ndarray, omega_own: np.ndarray
    ) -> np.ndarray:
        """BR velocity on owned nodes; shapes ``(..., ni, nj, 3)`` in and
        out (one block, or a stack of them)."""
        comm = self.comm
        nb = int(np.prod(z_own.shape[:-3]))
        targets = np.ascontiguousarray(z_own.reshape(nb, -1, 3))
        dA = self.mesh.cell_area
        out = np.zeros_like(targets)

        visiting = np.concatenate(
            [targets, np.ascontiguousarray(omega_own.reshape(nb, -1, 3))],
            axis=2,
        )
        dest = (comm.rank + 1) % comm.size
        src = (comm.rank - 1) % comm.size

        with comm.trace.phase("br_ring"):
            for hop in range(comm.size):
                block = visiting.reshape(nb, -1, 6)
                for sx, sy in self._shifts:
                    sources = block[..., 0:3]
                    if sx or sy:
                        sources = sources + np.array([sx, sy, 0.0])
                    # Hop 0's unshifted block is this rank's own point
                    # set: the backend may reuse the symmetric pair
                    # geometry there.
                    out += br_velocity_allpairs(
                        targets,
                        sources,
                        block[..., 3:6],
                        self.eps,
                        dA,
                        trace=comm.trace,
                        rank=comm.rank,
                        backend=self.backend,
                        symmetric=(hop == 0 and not sx and not sy),
                    )
                if hop < comm.size - 1 and comm.size > 1:
                    visiting = comm.Sendrecv(
                        visiting, dest, _RING_TAG, None, src, _RING_TAG
                    )
        return out.reshape(z_own.shape)
