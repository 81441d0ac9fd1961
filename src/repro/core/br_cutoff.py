"""CutoffBRSolver: the scalable approximate BR solver (paper §3.2).

Approximates the Birkhoff-Rott integral by summing only over points
within a 3D ``cutoff`` distance.  The five-step pipeline per derivative
evaluation, with its dynamic and irregular communication, follows the
paper exactly:

1. **migrate** — move each 2D-surface-decomposed point to its 3D
   spatial owner (2D x/y block decomposition of space);
2. **spatial halo** — ship copies of near-boundary points so every
   owner sees all sources within ``cutoff`` of its points;
3. **neighbor search** — the chunk pairs whose bounding boxes come
   within the cutoff (:func:`~repro.spatial.neighbors.chunk_pairs`, the
   ArborX substitute);
4. **compute** — accumulate BR forces by the masked all-pairs kernel
   over the listed sub-panels only: owned × owned (symmetric) plus
   owned × ghost (:func:`~repro.core.kernels.br_velocity_within`);
5. **migrate back** — return each point's velocity to its original
   surface-decomposition owner, in original order.

The cutoff sets the accuracy/performance tradeoff; the solver has no
direct tolerance knob (unlike FMM), exactly as the paper discusses.

Steps 1, 2 and 5 belong to :mod:`repro.spatial`, which labels them with
the ``migrate`` / ``spatial_halo`` trace phases itself — when they move
something.  The spatial mesh mirrors the surface decomposition, so on
one rank it has one block and those hops are identities there (no
packing, no sort, no ``exchange_arrays``, no phase, no comm event; the
row-count checks and fresh-copy contract are kept): this class runs the
same five steps on any rank count and any cutoff, and rebuilds every
structure (routing, ghosts, chunk lists) on every evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.core.kernels import br_velocity_within
from repro.core.surface_mesh import SurfaceMesh
from repro.mpi.comm import Comm
from repro.spatial.halo import halo_exchange
from repro.spatial.migrate import ParticleMigrator
from repro.spatial.neighbors import chunk_pairs
from repro.spatial.spatial_mesh import SpatialMesh
from repro.util.errors import ConfigurationError
from repro.util.roofline import (
    SEARCH_BYTES,
    SEARCH_CANDIDATE_FACTOR,
    SEARCH_FLOPS,
)

__all__ = ["CutoffBRSolver"]


class CutoffBRSolver:
    """Cutoff-based BR solver over the spatial mesh."""

    name = "cutoff"

    def __init__(
        self,
        comm: Comm,
        mesh: SurfaceMesh,
        eps: float,
        cutoff: float,
        spatial_low: tuple[float, float, float],
        spatial_high: tuple[float, float, float],
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        if cutoff <= 0:
            raise ConfigurationError(f"cutoff must be positive, got {cutoff}")
        self.comm = comm
        self.mesh = mesh
        self.eps = float(eps)
        self.cutoff = float(cutoff)
        self.backend = get_backend(backend)
        # Mirror the surface decomposition in the spatial mesh (paper:
        # "2D x/y block decomposition of the 3D space to mirror the
        # initial distribution of 2D surface points").
        self.spatial_mesh = SpatialMesh(
            tuple(map(float, spatial_low)),
            tuple(map(float, spatial_high)),
            mesh.cart.dims,
        )
        self.migrator = ParticleMigrator(comm, self.spatial_mesh)
        # Diagnostics updated every evaluation (Figures 6/7 read these).
        self.last_owned_count = 0
        self.last_ghost_count = 0
        self.last_pair_count = 0

    # -- evaluation ----------------------------------------------------------

    def compute_velocities(
        self, z_own: np.ndarray, omega_own: np.ndarray
    ) -> np.ndarray:
        """BR velocity on owned nodes; shapes ``(ni, nj, 3)`` (or a stack
        of one) in and out."""
        if np.prod(z_own.shape[:-3]) > 1:
            raise ConfigurationError(
                f"the {self.name} BR solver steps one scenario, not a stack "
                f"of {z_own.shape[0]}"
            )
        comm = self.comm
        positions = np.ascontiguousarray(z_own.reshape(-1, 3))
        payload = np.ascontiguousarray(omega_own.reshape(-1, 3))
        dA = self.mesh.cell_area
        trace = comm.trace

        mig = self.migrator.migrate(positions, payload)
        ghosts = halo_exchange(
            comm, self.spatial_mesh, mig.positions, mig.payload, self.cutoff
        )
        owned = mig.positions
        with trace.phase("neighbor"):
            t0 = trace.clock()
            own_pairs = chunk_pairs(owned, owned, self.cutoff, symmetric=True)
            ghost_pairs = chunk_pairs(owned, ghosts.positions, self.cutoff)
            search_s = trace.clock_since(t0)

        with trace.phase("br_compute"):
            velocity, pairs = br_velocity_within(
                owned, mig.payload, ghosts.positions, ghosts.payload,
                self.cutoff, self.eps, dA, own_pairs, ghost_pairs,
                trace=trace, rank=comm.rank, backend=self.backend,
            )
        # The search is priced as the machine model prices it: a
        # cell-list search yielding the in-cutoff pairs (its SEARCH_*
        # constants), whose count is known once the sum has run.
        searched = SEARCH_CANDIDATE_FACTOR * max(pairs, 1)
        trace.record_compute(
            "neighbor_search", comm.rank,
            flops=SEARCH_FLOPS * searched,
            bytes_moved=24.0 * max(mig.count + ghosts.count, 1)
            + SEARCH_BYTES * searched,
            items=pairs, t_wall=search_s, phase="neighbor",
        )
        back = self.migrator.migrate_back(mig, velocity)
        self.last_owned_count = mig.count
        self.last_ghost_count = ghosts.count
        self.last_pair_count = pairs
        return back.reshape(z_own.shape)

    def ownership_counts(self) -> np.ndarray:
        """Spatially owned point count per rank after the last evaluation.

        This is the quantity plotted in the paper's Figures 6 and 7
        (particles owned by each rank as the interface rolls up).
        """
        counts = self.comm.allgather(self.last_owned_count)
        return np.asarray(counts, dtype=np.int64)
