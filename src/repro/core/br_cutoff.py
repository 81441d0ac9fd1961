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
   ArborX substitute), over the owned points followed by the ghosts,
   each set in spatial order where that lists fewer candidates;
4. **compute** — accumulate BR forces by the masked all-pairs kernel
   over the listed sub-panels only, in one call: owned × owned
   (symmetric) and owned × ghost
   (:func:`~repro.core.kernels.br_velocity_within`);
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

import functools

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.core.kernels import br_velocity_within
from repro.core.surface_mesh import SurfaceMesh
from repro.grid import GlobalMesh2D, IndexSpace
from repro.mpi.comm import Comm
from repro.spatial.halo import halo_exchange
from repro.spatial.migrate import ParticleMigrator
from repro.spatial.neighbors import chunk_pairs, spatial_order
from repro.spatial.spatial_mesh import SpatialMesh
from repro.util.errors import ConfigurationError
from repro.util.roofline import (
    SEARCH_BYTES,
    SEARCH_CANDIDATE_FACTOR,
    SEARCH_FLOPS,
)

__all__ = ["CutoffBRSolver"]


def _tile_grid(grid: GlobalMesh2D):
    """The spatial order's grid: the mesh's corner and half its spacing,
    so chunks are the mesh's own 4 × 4 tiles."""
    return grid.low, (grid.spacing(0) / 2, grid.spacing(1) / 2)


@functools.lru_cache(maxsize=64)
def _tiles_list_fewer(grid: GlobalMesh2D, space: IndexSpace,
                      cutoff: float) -> bool:
    """Whether the block ``space`` of the flat reference mesh lists fewer
    candidate pairs within ``cutoff`` in spatial order than in mesh
    order (on a small sheet a strip is a whole mesh row, and tiles list
    no fewer).  It depends on its arguments alone, so a resumed run
    decides as the first one did, and it is cached: a campaign builds
    many solvers on one mesh."""
    x, y = np.broadcast_arrays(*grid.node_coordinates(space))
    block = np.stack([x.ravel(), y.ravel(), np.zeros(x.size)], axis=1)
    tiles = block[spatial_order(block, *_tile_grid(grid))]
    tiled, strips = (chunk_pairs(p, p, cutoff, symmetric=True)
                     for p in (tiles, block))
    return bool(tiled.candidates() < strips.candidates())


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
        # Chunks are cut in spatial order where the rank's owned block
        # of the reference mesh lists fewer candidates that way.
        self._tile_grid = _tile_grid(mesh.global_mesh)
        self.tiled = _tiles_list_fewer(mesh.global_mesh, mesh.owned_space,
                                       self.cutoff)
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
        owned = mig.count
        with trace.phase("neighbor"):
            t0 = trace.clock()
            points = np.concatenate([mig.positions, ghosts.positions])
            omega = np.concatenate([mig.payload, ghosts.payload])
            order = None
            if self.tiled:
                order = spatial_order(points, *self._tile_grid, split=owned)
                points, omega = points[order], omega[order]
            blocks = chunk_pairs(points[:owned], points, self.cutoff,
                                 symmetric=True)
            search_s = trace.clock_since(t0)

        with trace.phase("br_compute"):
            velocity, pairs = br_velocity_within(
                points[:owned], points, omega, self.cutoff, self.eps, dA,
                blocks, trace=trace, rank=comm.rank, backend=self.backend,
            )
        if order is not None:                   # back in arrival order
            velocity[order[:owned]] = velocity.copy()
        # The search is priced as the machine model prices it: a
        # cell-list search yielding the in-cutoff pairs (its SEARCH_*
        # constants), whose count is known once the sum has run.
        searched = SEARCH_CANDIDATE_FACTOR * max(pairs, 1)
        trace.record_compute(
            "neighbor_search", comm.rank,
            flops=SEARCH_FLOPS * searched,
            bytes_moved=24.0 * max(len(points), 1)
            + SEARCH_BYTES * searched,
            items=pairs, t_wall=search_s, phase="neighbor",
        )
        back = self.migrator.migrate_back(mig, velocity)
        self.last_owned_count = owned
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
