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
same five steps on any rank count and any cutoff.

Verlet-skin structure cache
---------------------------
With ``skin > 0`` the expensive spatial structures are built once —
the migration plan and the ghost (halo) plan at radius
``cutoff + skin``, and the chunk lists at box radius
``cutoff + √3·skin`` — and *reused* across evaluations: the exchanges
still ship fresh positions/vorticity every evaluation, but along the
frozen routing, so particles and ghosts arrive in the identical merged
order and chunk ``k`` holds the same points.  Each evaluation narrows
the cached lists to the chunk pairs whose *current* boxes come within
``cutoff`` (:func:`~repro.spatial.neighbors.narrow_pairs`).  While no
point has moved more than ``skin / 2`` since the build, no box corner
has moved more than that along any axis, so a box gap has shrunk by at
most √3·skin: the narrowed lists are exactly the lists a fresh search
over the same points would build.  On one block a cached evaluation is
therefore bitwise an uncached one; on more, the cache's ghosts come
from the wider ``cutoff + skin`` halo, so its ghost chunks, and the
last bits of its sums, differ from a ``skin = 0`` run's.  That
invariant is checked every evaluation with a backend
``max_displacement`` kernel whose result is MAX-allreduced, so every
rank takes the rebuild branch collectively.  ``rebuild_freq > 0``
additionally forces a rebuild after that many consecutive reuses.

The check, the narrowing and the rebuild/reuse decision are recorded
under a dedicated ``neighbor_cache`` trace phase (compute events
``max_displacement`` / ``neighbor_filter``), so trace replay and the
machine model both see the amortization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.core.kernels import br_velocity_within
from repro.core.surface_mesh import SurfaceMesh
from repro.mpi.comm import Comm
from repro.mpi.ops import MAX
from repro.spatial.halo import HaloPlan, halo_exchange, plan_halo
from repro.spatial.migrate import MigrationPlan, ParticleMigrator
from repro.spatial.neighbors import ChunkPairs, chunk_pairs, narrow_pairs
from repro.spatial.spatial_mesh import SpatialMesh
from repro.util.errors import ConfigurationError
from repro.util.roofline import (
    DISPLACEMENT_BYTES,
    DISPLACEMENT_FLOPS,
    FILTER_BYTES,
    FILTER_FLOPS,
    SEARCH_BYTES,
    SEARCH_CANDIDATE_FACTOR,
    SEARCH_FLOPS,
)

__all__ = ["CutoffBRSolver"]

#: The chunk lists' build radius exceeds the cutoff by this many skins:
#: a box corner moves at most ``skin / 2`` along each axis, so a box gap
#: shrinks by at most √3·skin before the cache is rebuilt.
_BOX_SKINS = 3.0 ** 0.5


@dataclass
class _SpatialCache:
    """Frozen spatial structures of one rebuild, valid while the max
    displacement since ``ref_positions`` stays below ``skin / 2``."""

    migration_plan: MigrationPlan
    halo_plan: HaloPlan
    own_pairs: ChunkPairs           # built at cutoff + √3·skin
    ghost_pairs: ChunkPairs
    ref_positions: np.ndarray       # surface-order local snapshot
    reuses: int = 0                 # consecutive reuses since the build


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
        skin: float = 0.0,
        rebuild_freq: int = 0,
    ) -> None:
        if cutoff <= 0:
            raise ConfigurationError(f"cutoff must be positive, got {cutoff}")
        if skin < 0:
            raise ConfigurationError(f"skin must be >= 0, got {skin}")
        if rebuild_freq < 0:
            raise ConfigurationError(
                f"rebuild_freq must be >= 0, got {rebuild_freq}"
            )
        self.comm = comm
        self.mesh = mesh
        self.eps = float(eps)
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self.rebuild_freq = int(rebuild_freq)
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
        self._cache: _SpatialCache | None = None
        # Diagnostics updated every evaluation (Figures 6/7 read these).
        self.last_owned_count = 0
        self.last_ghost_count = 0
        self.last_pair_count = 0
        # Cache statistics (benchmarks and campaign reports read these).
        self.rebuild_count = 0
        self.reuse_count = 0

    # -- cache policy --------------------------------------------------------

    def cache_stats(self) -> dict[str, int]:
        """Lifetime rebuild/reuse counts of the Verlet-skin cache."""
        return {"rebuilds": self.rebuild_count, "reuses": self.reuse_count}

    def _cache_valid(self, positions: np.ndarray) -> bool:
        """Collective decision: may the cached structures serve this
        evaluation?  All ranks agree via a MAX allreduce."""
        cache = self._cache
        comm = self.comm
        trace = comm.trace
        if cache is None or cache.ref_positions.shape != positions.shape:
            # Every rank sees the same build history, so this branch is
            # collective without communication.
            return False
        if self.rebuild_freq > 0 and cache.reuses >= self.rebuild_freq:
            return False
        t0 = trace.clock()
        disp = self.backend.max_displacement(positions, cache.ref_positions)
        n = positions.shape[0]
        trace.record_compute(
            "max_displacement", comm.rank,
            flops=DISPLACEMENT_FLOPS * max(n, 1),
            bytes_moved=DISPLACEMENT_BYTES * max(n, 1),
            items=n, t_wall=trace.clock_since(t0),
        )
        return comm.allreduce(disp, op=MAX) <= 0.5 * self.skin

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

        caching = self.skin > 0.0
        if caching:
            with trace.phase("neighbor_cache"):
                reuse = self._cache_valid(positions)
        else:
            reuse = False

        cache = self._cache
        radius = self.cutoff + self.skin
        mig_plan = cache.migration_plan if reuse else self.migrator.plan(positions)
        mig = self.migrator.migrate(positions, payload, plan=mig_plan)
        halo_plan = (
            cache.halo_plan
            if reuse
            else plan_halo(comm, self.spatial_mesh, mig.positions, radius)
        )
        ghosts = halo_exchange(
            comm, self.spatial_mesh, mig.positions, mig.payload, radius,
            plan=halo_plan,
        )
        owned = mig.positions

        if reuse:
            assert cache is not None
            own_pairs, ghost_pairs = cache.own_pairs, cache.ghost_pairs
            cache.reuses += 1
            self.reuse_count += 1
            trace.metrics.counter("neighbor_cache.reuses").inc()
        else:
            reach = self.cutoff + _BOX_SKINS * self.skin
            with trace.phase("neighbor"):
                t0 = trace.clock()
                own_pairs = chunk_pairs(owned, owned, reach, symmetric=True)
                ghost_pairs = chunk_pairs(owned, ghosts.positions, reach)
                search_s = trace.clock_since(t0)
            self.rebuild_count += 1
            trace.metrics.counter("neighbor_cache.rebuilds").inc()
            if caching:
                self._cache = _SpatialCache(
                    migration_plan=mig_plan,
                    halo_plan=halo_plan,
                    own_pairs=own_pairs,
                    ghost_pairs=ghost_pairs,
                    ref_positions=positions.copy(),
                )

        if caching:
            # Narrow the inflated lists to the physical cutoff against
            # the *current* boxes: exactly the lists a fresh search at
            # ``cutoff`` would build.
            with trace.phase("neighbor_cache"):
                t0 = trace.clock()
                listed = len(own_pairs.pairs) + len(ghost_pairs.pairs)
                own_pairs = narrow_pairs(own_pairs, owned, owned, self.cutoff)
                ghost_pairs = narrow_pairs(
                    ghost_pairs, owned, ghosts.positions, self.cutoff
                )
                trace.record_compute(
                    "neighbor_filter", comm.rank,
                    flops=FILTER_FLOPS * max(listed, 1),
                    bytes_moved=FILTER_BYTES * max(listed, 1)
                    + 24.0 * max(mig.count + ghosts.count, 1),
                    items=listed, t_wall=trace.clock_since(t0),
                )

        with trace.phase("br_compute"):
            velocity, pairs = br_velocity_within(
                owned, mig.payload, ghosts.positions, ghosts.payload,
                self.cutoff, self.eps, dA, own_pairs, ghost_pairs,
                trace=trace, rank=comm.rank, backend=self.backend,
            )
        if not reuse:
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
