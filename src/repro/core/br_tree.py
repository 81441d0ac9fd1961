"""TreeBRSolver: Barnes-Hut far-field approximation of the BR integral.

The paper frames far-field approximation as the path past the exact
solver's O(N^2) wall; its shipped cutoff solver simply *drops* the far
field.  This solver keeps it, but evaluates it hierarchically: a
quadtree (:mod:`repro.spatial.tree`) summarizes each spatial cell by
monopole/dipole vorticity moments, and a multipole-acceptance
criterion ``theta`` decides, per (piece, node) pair, whether the
node's moment expansion is accurate enough for every point of the piece
or the walk must descend.  Pieces are the tree's own runs of up to 16
points of one leaf, global, so no decision depends on the
decomposition.  The near field — the leaves a piece can take neither
through their moments nor through their quarters' — is summed exactly
as (piece, piece) sub-panels by the all-pairs kernel the exact and
cutoff solvers use, so every compute backend stays at parity on both
halves of the sum.

Accuracy knob vs. the cutoff solver: ``theta`` bounds the *relative
geometric error* of every accepted interaction (the classic Barnes-Hut
guarantee), so accuracy degrades gracefully and tunably —
``theta -> 0`` recovers the exact solver's pair sums bit-for-bit up to
summation order, while the cutoff solver's error is fixed by how much
sheet lies beyond the radius.  Cost: O(N log N) interactions instead
of O(N^2) (exact) or O(N * density * cutoff^2) (cutoff), with none of
the cutoff pipeline's per-evaluation migrate/halo/search machinery.

Communication is one ``Allgatherv`` per evaluation (each rank
contributes its owned points + vorticity as a single ``(n, 6)`` block
and receives everyone's): every rank then builds the same global tree
and walks only the pieces holding its own targets.  That replicates
O(N) state per rank — the right trade at laptop-to-midrange scale,
where the exact solver already ships the same volume through P-1 ring
hops; the machine model prices the pattern in
:func:`repro.machine.patterns.tree_evaluation`.

Trace phases: ``tree_gather`` (the allgather), ``tree_build`` (moment
reduction, recorded as ``tree_moments``), ``tree_walk`` (MAC descent,
recorded as ``mac_walk``) and ``br_compute`` (``tree_farfield`` +
``br_neighbors`` compute events).  As everywhere, the recorded
roofline totals depend only on logical pair counts, never on which
backend ran.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.core.kernels import br_velocity_listed
from repro.core.surface_mesh import SurfaceMesh
from repro.mpi.comm import Comm
from repro.spatial.tree import build_quadtree
from repro.util.errors import ConfigurationError
from repro.util.roofline import (
    FARFIELD_BYTES,
    FARFIELD_FLOPS,
    MOMENT_BYTES,
    MOMENT_FLOPS,
    WALK_BYTES,
    WALK_FLOPS,
)

__all__ = ["TreeBRSolver"]


class TreeBRSolver:
    """Barnes-Hut BR solver: gather, build, walk, evaluate.

    Parameters
    ----------
    theta:
        Multipole-acceptance criterion in ``[0, 1)``: a node of 3D
        bounding diagonal ``size`` at centroid distance ``dist`` is
        evaluated through its moments when ``size <= theta * dist``.
        ``0`` disables far-field evaluation entirely (exact pair sums
        via the leaves); larger values trade accuracy for speed.
        Values ``>= 1`` are rejected — they would let a target accept
        a node it sits inside.
    leaf_size:
        Target points per tree leaf; sets the near-field granularity.
    """

    name = "tree"

    def __init__(
        self,
        comm: Comm,
        mesh: SurfaceMesh,
        eps: float,
        theta: float = 0.5,
        leaf_size: int = 32,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        if not 0.0 <= theta < 1.0:
            raise ConfigurationError(
                f"theta must lie in [0, 1), got {theta}"
            )
        if leaf_size < 1:
            raise ConfigurationError(
                f"leaf_size must be >= 1, got {leaf_size}"
            )
        self.comm = comm
        self.mesh = mesh
        self.eps = float(eps)
        self.theta = float(theta)
        self.leaf_size = int(leaf_size)
        self.backend = get_backend(backend)
        # Interaction statistics of the last evaluation (benchmarks and
        # campaign reports read these; compare last_pair_count with the
        # cutoff solver's).
        self.last_far_pair_count = 0
        self.last_near_pair_count = 0
        self.last_node_count = 0
        self.last_depth = 0

    # -- statistics ----------------------------------------------------------

    @property
    def last_pair_count(self) -> int:
        """Total interactions of the last evaluation (far + near)."""
        return self.last_far_pair_count + self.last_near_pair_count

    def interaction_stats(self) -> dict[str, int]:
        """Far/near interaction counts of the last evaluation."""
        return {
            "far_pairs": self.last_far_pair_count,
            "near_pairs": self.last_near_pair_count,
            "nodes": self.last_node_count,
            "depth": self.last_depth,
        }

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
        trace = comm.trace
        targets = np.ascontiguousarray(z_own.reshape(-1, 3))
        dA = self.mesh.cell_area
        nt = targets.shape[0]

        # One collective ships every rank's (positions | vorticity)
        # block to everyone; afterwards the evaluation is rank-local.
        local = np.concatenate(
            [targets, np.ascontiguousarray(omega_own.reshape(-1, 3))], axis=1
        )
        # Each rank's block arrives as a borrowed view, intact until this
        # rank's next vector collective: its positions and vorticity are
        # copied once, straight to their rows.
        blocks: list = [None] * comm.size
        with trace.phase("tree_gather"):
            comm.Allgatherv(local, into=blocks.__setitem__)
        n_global = sum(len(b) for b in blocks)
        sources = np.empty((n_global, 3))
        source_omega = np.empty((n_global, 3))
        row = 0
        for block in blocks:
            sources[row:row + len(block)] = block[:, 0:3]
            source_omega[row:row + len(block)] = block[:, 3:6]
            row += len(block)

        with trace.phase("tree_build"):
            t0 = trace.clock()
            tree = build_quadtree(
                sources, source_omega, self.leaf_size, backend=self.backend
            )
            trace.record_compute(
                "tree_moments", comm.rank,
                flops=MOMENT_FLOPS * n_global,
                bytes_moved=MOMENT_BYTES * n_global,
                items=n_global, t_wall=trace.clock_since(t0),
            )
            trace.metrics.counter("tree.builds").inc()

        # This rank's rows of the gathered points, in the tree's sorted
        # order: it walks the pieces holding them.
        first = sum(len(b) for b in blocks[:comm.rank])
        mine = (tree.order >= first) & (tree.order < first + nt)
        held = np.flatnonzero(
            (mine[tree.pieces] & (tree.pieces >= 0)).any(axis=1))
        with trace.phase("tree_walk"):
            t0 = trace.clock()
            pairs = tree.mac_pairs(self.theta, held)
            trace.record_compute(
                "mac_walk", comm.rank,
                flops=WALK_FLOPS * max(pairs.examined, 1),
                bytes_moved=WALK_BYTES * max(pairs.examined, 1),
                items=pairs.examined, t_wall=trace.clock_since(t0),
            )

        # Velocities of the walked pieces' points, in sorted order.
        velocity = np.zeros((n_global, 3))
        with trace.phase("br_compute"):
            if pairs.far_count:
                t0 = trace.clock()
                self.backend.farfield_eval(
                    tree.points,
                    tree.node_center,
                    tree.node_m,
                    tree.node_s,
                    tree.node_q,
                    tree.pieces[pairs.pieces],
                    pairs.far_pieces,
                    pairs.far_nodes,
                    self.eps ** 2,
                    dA / (4.0 * np.pi),
                    velocity,
                )
                trace.record_compute(
                    "tree_farfield", comm.rank,
                    flops=FARFIELD_FLOPS * pairs.far_count,
                    bytes_moved=FARFIELD_BYTES * pairs.far_count,
                    items=pairs.far_count, t_wall=trace.clock_since(t0),
                )
            if pairs.near_count:
                near = br_velocity_listed(
                    tree.piece_points, tree.piece_omega, pairs.near,
                    pairs.near_count, self.eps, dA, trace=trace,
                    rank=comm.rank, backend=self.backend,
                )
                filled = tree.pieces >= 0
                velocity[tree.pieces[filled]] += near[filled.ravel()]
        out = np.empty_like(velocity)
        out[tree.order] = velocity

        self.last_far_pair_count = pairs.far_count
        self.last_near_pair_count = pairs.near_count
        self.last_node_count = tree.num_nodes
        self.last_depth = tree.depth
        return out[first:first + nt].reshape(z_own.shape)
