"""Cutoff ghost exchange on the spatial mesh (paper §3.2 step 2).

After migration, each rank owns the particles inside its x/y block.
Force evaluation needs every particle within ``cutoff`` of an owned
particle, so each rank ships copies of its near-boundary particles to
the blocks whose rectangles they can influence.  Afterwards, for every
owned particle, all potential interaction partners are locally
available (owned ∪ ghosts) — a completeness property the test suite
checks against a serial all-pairs oracle.

The exchange is dynamic and irregular: which particles go where depends
on their evolving spatial positions, which is exactly the communication
behaviour the single-mode benchmark is designed to stress.

A one-block mesh has no neighbouring block, so the hop is an identity
decided by structure alone: :func:`halo_exchange` yields no ghosts
without looking at a position or a rendezvous, after the same
row-count and cutoff checks; nothing is recorded — no
``spatial_halo`` phase, no comm event.  Hops on two or more blocks
label themselves with the ``spatial_halo`` trace phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpi.comm import Comm
from repro.spatial.migrate import route_rows
from repro.spatial.spatial_mesh import SpatialMesh
from repro.util.errors import CommunicationError, ConfigurationError

__all__ = ["halo_exchange", "HaloResult"]


@dataclass
class HaloResult:
    """Ghost particles received from neighbouring blocks."""

    positions: np.ndarray  # (g, 3)
    payload: np.ndarray    # (g, k)
    sent_copies: int       # number of particle copies this rank shipped

    @property
    def count(self) -> int:
        return self.positions.shape[0]


def halo_exchange(
    comm: Comm,
    mesh: SpatialMesh,
    positions: np.ndarray,
    payload: np.ndarray,
    cutoff: float,
) -> HaloResult:
    """Ship copies of near-boundary owned particles to affected blocks.

    ``positions`` is ``(n, 3)`` float64 and ``payload`` ``(n, k)``
    float64 (``k`` may be 0; a 1-D payload is treated as one column),
    this rank's owned particles after migration (so ``comm.rank`` owns
    each one and no owner is looked up again); inputs are never
    modified and the returned ghost arrays are fresh copies.  Handles
    cutoffs larger than a block width (copies then travel more than
    one block).  Collective: every rank must call it, even with zero
    particles to ship.  A particle near a corner is copied once per
    destination block.
    """
    if mesh.nblocks != comm.size:
        raise CommunicationError(
            f"spatial mesh has {mesh.nblocks} blocks for comm of size {comm.size}"
        )
    pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    pay = np.asarray(payload, dtype=np.float64)
    if pay.ndim == 1:
        pay = pay.reshape(-1, 1) if pay.size else pay.reshape(pos.shape[0], 0)
    if pay.shape[0] != pos.shape[0]:
        raise CommunicationError(
            f"payload rows {pay.shape[0]} != positions rows {pos.shape[0]}"
        )
    if cutoff <= 0:
        raise ConfigurationError(f"cutoff must be positive, got {cutoff}")
    k = pay.shape[1]
    if mesh.nblocks == 1:
        return HaloResult(
            positions=np.empty((0, 3)), payload=np.empty((0, k)), sent_copies=0
        )
    with comm.trace.phase("spatial_halo"):
        point_idx, dest_rank = mesh.halo_targets(pos, cutoff, comm.rank)
        record = np.concatenate([pos[point_idx], pay[point_idx]], axis=1)
        merged = route_rows(comm, record, dest_rank)
        return HaloResult(
            positions=merged[:, 0:3].copy(),
            payload=merged[:, 3:].copy(),
            sent_copies=int(point_idx.shape[0]),
        )
