"""Position-based particle migration (the CabanaPD ``HaloComm`` analogue).

Implements steps 1 and 5 of the cutoff solver's per-derivative pipeline
(paper §3.2): move each surface point from its 2D surface-index owner
to its 3D spatial owner, compute there, and route the result back to
the original owner *in the original order*.

Every migrated particle carries provenance (source rank, source-local
index) so :meth:`ParticleMigrator.migrate_back` is exact regardless of
how the exchange reordered particles.

Both hops, and the spatial halo of :mod:`repro.spatial.halo`, go
through one router, :func:`route_rows`: each builds a float64 record
per row and hands it the destination ranks.  The router sorts the
records by destination, makes a single ``exchange_arrays``
(alltoallv-equivalent) and copies each receipt once into its result,
in source-rank order.  That exchange is what the machine model costs
for the ``migrate`` and ``spatial_halo`` phases, at the widths of the
three hops' records.

One-block meshes
----------------
On a mesh with one block every particle already sits on its spatial
owner, so each hop is an identity decided by structure alone (every
rank sees the same mesh, so nothing need be agreed): :meth:`migrate`
/ :meth:`migrate_back` hand back fresh arrays in the caller's order
without an owner lookup, packing, sorting or exchanging, and nothing
is recorded — no ``migrate`` phase, no comm event.  The row-count
checks and the provenance fields are the same on both sides of the
rule.  Hops that do move data label themselves with the ``migrate``
trace phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpi.comm import Comm
from repro.spatial.spatial_mesh import SpatialMesh
from repro.util.errors import CommunicationError

__all__ = ["ParticleMigrator", "Migration", "route_rows"]


@dataclass
class Migration:
    """Particles this rank received (owns spatially) after migration.

    Attributes
    ----------
    positions:
        ``(m, 3)`` spatial positions of the received particles.
    payload:
        ``(m, k)`` caller data carried along (vorticity, weights, ...).
    src_rank / src_index:
        Provenance: where each particle came from and its local index
        there.  ``migrate_back`` uses these for exact return routing.
    sent_count:
        Number of particles this rank originally contributed.
    """

    positions: np.ndarray
    payload: np.ndarray
    src_rank: np.ndarray
    src_index: np.ndarray
    sent_count: int

    @property
    def count(self) -> int:
        return self.positions.shape[0]


class ParticleMigrator:
    """Reusable migrate / migrate-back engine over one communicator.

    Holds no per-call state beyond the (comm, mesh) binding, so one
    instance serves every evaluation of a solver run.  All exchanges
    are collective: every rank must call :meth:`migrate` and
    :meth:`migrate_back` the same number of times, in the same order.
    """

    def __init__(self, comm: Comm, mesh: SpatialMesh) -> None:
        if mesh.nblocks != comm.size:
            raise CommunicationError(
                f"spatial mesh has {mesh.nblocks} blocks for comm of size {comm.size}"
            )
        self.comm = comm
        self.mesh = mesh

    def migrate(self, positions: np.ndarray, payload: np.ndarray) -> Migration:
        """Send every particle to its spatial owner; receive mine.

        ``positions`` is ``(n, 3)`` float64; ``payload`` is ``(n, k)``
        float64 (``k`` may be 0; a 1-D payload is treated as one
        column).  Returns the particles this rank now owns spatially;
        inputs are never modified, and the returned arrays are fresh
        copies safe to mutate.
        """
        comm = self.comm
        pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        pay = np.asarray(payload, dtype=np.float64)
        if pay.ndim == 1:
            pay = pay.reshape(-1, 1) if pay.size else pay.reshape(pos.shape[0], 0)
        n = pos.shape[0]
        if pay.shape[0] != n:
            raise CommunicationError(
                f"payload rows {pay.shape[0]} != positions rows {n}"
            )
        if self.mesh.nblocks == 1:
            return Migration(
                positions=pos.copy(),
                payload=pay.copy(),
                src_rank=np.zeros(n, dtype=np.int64),
                src_index=np.arange(n, dtype=np.int64),
                sent_count=n,
            )
        with comm.trace.phase("migrate"):
            owners = self.mesh.owner_of(pos) if n else np.empty(0, dtype=np.int64)
            # Record: [x y z | payload... | src_rank src_index]
            k = pay.shape[1]
            record = np.empty((n, 3 + k + 2), dtype=np.float64)
            record[:, 0:3] = pos
            record[:, 3: 3 + k] = pay
            record[:, -2] = comm.rank
            record[:, -1] = np.arange(n, dtype=np.float64)
            merged = route_rows(comm, record, owners)
            return Migration(
                positions=merged[:, 0:3].copy(),
                payload=merged[:, 3: 3 + k].copy(),
                src_rank=merged[:, -2].astype(np.int64),
                src_index=merged[:, -1].astype(np.int64),
                sent_count=n,
            )

    def migrate_back(self, migration: Migration, results: np.ndarray) -> np.ndarray:
        """Return per-particle ``results`` to the original owners.

        ``results`` is ``(m, j)`` float64, row-aligned with
        ``migration``'s particles (a 1-D array is treated as one
        column).  The return value is ``(n, j)`` on each rank, ordered
        exactly like the positions originally passed to
        :meth:`migrate` — the provenance indices make the round trip
        exact even though the exchange reordered particles.  Raises
        :class:`~repro.util.errors.CommunicationError` if any particle
        fails to return (a routing bug, never a data-dependent event).
        """
        comm = self.comm
        res = np.asarray(results, dtype=np.float64)
        if res.ndim == 1:
            res = res.reshape(-1, 1)
        if res.shape[0] != migration.count:
            raise CommunicationError(
                f"results rows {res.shape[0]} != migrated particles {migration.count}"
            )
        j = res.shape[1]
        if self.mesh.nblocks == 1:
            idx, rows = migration.src_index, res
        else:
            with comm.trace.phase("migrate"):
                record = np.empty((migration.count, j + 1), dtype=np.float64)
                record[:, 0] = migration.src_index
                record[:, 1:] = res
                merged = route_rows(comm, record, migration.src_rank)
            idx, rows = merged[:, 0].astype(np.int64), merged[:, 1:]
        if idx.shape[0] != migration.sent_count:
            raise CommunicationError(
                f"migrate_back returned {idx.shape[0]} of "
                f"{migration.sent_count} particles"
            )
        out = np.empty((migration.sent_count, j), dtype=np.float64)
        out[idx] = rows
        return out


def route_rows(comm: Comm, rows: np.ndarray, dest: np.ndarray) -> np.ndarray:
    """Send row ``i`` of ``rows`` to rank ``dest[i]``; return the rows
    this rank receives.

    ``rows`` is ``(n, w)`` and ``dest`` ``(n,)`` integer ranks.  The
    result is a fresh ``(m, w)`` array of every rank's rows addressed
    here, in source-rank order and, within one source, in that source's
    row order.  Collective: every rank calls it with the same ``w``,
    even with no rows.  One ``exchange_arrays(into=)`` carries it, so
    each receipt — this rank's own rows included — is copied once, from
    where it arrived, into the result.
    """
    order = np.argsort(dest, kind="stable")
    bounds = np.searchsorted(dest[order], np.arange(comm.size + 1))
    ordered = rows[order]
    per_dest = [ordered[lo:hi] if hi > lo else None
                for lo, hi in zip(bounds[:-1], bounds[1:])]
    # The peers' views are borrowed from their send buffers, intact
    # until this rank's next vector collective: the concatenation below
    # is their one copy.
    arrived: list[np.ndarray] = []
    comm.exchange_arrays(per_dest, into=lambda src, view: arrived.append(view))
    if not arrived:
        return np.empty((0, rows.shape[1]), dtype=rows.dtype)
    return np.concatenate(arrived)
