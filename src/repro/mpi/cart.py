"""Cartesian communicators (the analogue of ``MPI_Cart_create``).

Beatnik decomposes its 2D surface mesh and 3D spatial mesh over
Cartesian process grids; the grid and spatial layers build on this
module.  Ranks are ordered row-major over ``dims`` exactly as in MPI's
default Cartesian ordering, and neighbour lookups honour per-dimension
periodicity by returning :data:`~repro.mpi.world.PROC_NULL` at open
boundaries.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.mpi.comm import Comm
from repro.mpi.world import PROC_NULL
from repro.util.errors import ConfigurationError
from repro.util.misc import dims_create, prod

__all__ = ["CartComm", "create_cart"]


class CartComm(Comm):
    """A communicator with an attached Cartesian topology."""

    def __init__(
        self,
        world,
        comm_id: int,
        rank: int,
        size: int,
        dims: Sequence[int],
        periods: Sequence[bool],
    ) -> None:
        super().__init__(world, comm_id, rank, size)
        if prod(dims) != size:
            raise ConfigurationError(
                f"dims {tuple(dims)} do not multiply to comm size {size}"
            )
        if len(dims) != len(periods):
            raise ConfigurationError("dims and periods must have equal length")
        self._dims = tuple(int(d) for d in dims)
        self._periods = tuple(bool(p) for p in periods)
        #: This rank's process-grid coordinates (fixed for the comm's life).
        self.coords = self.coords_of(rank)

    # -- topology ---------------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def periods(self) -> tuple[bool, ...]:
        return self._periods

    @property
    def ndims(self) -> int:
        return len(self._dims)

    def coords_of(self, rank: int) -> tuple[int, ...]:
        """Row-major coordinates of ``rank`` in the process grid."""
        if not 0 <= rank < self.size:
            raise ConfigurationError(f"rank {rank} out of range")
        coords = []
        remainder = rank
        for extent in reversed(self._dims):
            coords.append(remainder % extent)
            remainder //= extent
        return tuple(reversed(coords))

    def rank_of(self, coords: Sequence[int]) -> int:
        """Rank at ``coords``; PROC_NULL for out-of-range open boundaries.

        Periodic dimensions wrap; non-periodic coordinates outside the
        grid map to :data:`PROC_NULL`.
        """
        if len(coords) != self.ndims:
            raise ConfigurationError(
                f"expected {self.ndims} coordinates, got {len(coords)}"
            )
        normalized = []
        for c, extent, periodic in zip(coords, self._dims, self._periods):
            if periodic:
                normalized.append(int(c) % extent)
            elif 0 <= c < extent:
                normalized.append(int(c))
            else:
                return PROC_NULL
        rank = 0
        for c, extent in zip(normalized, self._dims):
            rank = rank * extent + c
        return rank

    def neighbor(self, offset: Sequence[int]) -> int:
        """Rank at ``coords + offset`` (PROC_NULL past open boundaries)."""
        if len(offset) != self.ndims:
            raise ConfigurationError("offset dimensionality mismatch")
        target = [c + o for c, o in zip(self.coords, offset)]
        return self.rank_of(target)


def create_cart(
    comm: Comm,
    dims: Optional[Sequence[int]] = None,
    periods: Optional[Sequence[bool]] = None,
    ndims: int = 2,
) -> CartComm:
    """Attach a Cartesian topology to ``comm``'s group.

    When ``dims`` is None, factors the communicator size as squarely as
    possible into ``ndims`` dimensions (like ``MPI_Dims_create``).
    """
    if dims is None:
        dims = dims_create(comm.size, ndims)
    if periods is None:
        periods = [True] * len(dims)
    if prod(dims) != comm.size:
        raise ConfigurationError(
            f"dims {tuple(dims)} incompatible with comm size {comm.size}"
        )
    # All members agree on a fresh context id through a Dup-style collective.
    dup = comm.Dup()
    return CartComm(comm._world, dup.id, comm.rank, comm.size, dims, periods)
