"""Per-rank view of the global 2D mesh: owned box + ghost frame.

A :class:`LocalGrid2D` ties together the global mesh, the Cartesian
communicator, and the block partition, and answers all local/global
indexing questions: the owned global index box, the shape of local
storage (owned + ``halo_width`` ghosts on every side), and the
coordinate arrays solver code needs for initial conditions.

Beatnik uses ``halo_width = 2``: the ZModel computes 4th-order central
differences and Laplacians, which read two nodes in each direction
(paper §3.1, "two-node-deep stencils").
"""

from __future__ import annotations

import numpy as np

from repro.grid.global_mesh import GlobalMesh2D
from repro.grid.partition import BlockPartitioner2D
from repro.mpi.cart import CartComm
from repro.util.errors import ConfigurationError

__all__ = ["LocalGrid2D"]


class LocalGrid2D:
    """The block of the global mesh owned by one Cartesian rank."""

    def __init__(
        self,
        global_mesh: GlobalMesh2D,
        cart: CartComm,
        halo_width: int = 2,
    ) -> None:
        if cart.ndims != 2:
            raise ConfigurationError("LocalGrid2D requires a 2D Cartesian comm")
        if halo_width < 0:
            raise ConfigurationError(f"halo_width must be >= 0, got {halo_width}")
        self.global_mesh = global_mesh
        self.cart = cart
        self.halo_width = halo_width
        self.partitioner = BlockPartitioner2D(global_mesh.num_nodes, cart.dims)
        self.owned_space = self.partitioner.owned_space(cart.coords)
        for axis in range(2):
            if self.owned_space.shape[axis] < halo_width:
                raise ConfigurationError(
                    f"owned block {self.owned_space.shape} thinner than halo "
                    f"width {halo_width} on axis {axis}; use fewer ranks or a "
                    f"bigger mesh"
                )

        # Fixed by the decomposition, read on every evaluation: plain
        # attributes, resolved once.
        ni, nj = self.owned_space.shape
        h = halo_width
        self.owned_shape: tuple[int, int] = (ni, nj)
        #: Shape of local storage including the ghost frame.
        self.local_shape: tuple[int, int] = (ni + 2 * h, nj + 2 * h)
        #: Global index corresponding to local array element (0, 0).
        self.local_origin: tuple[int, int] = (
            self.owned_space.mins[0] - h, self.owned_space.mins[1] - h
        )
        #: Slices selecting owned nodes from a local (ghosted) array.
        self.own_slices: tuple[slice, slice] = (
            slice(h, h + ni), slice(h, h + nj)
        )
        #: Per axis, whether the (low, high) face lies on the global edge.
        self.global_boundary: tuple[tuple[bool, bool], ...] = tuple(
            (c == 0, c == d - 1) for c, d in zip(cart.coords, cart.dims)
        )

    # -- coordinates ---------------------------------------------------------

    def owned_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) parameter-space coordinates of owned nodes (ij indexing)."""
        return self.global_mesh.node_coordinates(self.owned_space)

    def local_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) coordinates for the full local box including ghosts.

        Ghost coordinates extend past the domain edge linearly; for
        periodic axes the *position correction* (shifting by the domain
        extent) is the job of the boundary-condition code, mirroring
        Beatnik's ``BoundaryCondition`` class.
        """
        ghost_box = self.owned_space.grow(self.halo_width)
        xs = self.global_mesh.node_coordinate(
            0, np.arange(ghost_box.mins[0], ghost_box.maxs[0])
        )
        ys = self.global_mesh.node_coordinate(
            1, np.arange(ghost_box.mins[1], ghost_box.maxs[1])
        )
        return np.meshgrid(xs, ys, indexing="ij")

    # -- neighbours ---------------------------------------------------------

    def neighbor(self, offset: tuple[int, int]) -> int:
        """Rank at relative Cartesian offset (PROC_NULL past open edges)."""
        return self.cart.neighbor(offset)

    def on_global_boundary(self, axis: int, side: int) -> bool:
        """True when this block touches the global edge of ``axis``.

        ``side`` is -1 (low) or +1 (high).  Used by the boundary
        condition code to decide where to extrapolate instead of
        exchanging halos.
        """
        if side not in (-1, 1):
            raise ConfigurationError(f"side must be ±1, got {side}")
        return self.global_boundary[axis][side == 1]

    def __repr__(self) -> str:
        return (
            f"<LocalGrid2D coords={self.cart.coords} owned={self.owned_space} "
            f"halo={self.halo_width}>"
        )
