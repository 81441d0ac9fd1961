"""SurfaceMesh: the distributed 2D interface mesh (paper §2).

One rank's block of the global mesh: the global mesh description, the
2D Cartesian communicator, the owned index box with its ghost frame,
and the halo exchange over it — the object the rest of the solver
stack works with.  Each node of the surface mesh carries the 3D
position ``z`` and two vorticity components ``(γ1, γ2)`` of one
interface point; the fields themselves live in
:class:`~repro.core.problem_manager.ProblemManager`.

The owned box is the uniform block split of
:func:`~repro.util.misc.split_extent` per axis — the same bricks
:func:`repro.fft.layouts.brick_layout` hands the distributed FFT, so
the FFT's brick layout *is* the mesh decomposition.  Local storage is
the owned box plus ``halo_width = 2`` ghosts on every side: the Z-Model
computes 4th-order central differences and Laplacians, which read two
nodes in each direction (paper §3.1, "two-node-deep stencils").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.grid.global_mesh import GlobalMesh2D
from repro.grid.halo import HaloExchange
from repro.grid.indexspace import IndexSpace
from repro.mpi.cart import CartComm, create_cart
from repro.mpi.comm import Comm
from repro.util.errors import ConfigurationError
from repro.util.misc import split_extent

__all__ = ["SurfaceMesh"]


class SurfaceMesh:
    """One rank's block of the 2D interface mesh, with its halo machinery.

    Everything the decomposition fixes is resolved here, once, and read
    as plain attributes on every evaluation.
    """

    HALO_WIDTH = 2  # two-node-deep stencils (paper §3.1)

    def __init__(
        self,
        comm: Comm,
        low: Sequence[float],
        high: Sequence[float],
        num_nodes: Sequence[int],
        periodic: Sequence[bool],
    ) -> None:
        self.global_mesh = GlobalMesh2D.create(low, high, num_nodes, periodic)
        if isinstance(comm, CartComm):
            if comm.ndims != 2:
                raise ConfigurationError("SurfaceMesh needs a 2D CartComm")
            self.cart = comm
        else:
            self.cart = create_cart(
                comm, ndims=2, periods=tuple(bool(p) for p in periodic)
            )
        cart, h = self.cart, self.HALO_WIDTH
        if cart.periods != self.global_mesh.periodic:
            raise ConfigurationError(
                f"cart periodicity {cart.periods} != mesh "
                f"{self.global_mesh.periodic}"
            )
        self.halo_width = h
        #: Global index box of the owned nodes.
        self.owned_space = IndexSpace.from_ranges([
            split_extent(n, p, c) for n, p, c in
            zip(self.global_mesh.num_nodes, cart.dims, cart.coords)
        ])
        ni, nj = self.owned_space.shape
        if min(ni, nj) < h:
            raise ConfigurationError(
                f"owned block {(ni, nj)} thinner than halo width {h}; use "
                f"fewer ranks or a bigger mesh"
            )
        self.owned_shape: tuple[int, int] = (ni, nj)
        #: Shape of local storage including the ghost frame.
        self.local_shape: tuple[int, int] = (ni + 2 * h, nj + 2 * h)
        #: Slices selecting owned nodes from a local (ghosted) array.
        self.own_slices: tuple[slice, slice] = (
            slice(h, h + ni), slice(h, h + nj)
        )
        #: Per axis, whether the (low, high) face lies on the global edge.
        self.global_boundary: tuple[tuple[bool, bool], ...] = tuple(
            (c == 0, c == d - 1) for c, d in zip(cart.coords, cart.dims)
        )
        #: Parameter-space area element ΔA of the BR quadrature.
        self.cell_area = self.global_mesh.cell_area
        self.halo = HaloExchange(self)

    def owned_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) parameter-space coordinates of owned nodes (ij indexing)."""
        return self.global_mesh.node_coordinates(self.owned_space)

    def gather(self, arrays: Sequence[np.ndarray]) -> None:
        """Halo-exchange the given full local arrays in place."""
        with self.cart.trace.phase("halo"):
            self.halo.gather(arrays)

    def __repr__(self) -> str:
        return (
            f"<SurfaceMesh {self.global_mesh.num_nodes} over "
            f"{self.cart.dims} ranks, owned={self.owned_space}>"
        )
