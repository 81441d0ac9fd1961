"""Depth-``h`` halo exchange on the 2D block decomposition.

Implements Cabana's halo ``gather`` for node arrays: after the
exchange, each rank's ghost frame holds its neighbours' adjacent
interior data.  The exchange is two-phase:

1. axis 0: swap ``h``-row slabs of *owned columns* with the ±x
   neighbours;
2. axis 1: swap ``h``-column slabs spanning the *full local extent of
   axis 0 including the ghosts just received* with the ±y neighbours.

Phase 2 forwarding of phase-1 ghosts is what fills the corner ghosts
without explicit diagonal messages — 4 messages per rank instead of 8,
the standard structured-halo trick (and what Cabana does for node
fields).

Multiple arrays are packed into a single buffer per direction, so a
halo gather of position+vorticity costs 4 messages regardless of the
number of fields — matching how Beatnik amortizes halo latency.

Periodicity is inherited from the Cartesian communicator: open edges
have :data:`~repro.mpi.world.PROC_NULL` neighbours and their ghosts are
left untouched (the boundary-condition code extrapolates into them).

Slabs index the two trailing (grid) axes, so one plan gathers a
block's ``(c, ni + 2h, nj + 2h)`` component planes, a field and a
fleet's ``(B, c, …)`` stacks (:mod:`repro.batch`) alike: a stack still
travels in the same 4 messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.mpi.world import PROC_NULL
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.surface_mesh import SurfaceMesh

__all__ = ["HaloExchange"]

_TAG_BASE = 7100


class HaloExchange:
    """Reusable halo-exchange plan for one rank's mesh block.

    The decomposition fixes who talks to whom and which slabs travel,
    so the four ``(tag, source, destination, send slab, receive slab)``
    entries are resolved here, once; :meth:`gather` only executes them.
    A periodic one-block axis keeps its two self-sends: they are what
    wraps the ghosts (and what the message counts of a run report).
    """

    def __init__(self, mesh: SurfaceMesh) -> None:
        self.mesh = mesh
        self.h = mesh.halo_width
        cart = mesh.cart
        self._plan = []
        for phase, axis in enumerate((0, 1)):
            for dir_index, sign in enumerate((-1, 1)):
                # My face-`sign` ghosts come from my `sign` neighbour;
                # symmetrically my face-`(-sign)`-adjacent interior goes
                # to my `-sign` neighbour.
                offset = [0, 0]
                offset[axis] = sign
                src = cart.neighbor(offset)
                offset[axis] = -sign
                dest = cart.neighbor(offset)
                send = self._slabs(axis, -sign)[0]
                recv = self._slabs(axis, sign)[1]
                self._plan.append((
                    _TAG_BASE + 2 * phase + dir_index, src, dest,
                    (Ellipsis, *send), (Ellipsis, *recv),
                ))

    # -- slab geometry -----------------------------------------------------

    def _slabs(self, axis: int, sign: int) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
        """(send_slab, recv_slab) local-array slices for one direction.

        ``send_slab`` is my interior adjacent to face ``sign`` of
        ``axis`` — the data my ``sign``-side neighbour needs for its
        ghosts.  ``recv_slab`` is my ghost frame on face ``sign``,
        filled by that neighbour's symmetric send.

        Axis-0 slabs cover owned columns only; axis-1 slabs span the
        full axis-0 extent (ghosts included) to complete corners.
        """
        h = self.h
        ni, nj = self.mesh.owned_shape
        if axis == 0:
            cols = slice(h, h + nj)  # owned columns only
            if sign == -1:
                return (slice(h, 2 * h), cols), (slice(0, h), cols)
            return (slice(ni, ni + h), cols), (slice(ni + h, ni + 2 * h), cols)
        if axis == 1:
            rows = slice(0, ni + 2 * h)  # full extent incl. phase-1 ghosts
            if sign == -1:
                return (rows, slice(h, 2 * h)), (rows, slice(0, h))
            return (rows, slice(nj, nj + h)), (rows, slice(nj + h, nj + 2 * h))
        raise ConfigurationError(f"axis must be 0 or 1, got {axis}")

    # -- exchange --------------------------------------------------------------

    def gather(self, arrays: Sequence[np.ndarray]) -> None:
        """Fill ghost frames of ``arrays`` from neighbouring ranks.

        ``arrays`` are full local ``(…, ni + 2h, nj + 2h)`` arrays (a
        field, component planes or a stack), modified in place, all
        exchanged in the same 4 messages.
        """
        if self.h == 0:
            return
        cart = self.mesh.cart
        expected = self.mesh.local_shape
        for a in arrays:
            if a.shape[-2:] != expected:
                raise ConfigurationError(
                    f"array shape {a.shape} does not match mesh block {expected}"
                )
        dtypes = {a.dtype for a in arrays}
        if len(dtypes) > 1:
            raise ConfigurationError(
                f"all arrays in one gather must share a dtype, got {dtypes}"
            )
        dtype = dtypes.pop() if dtypes else np.float64
        for tag, src, dest, send_slab, recv_slab in self._plan:
            if dest != PROC_NULL:
                # One pass: each slab is copied straight into its span.
                slabs = [a[send_slab] for a in arrays]
                packed = np.empty(sum(s.size for s in slabs), dtype=dtype)
                offset_elems = 0
                for slab in slabs:
                    n = slab.size
                    span = packed[offset_elems: offset_elems + n]
                    span.reshape(slab.shape)[...] = slab
                    offset_elems += n
                cart.Send(packed, dest, tag)
            if src != PROC_NULL:
                incoming = cart.Recv(None, src, tag)
                offset_elems = 0
                for a in arrays:
                    region = a[recv_slab]
                    n = region.size
                    region[...] = incoming[offset_elems: offset_elems + n].reshape(
                        region.shape
                    )
                    offset_elems += n
