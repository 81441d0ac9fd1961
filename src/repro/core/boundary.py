"""Boundary conditions for the surface mesh (paper §3.1).

Most halo handling is done by the grid layer; this module implements
the two corrections Beatnik's ``BoundaryCondition`` class performs:

* **Periodic**: the halo exchange copies raw positions from the
  wrapped-around neighbour, so ghost *positions* are off by one domain
  period in the wrapped direction(s); we shift them so the surface is
  geometrically continuous across the seam.  (Vorticity is a periodic
  field — no correction.)
* **Free (non-periodic)**: blocks on the global edge have no neighbour
  to exchange with, so position and vorticity are linearly extrapolated
  into the ghost frame, giving the one-sided stencils something
  sensible to read.

Neither correction communicates — both are pure local kernels, exactly
as in Beatnik.  The planned selectors index the two trailing (grid)
axes, so one plan serves a block's ``(c, n1 + 4, n2 + 4)`` planes, a
``(n1 + 4, n2 + 4)`` field and a fleet's ``(B, c, …)`` stacks
(:mod:`repro.batch`) alike.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.surface_mesh import SurfaceMesh

__all__ = ["BoundaryType", "BoundaryCondition"]


class BoundaryType(Enum):
    """Supported boundary handling for the surface mesh."""

    PERIODIC = "periodic"
    FREE = "free"


def _take(axis: int, index: "slice | int", comp: "int | None" = None) -> tuple:
    """Selector of ``index`` along grid ``axis`` of a ghosted
    ``(…, n1 + 4, n2 + 4)`` array or stack, in component plane ``comp``
    of ``(…, c, n1 + 4, n2 + 4)`` planes if given."""
    sel: list = [slice(None), slice(None)]
    sel[axis] = index
    return (Ellipsis, *sel) if comp is None else (Ellipsis, comp, *sel)


class BoundaryCondition:
    """Applies ghost corrections after each halo gather.

    Which faces of this block lie on the global boundary, and the
    ghost strips / edge rows they touch, are fixed by the decomposition:
    they are resolved here, once, and :meth:`apply_position` /
    :meth:`apply_field` only execute them.
    """

    def __init__(self, mesh: SurfaceMesh) -> None:
        self.mesh = mesh
        self.types = tuple(
            BoundaryType.PERIODIC if p else BoundaryType.FREE
            for p in mesh.global_mesh.periodic
        )
        h = mesh.halo_width
        # Per axis: ``(ghost strip, ± period)`` position shifts of a
        # periodic axis, ``(edge, inner, ghost rows)`` faces of a free one.
        self._shifts: list[list[tuple]] = [[], []]
        self._faces: list[list[tuple]] = [[], []]
        for axis, btype in enumerate(self.types):
            n_owned = mesh.owned_shape[axis]
            low, high = mesh.global_boundary[axis]
            if btype is BoundaryType.PERIODIC:
                # The physical period equals the parameter-domain extent
                # because the rocket-rig initialization maps parameters
                # to horizontal position one-to-one (z₁ = α₁, z₂ = α₂ at
                # t = 0) and the Z-Model preserves the periodicity
                # relation z(α + L e) = z(α) + L e.  Low-side ghosts
                # wrapped iff I am the first block along `axis`, high-side
                # iff the last; a single-block axis is both, which is
                # exactly right for a self-wrapped halo.
                period = mesh.global_mesh.extent[axis]
                if low:
                    strip = _take(axis, slice(0, h), axis)
                    self._shifts[axis].append((strip, -period))
                if high:
                    strip = _take(axis, slice(n_owned + h, n_owned + 2 * h),
                                  axis)
                    self._shifts[axis].append((strip, period))
                continue
            for on_edge, edge, inner, ghosts in (
                (low, h, h + 1, range(h - 1, -1, -1)),
                (high, n_owned + h - 1, n_owned + h - 2,
                 range(n_owned + h, n_owned + 2 * h)),
            ):
                if on_edge:
                    self._faces[axis].append((
                        _take(axis, edge), _take(axis, inner),
                        [_take(axis, g) for g in ghosts],
                    ))

    @staticmethod
    def _extrapolate(full: np.ndarray, faces: list[tuple]) -> None:
        """Linear extrapolation into the ghost frame of each face."""
        for edge, inner, targets in faces:
            slope = full[edge] - full[inner]
            for g, target in enumerate(targets, start=1):
                full[target] = full[edge] + g * slope

    # -- public API ------------------------------------------------------------

    def apply_position(self, z_full: np.ndarray) -> None:
        """Correct ghost positions after a halo gather of ``z``: shift
        wrapped ghosts by ± the physical period, extrapolate free faces."""
        for shifts, faces in zip(self._shifts, self._faces):
            for strip, period in shifts:
                z_full[strip] += period
            self._extrapolate(z_full, faces)

    def apply_field(self, full: np.ndarray) -> None:
        """Fill ghost values of a periodic-agnostic field (vorticity, Φ).

        Periodic axes need nothing (the halo gather already wrapped the
        values); free axes are extrapolated.
        """
        for faces in self._faces:
            self._extrapolate(full, faces)
