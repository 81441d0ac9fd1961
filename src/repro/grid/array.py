"""Ghosted node arrays over a mesh block (Cabana ``Array`` analogue).

A :class:`NodeArray` is a numpy array of component planes, shape
``(ncomp, ni + 2h, nj + 2h)`` — owned nodes plus the ghost frame — with
views that make solver code read naturally: ``arr.full`` is everything,
``arr.planes`` the owned nodes of each plane and ``arr.own`` the same
nodes component-last, the order every array leaving the solver keeps.
Solver kernels operate on ``full`` (so stencils can read ghosts) and
write ``planes``, one plane of contiguous rows per component.

The grid axes are the two trailing ones, so a node array may also hold
a ``(B, ncomp, ni + 2h, nj + 2h)`` stack of B same-grid scenarios
(:mod:`repro.batch`): assigning such a stack to ``full`` rebinds the
array to it without a copy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.surface_mesh import SurfaceMesh

__all__ = ["NodeArray", "component_last"]


def component_last(planes: np.ndarray) -> np.ndarray:
    """The ``(…, ni, nj, c)`` view of ``(…, c, ni, nj)`` component planes
    (two axis swaps: a tenth of ``np.moveaxis``'s call overhead)."""
    return planes.swapaxes(-3, -2).swapaxes(-2, -1)


class NodeArray:
    """A multi-component field on one rank's mesh block, with ghosts."""

    def __init__(
        self,
        mesh: SurfaceMesh,
        ncomp: int,
        dtype: np.dtype | type = np.float64,
        name: str = "field",
    ) -> None:
        if ncomp < 1:
            raise ConfigurationError(f"ncomp must be >= 1, got {ncomp}")
        self.mesh = mesh
        self.name = name
        self._data = np.zeros((ncomp,) + mesh.local_shape, dtype=dtype)

    # -- views ------------------------------------------------------------

    @property
    def full(self) -> np.ndarray:
        """The whole local array, ghosts included (shape c, ni+2h, nj+2h)."""
        return self._data

    @full.setter
    def full(self, data: np.ndarray) -> None:
        """Rebind to ``data``, one such array or a ``(B, …)`` stack of them."""
        if data.shape[-3:] != self._data.shape[-3:]:
            raise ConfigurationError(
                f"{self.name}: array {data.shape} does not end in the "
                f"node-array shape {self._data.shape[-3:]}"
            )
        self._data = data

    @property
    def planes(self) -> np.ndarray:
        """Owned nodes of each component plane, ``(…, c, ni, nj)``
        (writable; shares memory with full)."""
        si, sj = self.mesh.own_slices
        return self._data[..., si, sj]

    @property
    def own(self) -> np.ndarray:
        """Owned nodes component-last, ``(…, ni, nj, c)`` (writable; a
        strided view of :attr:`planes`)."""
        return component_last(self.planes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    def __repr__(self) -> str:
        return f"<NodeArray {self.name} shape={self.shape}>"
