"""Ghosted node arrays over a mesh block (Cabana ``Array`` analogue).

A :class:`NodeArray` is a numpy array of shape
``(ni + 2h, nj + 2h, ncomp)`` — owned nodes plus the ghost frame — with
views that make solver code read naturally: ``arr.own`` is the owned
interior, ``arr.full`` everything.  Solver kernels operate on ``full``
(so stencils can read ghosts) and write ``own``.

The grid axes are indexed from the right, so a node array may also hold
a ``(B, ni + 2h, nj + 2h, ncomp)`` stack of B same-grid scenarios
(:mod:`repro.batch`): assigning such a stack to ``full`` rebinds the
array to it without a copy, and ``own`` is then the stack's owned view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.surface_mesh import SurfaceMesh

__all__ = ["NodeArray"]


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
        self.ncomp = ncomp
        self.name = name
        ni, nj = mesh.local_shape
        self._data = np.zeros((ni, nj, ncomp), dtype=dtype)

    # -- views ------------------------------------------------------------

    @property
    def full(self) -> np.ndarray:
        """The whole local array, ghosts included (shape ni+2h, nj+2h, c)."""
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
    def own(self) -> np.ndarray:
        """View of owned nodes only (writable; shares memory with full)."""
        si, sj = self.mesh.own_slices
        return self._data[..., si, sj, :]

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    def __repr__(self) -> str:
        return f"<NodeArray {self.name} shape={self.shape}>"
