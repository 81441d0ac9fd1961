"""Ghosted node arrays over a local grid (Cabana ``Array`` analogue).

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

import numpy as np

from repro.grid.local_grid import LocalGrid2D
from repro.util.errors import ConfigurationError

__all__ = ["NodeArray"]


class NodeArray:
    """A multi-component field on the local grid, with ghosts."""

    def __init__(
        self,
        local_grid: LocalGrid2D,
        ncomp: int,
        dtype: np.dtype | type = np.float64,
        name: str = "field",
    ) -> None:
        if ncomp < 1:
            raise ConfigurationError(f"ncomp must be >= 1, got {ncomp}")
        self.local_grid = local_grid
        self.ncomp = ncomp
        self.name = name
        ni, nj = local_grid.local_shape
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
        si, sj = self.local_grid.own_slices
        return self._data[..., si, sj, :]

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    # -- operations ----------------------------------------------------------

    def fill(self, value: float) -> None:
        self._data.fill(value)

    def clone(self, name: str | None = None) -> "NodeArray":
        """Deep copy with the same grid/ncomp."""
        out = NodeArray(
            self.local_grid, self.ncomp, self.dtype, name or f"{self.name}_copy"
        )
        out.full = self._data.copy()
        return out

    def axpy(self, alpha: float, x: "NodeArray") -> None:
        """``self += alpha * x`` over the full array (used by RK stages)."""
        self._data += alpha * x._data

    def scale(self, alpha: float) -> None:
        self._data *= alpha

    def norm2_own(self, comm=None) -> float:
        """Global L2 norm over owned nodes (allreduce when comm given)."""
        local = float(np.sum(self.own.astype(np.float64) ** 2))
        if comm is not None:
            local = comm.allreduce(local)
        return float(np.sqrt(local))

    def max_abs_own(self, comm=None) -> float:
        """Global max-abs over owned nodes (allreduce MAX when comm given)."""
        local = float(np.max(np.abs(self.own))) if self.own.size else 0.0
        if comm is not None:
            from repro.mpi.ops import MAX

            local = comm.allreduce(local, op=MAX)
        return local

    def __repr__(self) -> str:
        return f"<NodeArray {self.name} shape={self.shape}>"
