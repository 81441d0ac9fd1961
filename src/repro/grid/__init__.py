"""Structured-grid substrate (the Cabana/Cajita analogue).

The pieces :class:`repro.core.SurfaceMesh` is built from: the global
mesh description, index boxes, ghosted node arrays, and the two-phase
halo exchange.  The per-rank block itself — owned box, ghost frame,
boundary faces — is the surface mesh.
"""

from repro.grid.array import NodeArray
from repro.grid.global_mesh import GlobalMesh2D
from repro.grid.halo import HaloExchange
from repro.grid.indexspace import IndexSpace

__all__ = [
    "NodeArray",
    "GlobalMesh2D",
    "HaloExchange",
    "IndexSpace",
]
