"""Particle/spatial substrate (ArborX + CabanaPD HaloComm analogues).

Implements the spatial machinery of Beatnik's approximate Birkhoff-
Rott solvers: the 3D spatial mesh with its 2D x/y block decomposition,
one router that delivers rows between ranks, position-based particle
migration with exact return routing, cutoff ghost (halo) exchange, the
fixed-radius neighbor search by chunk bounding boxes, and the moment
quadtree of the Barnes-Hut tree solver (whose leaves come from the
uniform-grid binning).
"""

from repro.spatial.binning import Binning, CellGrid, bin_points
from repro.spatial.halo import HaloResult, halo_exchange
from repro.spatial.migrate import Migration, ParticleMigrator, route_rows
from repro.spatial.neighbors import ChunkPairs, brute_force_lists, chunk_pairs
from repro.spatial.spatial_mesh import SpatialMesh
from repro.spatial.tree import QuadTree, TreePairs, build_quadtree

__all__ = [
    "Binning",
    "CellGrid",
    "bin_points",
    "HaloResult",
    "halo_exchange",
    "Migration",
    "ParticleMigrator",
    "route_rows",
    "ChunkPairs",
    "brute_force_lists",
    "chunk_pairs",
    "SpatialMesh",
    "QuadTree",
    "TreePairs",
    "build_quadtree",
]
