"""Quadtree over interface points with far-field vorticity moments.

The Barnes-Hut tree code (:mod:`repro.core.br_tree`) needs a spatial
hierarchy whose every node summarizes the vortex sheet it contains well
enough to evaluate the Birkhoff-Rott kernel *once per node* instead of
once per point.  This module builds that hierarchy as a **dense
quadtree**: the surface is a 2D sheet embedded in 3D, so the tree
subdivides x/y only (matching the spatial mesh's 2D block
decomposition) while every geometric quantity — centroids, node
extents, the multipole-acceptance test — remains fully 3D.

Construction reuses :mod:`repro.spatial.binning` for the leaf level:
points are bucketed into a ``2^L x 2^L`` cell grid (``L`` chosen so a
leaf holds ~``leaf_size`` points), and the coarser levels aggregate
their four children with vectorized reshape reductions — no per-node
Python loops anywhere on the build path.  Each leaf also keeps the
moments of its four *quarters* (the half-width grid's cells), node ids
past the last level; the walk may take a leaf through them.

Per-node far-field moments
--------------------------
Writing ``r = t - c`` (target minus node centroid) and ``d = s - c``
(source offset inside the node), a first-order Taylor expansion of the
regularized BR kernel around the centroid gives

    sum_j w_j x (t - s_j) g(|t - s_j|^2)
      ~ g(r^2) (M x r - S) + 3 (r^2 + eps^2)^{-5/2} (Q r) x r

with the three moments each node stores:

* ``M = sum_j w_j`` — the monopole vorticity,
* ``S = sum_j w_j x d_j`` — the cross dipole (first-order numerator),
* ``Q = sum_j w_j (x) d_j`` — the dipole tensor (first-order kernel
  gradient); ``(Q r)_a = sum_b Q[a, b] r_b``.

Moments shift between expansion centers by the parallel-axis rules
``S_parent = sum_k [S_k + M_k x (c_k - c_parent)]`` and
``Q_parent = sum_k [Q_k + M_k (x) (c_k - c_parent)]``, which is how the
upward pass aggregates children without revisiting points.

The leaf-level moment reduction is a backend kernel
(:meth:`repro.backend.base.ArrayBackend.moment_accumulate`), so every
engine computes bit-compatible moments; the far-field pair
evaluation is its sibling kernel ``farfield_eval``.

The tree's points are also cut into *pieces*: each leaf's run of
sorted points in runs of at most ``_GROUP``, built once with the tree.
The multipole-acceptance walk (:meth:`QuadTree.mac_pairs`) steps per
piece and makes one box test per (piece, node).  Its far-field pairs
are (piece, node) entries, which ``farfield_eval`` sums per piece; its
near field is a list of (piece, piece) sub-panels, which the all-pairs
kernel sums (``br_allpairs(blocks=...)``) over the pieces laid out one
padded chunk each (:attr:`QuadTree.piece_points`).  A piece takes a
leaf through its moments, through its quarters' moments or pair by
pair.

A node whose points are exactly coincident (``size == 0``, including
every single-point node) is represented *exactly* by its moments
(``d_j = 0`` kills every truncated term), which is what makes the
``theta -> 0`` limit of the multipole-acceptance criterion reproduce
the exact solver's pair sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.spatial.binning import CellGrid, bin_points
from repro.spatial.neighbors import ChunkPairs
from repro.util.errors import ConfigurationError

__all__ = ["QuadTree", "TreePairs", "build_quadtree"]

#: Deepest leaf level the builder will choose (2^8 x 2^8 = 65536 leaf
#: cells); beyond this the dense level arrays stop paying for
#: themselves at laptop scale.
MAX_LEVELS = 8

#: Points per piece.  A piece lies in one leaf, so its box is no wider
#: than the leaf; 16 is the leaf occupancy the benchmark sheets settle
#: at with ``leaf_size = 32``, and the chunk of the all-pairs kernel's
#: listed sub-panels.
_GROUP = 16


@dataclass
class TreePairs:
    """Interaction sets produced by one multipole-acceptance walk.

    Attributes
    ----------
    pieces:
        ``(W,)`` int64 ids of the walked pieces (rows of
        :attr:`QuadTree.pieces`).
    far_pieces / far_nodes:
        ``(p,)`` int64 pair arrays, sorted by piece: every member of
        walked piece ``pieces[far_pieces[i]]`` evaluates node
        ``far_nodes[i]`` (a flat node id into the tree's node table)
        through the far-field moment kernel.
    far_count:
        The (point, node) pairs accepted.
    near:
        The (piece, piece) sub-panels summed pair by pair, a
        :class:`~repro.spatial.neighbors.ChunkPairs` over
        :attr:`QuadTree.piece_points` (chunk ``_GROUP``), sorted.
    near_count:
        The (point, point) pairs those sub-panels hold, padding excluded.
    examined:
        The (piece, node) pairs box-tested during the walk — the
        roofline item count of the walk itself.
    """

    pieces: np.ndarray
    far_pieces: np.ndarray
    far_nodes: np.ndarray
    far_count: int
    near: ChunkPairs
    near_count: int
    examined: int


@dataclass(eq=False)
class QuadTree:
    """Dense-level quadtree with per-node far-field moments.

    Node storage is one flat table: level ``l`` occupies flat ids
    ``[level_offsets[l], level_offsets[l] + 4**l)``, row-major over its
    ``2^l x 2^l`` grid, and the quarters of leaf ``k`` follow the last
    level at ``level_offsets[-1] + 4 k + (0..3)`` (x half, then y half).
    Every array is float64 (int64 for counts/ids), matching the backend
    kernel contracts.

    Attributes
    ----------
    points / omega:
        ``(n, 3)`` sources sorted by leaf cell, each leaf's run by
        quarter (``points = raw[order]``).
    order:
        Permutation mapping sorted rows back to the caller's rows.
    cell_start:
        ``(nleaves + 1,)`` CSR bounds of each leaf cell into ``points``.
    pieces / leaf_pieces / piece_size:
        ``(P, _GROUP)`` int64 rows of ``points`` per piece, ``-1`` where
        a piece is shorter; the ``(nleaves + 1,)`` CSR bounds of each
        leaf's pieces; each piece's point count.
    piece_lo / piece_hi:
        ``(P, 3)`` corners of each piece's bounding box.
    piece_points / piece_omega:
        ``(P * _GROUP, 3)``: the pieces laid out one chunk each, a
        padded slot repeating its piece's first point with ``ω = 0``.
    node_count / node_center / node_m / node_s / node_q / node_size:
        Flat node table: point count ``(nn,)``, centroid ``(nn, 3)``,
        moments ``(nn, 3)``/``(nn, 3)``/``(nn, 3, 3)`` and the 3D
        bounding-box diagonal ``(nn,)`` per node.
    """

    nlevels: int
    level_offsets: np.ndarray
    node_count: np.ndarray
    node_center: np.ndarray
    node_m: np.ndarray
    node_s: np.ndarray
    node_q: np.ndarray
    node_size: np.ndarray
    points: np.ndarray
    omega: np.ndarray
    order: np.ndarray
    cell_start: np.ndarray

    def __post_init__(self) -> None:
        # The walk's pieces, their boxes and their padded layout.
        self.pieces, self.leaf_pieces = _cut_pieces(self.cell_start)
        filled = self.pieces >= 0
        self.piece_size = np.count_nonzero(filled, axis=1)
        slots = np.where(filled, self.pieces, self.pieces[:, :1])
        members = self.points[slots]
        self.piece_lo = members.min(axis=1)
        self.piece_hi = members.max(axis=1)
        self.piece_points = members.reshape(-1, 3)
        self.piece_omega = np.where(
            filled[..., None], self.omega[slots], 0.0).reshape(-1, 3)

    # -- introspection -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return int(self.node_count.shape[0])

    @property
    def depth(self) -> int:
        """Leaf level index (root = 0)."""
        return self.nlevels - 1

    # -- multipole-acceptance walk ----------------------------------------

    def mac_pairs(self, theta: float, pieces: np.ndarray) -> TreePairs:
        """Partition the interactions of ``pieces`` (ids of rows of
        :attr:`pieces`) by the MAC ``theta``.

        A (piece, node) pair is **accepted** for far-field evaluation
        when ``size <= theta * dist`` with ``size`` the node's 3D
        bounding diagonal and ``dist`` the distance from the node's
        centroid to the piece's box: no member is nearer, so every
        member meets the per-point rule (and a piece inside a node never
        accepts it for ``theta < 1``).  ``size == 0`` — coincident-point
        nodes, whose moments are exact — is always accepted.  Rejected
        internal nodes descend to their four children.  A rejected leaf
        that the per-point rule accepts at the centre of the piece's box
        is taken through its four quarters when every quarter passes
        the box test; any other rejected leaf makes one (piece, piece)
        near sub-panel per piece of the leaf.

        ``theta = 0`` therefore rejects every extended node and the
        walk degenerates to exact pair sums (single-point far
        evaluations plus leaf sub-panels).  A piece's decisions depend
        on the piece alone, never on which others are walked with it.
        """
        if not 0.0 <= theta < 1.0:
            raise ConfigurationError(
                f"theta must lie in [0, 1) — a target inside a node must "
                f"never accept it — got {theta}"
            )
        walked = np.asarray(pieces, dtype=np.int64)
        theta2 = float(theta) * float(theta)
        lo, hi = self.piece_lo[walked], self.piece_hi[walked]
        # Frontier: (walked piece, node-local id) at the current level;
        # every piece starts at the root.
        g_idx = np.arange(len(walked), dtype=np.int64)
        n_idx = np.zeros(len(walked), dtype=np.int64)
        far_g: list[np.ndarray] = [g_idx[:0]]
        far_n: list[np.ndarray] = [n_idx[:0]]
        examined = 0
        for level in range(self.nlevels):
            flat = int(self.level_offsets[level]) + n_idx
            nonempty = self.node_count[flat] > 0
            g_idx, n_idx, flat = g_idx[nonempty], n_idx[nonempty], flat[nonempty]
            if g_idx.size == 0:
                break
            examined += g_idx.size
            accept = self._passes(theta2, lo[g_idx], hi[g_idx], flat)
            far_g.append(g_idx[accept])
            far_n.append(flat[accept])
            g_idx, n_idx = g_idx[~accept], n_idx[~accept]
            if level == self.depth:
                break
            # Descend: children of node (cx, cy) at a 2^l x 2^l level
            # are (2cx + dx, 2cy + dy) on the 2^(l+1) grid.
            ny = 1 << level
            cx, cy = n_idx // ny, n_idx % ny
            base = (cx * 2) * (ny * 2) + cy * 2
            n_idx = np.concatenate(
                [base, base + 1, base + ny * 2, base + ny * 2 + 1]
            )
            g_idx = np.concatenate([g_idx] * 4)

        # The rejected leaves (none if the walk ended above them): those
        # the per-point rule takes at the piece's centre try their
        # quarters, empty quarters passing with nothing to sum.
        leaf = int(self.level_offsets[self.depth]) + n_idx
        mid = 0.5 * (lo[g_idx] + hi[g_idx]) - self.node_center[leaf]
        split = np.flatnonzero(self.node_size[leaf] ** 2 <= theta2 * np.einsum(
            "ij,ij->i", mid, mid))
        quarter = (int(self.level_offsets[-1]) + 4 * n_idx[split])[:, None]
        quarter = quarter + np.arange(4)
        nonempty = self.node_count[quarter] > 0
        examined += int(nonempty.sum())
        taken = self._passes(
            theta2, lo[g_idx[split]][:, None], hi[g_idx[split]][:, None],
            quarter).all(axis=1)
        owner = np.broadcast_to(g_idx[split, None], quarter.shape)
        far_g.append(owner[taken][nonempty[taken]])
        far_n.append(quarter[taken][nonempty[taken]])
        near = np.ones(len(g_idx), dtype=bool)
        near[split[taken]] = False

        # Both lists in (piece, partner) order, whatever the frontier's.
        nn = self.num_nodes
        far = np.sort(np.concatenate(far_g) * nn + np.concatenate(far_n))
        far_pieces, far_nodes = np.divmod(far, nn)
        first = self.leaf_pieces[n_idx[near]]
        count = self.leaf_pieces[n_idx[near] + 1] - first
        source = np.arange(int(count.sum()), dtype=np.int64)
        source += np.repeat(first - (np.cumsum(count) - count), count)
        npieces = len(self.pieces)
        pairs = np.sort(np.repeat(walked[g_idx[near]], count) * npieces + source)
        pairs = np.stack(np.divmod(pairs, npieces), axis=1)
        size = self.piece_size
        return TreePairs(
            pieces=walked,
            far_pieces=far_pieces,
            far_nodes=far_nodes,
            far_count=int(size[walked[far_pieces]].sum()),
            near=ChunkPairs(
                chunk=_GROUP, pairs=pairs, num_targets=npieces * _GROUP,
                num_sources=npieces * _GROUP, symmetric=False,
            ),
            near_count=int((size[pairs[:, 0]] * size[pairs[:, 1]]).sum()),
            examined=examined,
        )

    def _passes(
        self, theta2: float, lo: np.ndarray, hi: np.ndarray, flat: np.ndarray
    ) -> np.ndarray:
        """The box test of nodes ``flat`` against the piece boxes
        ``lo`` / ``hi`` (broadcast to ``flat``'s shape plus a last axis
        of 3)."""
        center = self.node_center[flat]
        gap = np.maximum(lo - center, center - hi)
        np.maximum(gap, 0.0, out=gap)
        return self.node_size[flat] ** 2 <= theta2 * np.einsum(
            "...i,...i->...", gap, gap)


def build_quadtree(
    positions: np.ndarray,
    omega: np.ndarray,
    leaf_size: int = 32,
    backend: "ArrayBackend | str | None" = None,
) -> QuadTree:
    """Build the moment quadtree over one set of source points.

    Parameters
    ----------
    positions / omega:
        ``(n, 3)`` float64 source points and their surface vorticity
        vectors (matching rows).
    leaf_size:
        Target points per leaf cell; the leaf level is the shallowest
        ``2^L x 2^L`` grid with ``4^L * leaf_size >= n`` (capped at
        ``2^MAX_LEVELS`` per side).
    backend:
        Compute engine for the leaf moment reduction (resolved through
        :func:`repro.backend.get_backend`).
    """
    if leaf_size < 1:
        raise ConfigurationError(f"leaf_size must be >= 1, got {leaf_size}")
    bk = get_backend(backend)
    pos = np.atleast_2d(np.ascontiguousarray(positions, dtype=np.float64))
    om = np.atleast_2d(np.ascontiguousarray(omega, dtype=np.float64))
    if pos.shape != om.shape:
        raise ConfigurationError(
            f"positions {pos.shape} and omega {om.shape} must match"
        )
    n = pos.shape[0]
    if n == 0:
        raise ConfigurationError("cannot build a quadtree over zero points")

    nlevels = 1
    while (4 ** (nlevels - 1)) * leaf_size < n and nlevels <= MAX_LEVELS:
        nlevels += 1
    leaf_level = nlevels - 1
    nx = 1 << leaf_level

    # Square x/y leaf grid covering the current point cloud; z stays one
    # flat slab so binning's 3D arithmetic degenerates to 2D cells.
    low = pos.min(axis=0)
    high = pos.max(axis=0)
    edge = max(float(high[0] - low[0]), float(high[1] - low[1]), 1e-12)
    cell = edge / nx * (1.0 + 1e-12)  # keep max-corner points in range
    grid = CellGrid(
        origin=(float(low[0]), float(low[1]), float(low[2])),
        cell=cell,
        dims=(nx, nx, 1),
    )
    binning = bin_points(pos, grid)
    # Each leaf's run ordered by quarter: the cells of the half-width
    # grid, which nest in the leaves exactly (halving is exact).
    halves = CellGrid(origin=grid.origin, cell=cell / 2, dims=(2 * nx, 2 * nx, 1))
    hxy = halves.cell_coords(pos[binning.order])
    quarter_of = binning.sorted_cells * 4 + (hxy[:, 0] % 2) * 2 + hxy[:, 1] % 2
    by_quarter = np.argsort(quarter_of, kind="stable")
    order = binning.order[by_quarter]
    quarter_of = quarter_of[by_quarter]
    pos_s = pos[order]
    om_s = om[order]
    nleaves = nx * nx

    # Quarters: centroids from bincount sums, then the backend moment
    # kernel; bounding boxes from clipped segmented reductions.  Every
    # coarser table merges blocks of four children: a leaf its quarters
    # (consecutive), a node its 2x2 block of the level below.
    quarters = _reduce(bk, pos_s, om_s, quarter_of, 4 * nleaves)
    tables = _merge(*(t.reshape((nleaves, 4) + t.shape[1:]) for t in quarters))
    levels = [tables]
    for level in range(leaf_level - 1, -1, -1):
        half = 1 << level
        tables = _merge(*(
            t.reshape((half, 2, half, 2) + t.shape[1:]).swapaxes(1, 2)
            .reshape((half * half, 4) + t.shape[1:]) for t in tables
        ))
        levels.append(tables)
    # One flat node table: the levels root first, then the quarters.
    node_count, node_center, node_m, node_s, node_q, pmin, pmax = (
        np.concatenate(column) for column in zip(*levels[::-1], quarters))
    level_offsets = np.concatenate(
        ([0], np.cumsum([4 ** level for level in range(nlevels)])))

    return QuadTree(
        nlevels=nlevels,
        level_offsets=level_offsets,
        node_count=node_count,
        node_center=node_center,
        node_m=node_m,
        node_s=node_s,
        node_q=node_q,
        node_size=np.where(
            node_count > 0, np.linalg.norm(pmax - pmin, axis=1), 0.0),
        points=pos_s,
        omega=om_s,
        order=order,
        cell_start=binning.cell_start.astype(np.int64),
    )


def _reduce(bk: ArrayBackend, pos_s: np.ndarray, om_s: np.ndarray,
            ids: np.ndarray, ncells: int) -> list[np.ndarray]:
    """Count, centroid, moments and bounding box of each of ``ncells``
    cells whose points are the runs of ``ids`` (sorted); empty cells get
    (+inf, -inf) box sentinels so min/max merges ignore them."""
    counts = np.bincount(ids, minlength=ncells)
    sums = np.stack(
        [np.bincount(ids, weights=pos_s[:, k], minlength=ncells)
         for k in range(3)],
        axis=1,
    )
    center = np.zeros((ncells, 3))
    np.divide(sums, counts[:, None], out=center, where=counts[:, None] > 0)
    m, s, q = bk.moment_accumulate(pos_s, om_s, ids, center, ncells)
    pmin, pmax = _segment_bounds(
        pos_s, np.concatenate(([0], np.cumsum(counts))), counts)
    return [counts, center, m, s, q, pmin, pmax]


def _merge(counts, center, m, s, q, pmin, pmax) -> list[np.ndarray]:
    """:func:`_reduce`'s tables of parents from ``(parents, 4, ...)``
    blocks of their children's: S/Q shift to the parent centroid by the
    parallel-axis rules, without revisiting points."""
    counts_p = counts.sum(axis=1)
    center_p = np.zeros((counts.shape[0], 3))
    np.divide(
        (center * counts[..., None]).sum(axis=1), counts_p[:, None],
        out=center_p, where=counts_p[:, None] > 0,
    )
    # Child -> parent shift d = c_child - c_parent.
    d = center - center_p[:, None]
    return [
        counts_p,
        center_p,
        m.sum(axis=1),
        (s + np.cross(m, d)).sum(axis=1),
        (q + m[..., None] * d[..., None, :]).sum(axis=1),
        pmin.min(axis=1),
        pmax.max(axis=1),
    ]


def _cut_pieces(cell_start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each leaf's run of sorted rows cut into pieces of at most
    ``_GROUP``: ``(P, _GROUP)`` rows with ``-1`` padding, and the
    ``(nleaves + 1,)`` CSR bounds of each leaf's pieces."""
    counts = np.diff(cell_start)
    per_leaf = -(-counts // _GROUP)
    bounds = np.concatenate(([0], np.cumsum(per_leaf))).astype(np.int64)
    leaf = np.repeat(np.arange(counts.shape[0]), per_leaf)
    start = cell_start[leaf] + (np.arange(leaf.shape[0]) - bounds[leaf]) * _GROUP
    slot = start[:, None] + np.arange(_GROUP)
    return np.where(slot < cell_start[leaf + 1][:, None], slot, -1), bounds


def _segment_bounds(
    pos_sorted: np.ndarray, cell_start: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell bounding boxes; empty cells get (+inf, -inf) sentinels
    so min/max folds up the tree ignore them."""
    ncells = counts.shape[0]
    pmin = np.full((ncells, 3), np.inf)
    pmax = np.full((ncells, 3), -np.inf)
    occupied = np.nonzero(counts > 0)[0]
    # Occupied cells tile the sorted array contiguously (empty cells
    # have zero width), so reducing at their start offsets segments the
    # whole array exactly; reduceat's final segment runs to the end.
    starts = cell_start[occupied]
    pmin[occupied] = np.minimum.reduceat(pos_sorted, starts, axis=0)
    pmax[occupied] = np.maximum.reduceat(pos_sorted, starts, axis=0)
    return pmin, pmax
