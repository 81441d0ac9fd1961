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
Python loops anywhere on the build path.

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
registered engine computes bit-compatible moments; the far-field pair
evaluation is its sibling kernel ``farfield_eval``.

The multipole-acceptance walk (:meth:`QuadTree.mac_pairs`) decides
per target but steps per *group* of up to ``_GROUP`` targets of one
leaf cell, testing ``(entries, group)`` panels; the group's box settles
most entries for all its targets at once.  Its far-field pairs are
(group, node, mask) entries, which ``farfield_eval`` sums per group.

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
from repro.util.errors import ConfigurationError

__all__ = ["QuadTree", "TreePairs", "build_quadtree"]

#: Deepest leaf level the builder will choose (2^8 x 2^8 = 65536 leaf
#: cells); beyond this the dense level arrays stop paying for
#: themselves at laptop scale.
MAX_LEVELS = 8

#: Targets per group of the multipole-acceptance walk.  A group lies in
#: one leaf cell, so its box is no wider than the leaf; 16 is the leaf
#: occupancy the benchmark sheets settle at with ``leaf_size = 32``.
_GROUP = 16


@dataclass
class TreePairs:
    """Interaction sets produced by one multipole-acceptance walk.

    The walk steps through *groups* of targets: the targets in one leaf
    cell of the tree's grid, cut into runs of at most ``_GROUP``.

    Attributes
    ----------
    groups:
        ``(G, _GROUP)`` int64 target rows of each group, ``-1`` where a
        group is shorter.
    far_groups / far_nodes / far_mask:
        ``(p,)`` int64 pair arrays, sorted by group, and their
        ``(p, _GROUP)`` bool masks: target ``groups[far_groups[i], k]``
        evaluates node ``far_nodes[i]`` (a flat node id into the tree's
        node table) through the far-field moment kernel where
        ``far_mask[i, k]``.
    far_count:
        The (target, node) pairs accepted, ``far_mask.sum()``.
    near_offsets / near_indices:
        CSR near-field lists over the tree's *sorted* source order:
        sources ``near_indices[near_offsets[t]:near_offsets[t+1]]`` of
        ``QuadTree.points`` interact with target ``t`` pairwise.
    examined:
        Total (target, node) pairs distance-tested during the walk —
        the roofline item count of the walk itself.
    """

    groups: np.ndarray
    far_groups: np.ndarray
    far_nodes: np.ndarray
    far_mask: np.ndarray
    far_count: int
    near_offsets: np.ndarray
    near_indices: np.ndarray
    examined: int

    @property
    def near_count(self) -> int:
        return int(self.near_offsets[-1]) if len(self.near_offsets) else 0


class QuadTree:
    """Dense-level quadtree with per-node far-field moments.

    Node storage is one flat table across all levels: level ``l``
    occupies flat ids ``[level_offsets[l], level_offsets[l] + 4**l)``,
    row-major over its ``2^l x 2^l`` grid.  Every array is float64
    (int64 for counts/ids), matching the backend kernel contracts.

    Attributes
    ----------
    points / omega:
        ``(n, 3)`` sources sorted by leaf cell (``points = raw[order]``).
        Near-field CSR indices refer to *this* order.
    order:
        Permutation mapping sorted rows back to the caller's rows.
    cell_start:
        ``(nleaves + 1,)`` CSR bounds of each leaf cell into ``points``.
    grid:
        The leaf cells' :class:`~repro.spatial.binning.CellGrid`; the
        walk bins its targets into it.
    node_count / node_center / node_m / node_s / node_q / node_size:
        Flat node table: point count ``(nn,)``, centroid ``(nn, 3)``,
        moments ``(nn, 3)``/``(nn, 3)``/``(nn, 3, 3)`` and the 3D
        bounding-box diagonal ``(nn,)`` per node.
    """

    def __init__(
        self,
        *,
        nlevels: int,
        level_offsets: np.ndarray,
        node_count: np.ndarray,
        node_center: np.ndarray,
        node_m: np.ndarray,
        node_s: np.ndarray,
        node_q: np.ndarray,
        node_size: np.ndarray,
        points: np.ndarray,
        omega: np.ndarray,
        order: np.ndarray,
        cell_start: np.ndarray,
        grid: CellGrid,
        leaf_size: int,
    ) -> None:
        self.nlevels = nlevels
        self.level_offsets = level_offsets
        self.node_count = node_count
        self.node_center = node_center
        self.node_m = node_m
        self.node_s = node_s
        self.node_q = node_q
        self.node_size = node_size
        self.points = points
        self.omega = omega
        self.order = order
        self.cell_start = cell_start
        self.grid = grid
        self.leaf_size = leaf_size

    # -- introspection -----------------------------------------------------

    @property
    def num_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def num_nodes(self) -> int:
        return int(self.node_count.shape[0])

    @property
    def depth(self) -> int:
        """Leaf level index (root = 0)."""
        return self.nlevels - 1

    # -- multipole-acceptance walk ----------------------------------------

    def mac_pairs(self, targets: np.ndarray, theta: float) -> TreePairs:
        """Partition target-source interactions by the MAC ``theta``.

        A (target, node) pair is **accepted** for far-field evaluation
        when ``size <= theta * dist`` with ``size`` the node's 3D
        bounding diagonal and ``dist`` the 3D target-centroid distance
        (so a target inside a node never accepts it for ``theta < 1``),
        or when ``size == 0`` — coincident-point nodes, whose moments
        are exact.  Rejected internal nodes descend to their four
        children; rejected leaves become near-field CSR entries.

        ``theta = 0`` therefore rejects every extended node and the
        walk degenerates to exact per-point sums (single-point far
        evaluations plus leaf pair lists).

        The walk decides per target but steps per group
        (:class:`TreePairs`): a frontier entry is a (group, node) pair
        with the mask of the group's targets still undecided there, so
        each level tests ``(entries, _GROUP)`` panels.
        """
        if not 0.0 <= theta < 1.0:
            raise ConfigurationError(
                f"theta must lie in [0, 1) — a target inside a node must "
                f"never accept it — got {theta}"
            )
        tgt = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        nt = tgt.shape[0]
        theta2 = float(theta) * float(theta)
        far_g: list[np.ndarray] = []
        far_n: list[np.ndarray] = []
        far_m: list[np.ndarray] = []
        examined = 0

        if nt == 0 or self.num_points == 0:
            empty = np.empty(0, dtype=np.int64)
            return TreePairs(
                groups=np.empty((0, _GROUP), dtype=np.int64),
                far_groups=empty, far_nodes=empty,
                far_mask=np.empty((0, _GROUP), dtype=bool), far_count=0,
                near_offsets=np.zeros(nt + 1, dtype=np.int64),
                near_indices=empty, examined=0,
            )

        binning = bin_points(tgt, self.grid)
        groups = _leaf_runs(binning.cell_start, binning.order)
        filled = groups >= 0
        # (G, _GROUP, 3); a padded slot repeats its group's first target
        # and is never active.
        members = tgt[np.where(filled, groups, groups[:, :1])]
        lo, hi = members.min(axis=1), members.max(axis=1)

        # Frontier: (group, node-local-id, undecided targets) at the
        # current level; every group starts at the root.
        g_idx = np.arange(groups.shape[0], dtype=np.int64)
        n_idx = np.zeros(groups.shape[0], dtype=np.int64)
        active = filled
        near_g = near_leaf = np.empty(0, dtype=np.int64)
        near_mask = np.empty((0, _GROUP), dtype=bool)
        leaf_level = self.nlevels - 1
        for level in range(self.nlevels):
            flat = int(self.level_offsets[level]) + n_idx
            nonempty = self.node_count[flat] > 0
            g_idx, n_idx, flat = g_idx[nonempty], n_idx[nonempty], flat[nonempty]
            active = active[nonempty]
            if g_idx.size == 0:
                break
            examined += int(np.count_nonzero(active))
            center = self.node_center[flat]
            limit = self.node_size[flat] ** 2
            # The group's box bounds every target's distance: only an
            # entry the box leaves undecided is tested target by target.
            to_lo, to_hi = lo[g_idx] - center, center - hi[g_idx]
            near_corner = np.maximum(to_lo, to_hi)
            np.maximum(near_corner, 0.0, out=near_corner)
            far_corner = np.maximum(-to_lo, -to_hi)
            all_in = limit <= theta2 * np.einsum(
                "ij,ij->i", near_corner, near_corner)
            mixed = ~all_in & (limit <= theta2 * np.einsum(
                "ij,ij->i", far_corner, far_corner))
            accept = active & all_in[:, None]
            diff = members[g_idx[mixed]] - center[mixed][:, None, :]
            accept[mixed] = active[mixed] & (
                limit[mixed][:, None]
                <= theta2 * np.einsum("ijk,ijk->ij", diff, diff)
            )
            hit = accept.any(axis=1)
            far_g.append(g_idx[hit])
            far_n.append(flat[hit])
            far_m.append(accept[hit])
            active = active & ~accept
            open_ = active.any(axis=1)
            g_rest, n_rest, active = g_idx[open_], n_idx[open_], active[open_]
            if level == leaf_level:
                near_g, near_leaf, near_mask = g_rest, n_rest, active
                break
            # Descend: children of node (cx, cy) at a 2^l x 2^l level
            # are (2cx + dx, 2cy + dy) on the 2^(l+1) grid.
            ny = 1 << level
            cx, cy = n_rest // ny, n_rest % ny
            base = (cx * 2) * (ny * 2) + cy * 2
            n_idx = np.concatenate(
                [base, base + 1, base + ny * 2, base + ny * 2 + 1]
            )
            g_idx = np.concatenate([g_rest] * 4)
            active = np.concatenate([active] * 4)

        far_groups = np.concatenate(far_g)
        by_group = np.argsort(far_groups, kind="stable")
        far_mask = np.concatenate(far_m)[by_group]
        # Each undecided target of a near entry gets the leaf's sources.
        near_t = groups[near_g][near_mask]
        near_leaf = np.broadcast_to(near_leaf[:, None], near_mask.shape)[near_mask]
        offsets, indices = self._expand_near(near_t, near_leaf, nt)
        return TreePairs(
            groups=groups,
            far_groups=far_groups[by_group],
            far_nodes=np.concatenate(far_n)[by_group],
            far_mask=far_mask,
            far_count=int(np.count_nonzero(far_mask)),
            near_offsets=offsets,
            near_indices=indices,
            examined=examined,
        )

    def _expand_near(
        self, t_all: np.ndarray, leaf_all: np.ndarray, nt: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(target, leaf) pairs -> CSR source lists over sorted points."""
        if not t_all.size:
            return np.zeros(nt + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
        order = np.argsort(t_all, kind="stable")
        t_sorted, leaf_sorted = t_all[order], leaf_all[order]
        starts = self.cell_start[leaf_sorted]
        lengths = self.cell_start[leaf_sorted + 1] - starts
        counts = np.bincount(
            t_sorted, weights=lengths.astype(np.float64), minlength=nt
        ).astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        total = int(lengths.sum())
        if total == 0:
            return offsets, np.empty(0, dtype=np.int64)
        # Expand [start, start + len) ranges into flat indices.
        indices = np.arange(total, dtype=np.int64)
        indices += np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return offsets, indices


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
    pos_s = pos[binning.order]
    om_s = om[binning.order]
    nleaves = nx * nx
    counts_leaf = np.diff(binning.cell_start).astype(np.int64)

    # Per-level dense tables, leaf upward.
    level_offsets = np.zeros(nlevels + 1, dtype=np.int64)
    for level in range(nlevels):
        level_offsets[level + 1] = level_offsets[level] + 4 ** level
    nn = int(level_offsets[-1])
    node_count = np.zeros(nn, dtype=np.int64)
    node_center = np.zeros((nn, 3))
    node_m = np.zeros((nn, 3))
    node_s = np.zeros((nn, 3))
    node_q = np.zeros((nn, 3, 3))
    node_size = np.zeros(nn)

    # Leaf level: centroids from bincount sums, then the backend moment
    # kernel; bounding boxes from clipped segmented reductions.
    ids = binning.sorted_cells
    sums = np.stack(
        [
            np.bincount(ids, weights=pos_s[:, k], minlength=nleaves)
            for k in range(3)
        ],
        axis=1,
    )
    center_leaf = np.zeros((nleaves, 3))
    np.divide(
        sums,
        counts_leaf[:, None],
        out=center_leaf,
        where=counts_leaf[:, None] > 0,
    )
    m_leaf, s_leaf, q_leaf = bk.moment_accumulate(
        pos_s, om_s, ids, center_leaf, nleaves
    )
    pmin, pmax = _segment_bounds(pos_s, binning.cell_start, counts_leaf)

    lf = slice(int(level_offsets[leaf_level]), nn)
    node_count[lf] = counts_leaf
    node_center[lf] = center_leaf
    node_m[lf] = m_leaf
    node_s[lf] = s_leaf
    node_q[lf] = q_leaf
    node_size[lf] = np.where(
        counts_leaf > 0, np.linalg.norm(pmax - pmin, axis=1), 0.0
    )

    # Upward pass: aggregate 2x2 child blocks with reshape reductions
    # and shift S/Q to the parent centroid (parallel-axis rules).
    counts, centers, sums_l = counts_leaf, center_leaf, sums
    m_l, s_l, q_l = m_leaf, s_leaf, q_leaf
    for level in range(leaf_level - 1, -1, -1):
        half = 1 << level

        def fold(arr: np.ndarray) -> np.ndarray:
            """Sum 2x2 child blocks of a row-major dense level array."""
            return (
                arr.reshape((half, 2, half, 2) + arr.shape[1:])
                .sum(axis=(1, 3))
                .reshape((half * half,) + arr.shape[1:])
            )

        counts_p = fold(counts)
        sums_p = fold(sums_l)
        centers_p = np.zeros((half * half, 3))
        np.divide(
            sums_p, counts_p[:, None], out=centers_p,
            where=counts_p[:, None] > 0,
        )
        # Child -> parent shift d = c_child - c_parent.
        parent_of = _parent_index(half)
        d = centers - centers_p[parent_of]
        s_shift = s_l + np.cross(m_l, d)
        q_shift = q_l + m_l[:, :, None] * d[:, None, :]
        m_p = fold(m_l)
        s_p = fold(s_shift)
        q_p = fold(q_shift)
        pmin = (
            pmin.reshape(half, 2, half, 2, 3).min(axis=(1, 3)).reshape(-1, 3)
        )
        pmax = (
            pmax.reshape(half, 2, half, 2, 3).max(axis=(1, 3)).reshape(-1, 3)
        )
        sl = slice(int(level_offsets[level]), int(level_offsets[level + 1]))
        node_count[sl] = counts_p
        node_center[sl] = centers_p
        node_m[sl] = m_p
        node_s[sl] = s_p
        node_q[sl] = q_p
        node_size[sl] = np.where(
            counts_p > 0, np.linalg.norm(pmax - pmin, axis=1), 0.0
        )
        counts, centers, sums_l = counts_p, centers_p, sums_p
        m_l, s_l, q_l = m_p, s_p, q_p

    return QuadTree(
        nlevels=nlevels,
        level_offsets=level_offsets,
        node_count=node_count,
        node_center=node_center,
        node_m=node_m,
        node_s=node_s,
        node_q=node_q,
        node_size=node_size,
        points=pos_s,
        omega=om_s,
        order=binning.order,
        cell_start=binning.cell_start.astype(np.int64),
        grid=grid,
        leaf_size=int(leaf_size),
    )


def _leaf_runs(cell_start: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Binned points as ``(G, _GROUP)`` row groups: each cell's run of
    ``order`` cut into pieces of at most ``_GROUP``, ``-1`` padding."""
    counts = np.diff(cell_start)
    pieces = -(-counts // _GROUP)
    cell = np.repeat(np.arange(counts.shape[0]), pieces)
    k = np.arange(cell.shape[0]) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    start = cell_start[cell] + k * _GROUP
    slot = start[:, None] + np.arange(_GROUP)
    inside = slot < cell_start[cell + 1][:, None]
    return np.where(inside, order[np.where(inside, slot, 0)], -1)


def _parent_index(half: int) -> np.ndarray:
    """Child-local -> parent-local id map for a 2*half x 2*half level."""
    cx, cy = np.divmod(np.arange(4 * half * half, dtype=np.int64), 2 * half)
    return (cx // 2) * half + cy // 2


def _segment_bounds(
    pos_sorted: np.ndarray, cell_start: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell bounding boxes; empty cells get (+inf, -inf) sentinels
    so min/max folds up the tree ignore them."""
    ncells = counts.shape[0]
    pmin = np.full((ncells, 3), np.inf)
    pmax = np.full((ncells, 3), -np.inf)
    occupied = np.nonzero(counts > 0)[0]
    if pos_sorted.shape[0] == 0 or occupied.size == 0:
        return pmin, pmax
    # Occupied cells tile the sorted array contiguously (empty cells
    # have zero width), so reducing at their start offsets segments the
    # whole array exactly; reduceat's final segment runs to the end.
    starts = cell_start[occupied]
    pmin[occupied] = np.minimum.reduceat(pos_sorted, starts, axis=0)
    pmax[occupied] = np.maximum.reduceat(pos_sorted, starts, axis=0)
    return pmin, pmax
