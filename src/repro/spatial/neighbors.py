"""Fixed-radius neighbor search (the ArborX substitute).

Given *target* points and *source* points, :func:`neighbor_lists`
returns, for every target, the indices of all sources within the
cutoff distance, in CSR form ``(offsets, indices)``.  The algorithm is
the classic cell list: sources are binned into cells of edge =
``cutoff``, so each target only inspects its own and the 26 adjacent
cells.  Work and memory are bounded by processing targets in batches.

Beatnik's ``CutoffBRSolver`` builds these lists once per derivative
evaluation (paper §3.2 step 3) and then accumulates Birkhoff-Rott
forces over them.  Correctness is pinned against
:func:`brute_force_lists` by property-based tests.
"""

from __future__ import annotations

import numpy as np

from repro.spatial.binning import Binning, CellGrid, bin_points
from repro.util.errors import ConfigurationError
from repro.util.misc import chunk_rows

__all__ = [
    "neighbor_lists",
    "brute_force_lists",
    "restrict_lists",
    "NeighborLists",
]


class NeighborLists:
    """CSR neighbor lists: sources for target ``t`` are
    ``indices[offsets[t]:offsets[t+1]]``."""

    def __init__(self, offsets: np.ndarray, indices: np.ndarray) -> None:
        self.offsets = offsets
        self.indices = indices

    @property
    def num_targets(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_neighbors(self) -> int:
        return int(self.offsets[-1])

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def pair_targets(self) -> np.ndarray:
        """Target index of every CSR pair (``total_neighbors`` long)."""
        return np.repeat(
            np.arange(self.num_targets, dtype=np.int64), self.counts()
        )


#: The 9 ``(dx, dy)`` cell columns around a target, ascending in flat
#: cell id.  A column's ``z-1 .. z+1`` cells are adjacent in the binned
#: order (z is the fastest-varying cell axis), so each column is *one*
#: contiguous range of binned sources.
_COLUMNS = np.array(
    [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=np.int64
)

#: Targets per vectorized batch of the search (bounds peak memory).
_TARGET_BATCH = 4096

#: Candidate pairs distance-tested per pass of the search: a pass's
#: half-dozen columns of this length stay in L2 however many candidates
#: a target batch has (ns/pair is flat from 16k to 32k and rises on
#: either side).
_SCAN_CHUNK = 32_768


def neighbor_lists(
    targets: np.ndarray,
    sources: np.ndarray,
    cutoff: float,
) -> NeighborLists:
    """All sources within ``cutoff`` of each target (inclusive boundary).

    ``targets`` and ``sources`` are ``(nt, 3)`` and ``(ns, 3)`` float
    arrays.  Each target's neighbors come out ordered by cell, then by
    source index within a cell.
    """
    if cutoff <= 0:
        raise ConfigurationError(f"cutoff must be positive, got {cutoff}")
    tgt = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    src = np.atleast_2d(np.asarray(sources, dtype=np.float64))
    nt = tgt.shape[0]
    if src.shape[0] == 0 or nt == 0:
        offsets = np.zeros(nt + 1, dtype=np.int64)
        return NeighborLists(offsets, np.empty(0, dtype=np.int64))

    low = np.minimum(src.min(axis=0), tgt.min(axis=0)) - cutoff
    high = np.maximum(src.max(axis=0), tgt.max(axis=0)) + cutoff
    grid = CellGrid.covering(low, high, cutoff)
    binning: Binning = bin_points(src, grid)
    order, cell_start = binning.order, binning.cell_start
    binned = np.ascontiguousarray(src[order].T)       # (3, ns) columns
    cutoff2 = cutoff * cutoff
    nx, ny, nz = grid.dims

    found: list[np.ndarray] = []
    counts = np.zeros(nt, dtype=np.int64)
    for start in range(0, nt, _TARGET_BATCH):
        stop = min(start + _TARGET_BATCH, nt)
        batch = tgt[start:stop]
        coords = grid.cell_coords(batch)
        cx = coords[:, 0, None] + _COLUMNS[:, 0]                # (m, 9)
        cy = coords[:, 1, None] + _COLUMNS[:, 1]
        inside = (cx >= 0) & (cx < nx) & (cy >= 0) & (cy < ny)
        column = (np.clip(cx, 0, nx - 1) * ny + np.clip(cy, 0, ny - 1)) * nz
        cz = coords[:, 2, None]
        lo = cell_start[column + np.maximum(cz - 1, 0)]
        hi = cell_start[column + np.minimum(cz + 1, nz - 1) + 1]
        lengths = np.where(inside, hi - lo, 0)
        per_target = lengths.sum(axis=1)
        first = np.cumsum(per_target) - per_target
        cuts = chunk_rows(first, int(per_target.sum()), _SCAN_CHUNK)
        tcol = np.ascontiguousarray(batch.T)
        for k0, k1 in zip(cuts[:-1], cuts[1:]):
            # Expand the [lo, lo + length) ranges target by target: the
            # candidates are then grouped by target, in CSR order already.
            ranges, begin = lengths[k0:k1].ravel(), lo[k0:k1].ravel()
            cand = np.repeat(begin - (np.cumsum(ranges) - ranges), ranges)
            cand += np.arange(cand.shape[0], dtype=np.int64)
            owner = np.repeat(np.arange(k0, k1), per_target[k0:k1])
            keep = _pair_dist2(tcol, owner, binned, cand) <= cutoff2
            owner, hits = owner[keep], order[cand[keep]]
            counts[start + k0:start + k1] = np.bincount(
                owner - k0, minlength=k1 - k0
            )
            found.append(hits)

    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    indices = np.concatenate(found) if found else np.empty(0, dtype=np.int64)
    return NeighborLists(offsets, indices)


def _pair_dist2(
    tcol: np.ndarray, ti: np.ndarray, scol: np.ndarray, sj: np.ndarray
) -> np.ndarray:
    """``|t_ti − s_sj|²`` per pair from ``(3, n)`` coordinate columns."""
    dist2 = np.zeros(ti.shape[0])
    for axis in range(3):
        d = tcol[axis][ti]
        d -= scol[axis][sj]
        d *= d
        dist2 += d
    return dist2


def restrict_lists(
    lists: NeighborLists,
    targets: np.ndarray,
    sources: np.ndarray,
    cutoff: float,
    *,
    pair_targets: np.ndarray | None = None,
) -> NeighborLists:
    """Filter lists built at an inflated radius down to ``cutoff``.

    The Verlet-skin reuse step: ``lists`` was built at ``cutoff + skin``
    against earlier positions; re-evaluating the pair distances against
    the *current* ``targets``/``sources`` and keeping ``r <= cutoff``
    recovers exactly the pair set a fresh build at ``cutoff`` would find,
    provided no point has moved more than ``skin / 2`` since the build.
    ``pair_targets`` (``lists.pair_targets()``) can be cached by the
    caller to skip the repeat expansion.
    """
    if cutoff <= 0:
        raise ConfigurationError(f"cutoff must be positive, got {cutoff}")
    if pair_targets is None:
        pair_targets = lists.pair_targets()
    idx = lists.indices
    dist2 = _pair_dist2(
        np.ascontiguousarray(targets.T), pair_targets,
        np.ascontiguousarray(sources.T), idx,
    )
    keep = dist2 <= cutoff * cutoff
    counts = np.bincount(pair_targets[keep], minlength=lists.num_targets)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return NeighborLists(offsets, idx[keep])


def brute_force_lists(
    targets: np.ndarray,
    sources: np.ndarray,
    cutoff: float,
) -> NeighborLists:
    """O(nt·ns) reference implementation used to validate the cell list."""
    tgt = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    src = np.atleast_2d(np.asarray(sources, dtype=np.float64))
    nt = tgt.shape[0]
    offsets = np.zeros(nt + 1, dtype=np.int64)
    chunks: list[np.ndarray] = []
    cutoff2 = cutoff * cutoff
    for t in range(nt):
        diff = src - tgt[t]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        hits = np.nonzero(dist2 <= cutoff2)[0]
        chunks.append(np.sort(hits))
        offsets[t + 1] = offsets[t] + len(hits)
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return NeighborLists(offsets, indices)
