"""Fixed-radius neighbor search by chunk bounding boxes (the ArborX
substitute).

Beatnik's ``CutoffBRSolver`` finds the pairs within the cutoff with
ArborX, which queries a tree of bounding boxes.  This is a one-level
version of that query: targets and sources are cut into runs of
``_CHUNK`` consecutive points, each run gets its axis-aligned box, and
:func:`chunk_pairs` lists every (target chunk, source chunk) pair whose
boxes come within the radius.  A run's box is tight only when its
points are close together.  In surface-mesh order a run is a 1 × 16
strip of the sheet; :func:`spatial_order` sorts a point set by the
Morton code of its x, y cells on the mesh's grid, so that runs are
4 × 4 tiles whatever order the points arrived in.  The list is
handed to the masked all-pairs kernel
(``ArrayBackend.br_allpairs(blocks=...)``), which forms one sub-panel
per listed pair and decides pair by pair there: no per-pair list is
ever built.

The box test is conservative: a pair of points within the radius always
has its chunk pair listed, with a relative slack of ``_SLACK`` that
dwarfs any rounding in how an engine measures ``r²``.  A listed chunk
pair may hold no pair within the radius.

:func:`brute_force_lists` is the O(nt·ns) oracle the tests check the
search against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigurationError

__all__ = ["ChunkPairs", "chunk_pairs", "spatial_order", "brute_force_lists"]

#: Points per chunk: a 4 × 4 tile in spatial order.  On a captured
#: ``cutoff_r2`` rank state tiles of 32 list 1.6× the candidates of 16
#: and sum no faster, and 64 loses in either order
#: (``docs/architecture.md``, "Tiles and one listed call").
_CHUNK = 16

#: Relative slack of the box test, on the radius plus the coordinate
#: scale: far above the ~1e-16 rounding of any engine's ``r²``.
_SLACK = 1e-9

#: Box pairs tested per vectorized batch of the search (bounds memory).
_BOX_BATCH = 1 << 20


@dataclass(frozen=True)
class ChunkPairs:
    """A chunk list: the (target chunk, source chunk) pairs to evaluate.

    Chunk ``k`` of a point set is its points ``[k·chunk, (k+1)·chunk)``
    (the last chunk may be short).  ``pairs`` is ``(m, 2)`` int64,
    sorted by target chunk, then source chunk.  A list built with
    ``symmetric=True`` has sources that begin with the targets: its
    source chunks are the ``ni`` target chunks, then the chunks of the
    sources after the targets (``sources[num_targets:]``, counted from
    ``ni`` on).  Among the target chunks it holds only pairs with
    ``I <= J``, each off-diagonal one standing for itself and its
    transpose; a pair with ``J >= ni`` stands for itself alone.
    """

    chunk: int
    pairs: np.ndarray
    num_targets: int
    num_sources: int
    symmetric: bool

    def mirrored(self) -> np.ndarray:
        """``(m,)`` bool: the pairs that also stand for their transpose."""
        i, j = self.pairs[:, 0], self.pairs[:, 1]
        if not self.symmetric:
            return np.zeros(len(i), dtype=bool)
        return (i < j) & (j < -(-self.num_targets // self.chunk))

    def every(self) -> int:
        """Chunk pairs a list naming every block holds."""
        ni = -(-self.num_targets // self.chunk)
        if not self.symmetric:
            return ni * -(-self.num_sources // self.chunk)
        rest = -(-(self.num_sources - self.num_targets) // self.chunk)
        return ni * (ni + 1) // 2 + ni * rest

    def candidates(self) -> int:
        """Ordered point pairs the listed chunk pairs cover."""
        if not len(self.pairs):
            return 0
        t = _chunk_sizes(self.num_targets, self.chunk)[self.pairs[:, 0]]
        s = self._source_sizes()[self.pairs[:, 1]]
        return int((t * s * np.where(self.mirrored(), 2, 1)).sum())

    def _source_sizes(self) -> np.ndarray:
        if not self.symmetric:
            return _chunk_sizes(self.num_sources, self.chunk)
        return np.concatenate([
            _chunk_sizes(self.num_targets, self.chunk),
            _chunk_sizes(self.num_sources - self.num_targets, self.chunk),
        ])


def _chunk_sizes(n: int, chunk: int) -> np.ndarray:
    sizes = np.full(-(-n // chunk), chunk, dtype=np.int64)
    if n % chunk:
        sizes[-1] = n % chunk
    return sizes


def _boxes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-chunk lower and upper corners, ``(nchunks, 3)`` each."""
    starts = np.arange(0, points.shape[0], _CHUNK)
    if not len(starts):
        return np.empty((0, 3)), np.empty((0, 3))
    return (np.minimum.reduceat(points, starts, axis=0),
            np.maximum.reduceat(points, starts, axis=0))


def _reach2(targets: np.ndarray, sources: np.ndarray, radius: float) -> float:
    """The squared radius with the box test's slack."""
    scale = max(float(np.abs(targets).max()), float(np.abs(sources).max()))
    return (radius + _SLACK * (radius + scale)) ** 2


def _gap2(tlo, thi, slo, shi) -> np.ndarray:
    """Squared distance between boxes (0 where they overlap); any
    congruent or broadcastable ``(..., 3)`` corner arrays."""
    total = None
    for axis in range(3):
        gap = np.maximum(slo[..., axis] - thi[..., axis],
                         tlo[..., axis] - shi[..., axis])
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        total = gap if total is None else total + gap
    return total


def _points(a: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(a, dtype=np.float64))


def chunk_pairs(
    targets: np.ndarray,
    sources: np.ndarray,
    radius: float,
    *,
    symmetric: bool = False,
) -> ChunkPairs:
    """Every (target chunk, source chunk) pair whose boxes come within
    ``radius`` (inclusive, with the conservative slack).

    ``targets`` and ``sources`` are ``(nt, 3)`` and ``(ns, 3)`` float
    arrays.  ``symmetric=True`` asserts that the sources begin with the
    targets (``sources[:nt]`` is ``targets``, as owned points followed
    by their ghosts): the sources after them are chunked on their own,
    and among the targets only ``I <= J`` is listed (:class:`ChunkPairs`).
    """
    if radius <= 0:
        raise ConfigurationError(f"cutoff must be positive, got {radius}")
    tgt, src = _points(targets), _points(sources)
    nt, ns = tgt.shape[0], src.shape[0]
    if nt == 0 or ns == 0:
        return ChunkPairs(_CHUNK, np.empty((0, 2), dtype=np.int64), nt, ns,
                          symmetric)
    tlo, thi = _boxes(tgt)
    if symmetric:
        rlo, rhi = _boxes(src[nt:])
        slo, shi = np.concatenate([tlo, rlo]), np.concatenate([thi, rhi])
    else:
        slo, shi = _boxes(src)
    reach2 = _reach2(tgt, src, radius)
    found = []
    rows = max(1, _BOX_BATCH // slo.shape[0])
    for i0 in range(0, tlo.shape[0], rows):
        i1 = min(i0 + rows, tlo.shape[0])
        near = _gap2(tlo[i0:i1, None], thi[i0:i1, None], slo, shi) <= reach2
        if symmetric:       # every J past the targets has I < J
            near &= np.arange(i0, i1)[:, None] <= np.arange(slo.shape[0])
        hits = np.argwhere(near)
        hits[:, 0] += i0
        found.append(hits)
    return ChunkPairs(_CHUNK, np.concatenate(found).astype(np.int64), nt, ns,
                      symmetric)


def spatial_order(
    points: np.ndarray,
    origin: "tuple[float, float]",
    cell: "tuple[float, float]",
    split: "int | None" = None,
) -> np.ndarray:
    """The permutation that sorts ``(n, 3)`` points by the Morton code of
    their x, y cell (stable), so that runs of ``_CHUNK`` points are
    compact tiles rather than whatever the arrival order made them.
    With ``split``, ``points[:split]`` (owned points) and
    ``points[split:]`` (their ghosts) are each sorted, the first set
    still first.

    The grid has ``cell = (cx, cy)`` cells from ``origin``, moved back
    by half a cell.  The cutoff solver passes its mesh's low corner and
    half its spacing: a mesh point then sits mid-cell, and a run of 16
    covers one 8 × 8-cell Morton block, a 4 × 4 tile of the mesh,
    aligned the same way on every rank.  Runs are tiles only while
    every earlier run is one, so blocks holding other than ``_CHUNK``
    points (a rank's ragged edge, points migration brought in) go after
    the whole tiles of their set.  Points below the grid move it back by
    whole 256-cell blocks, which keeps that alignment.
    """
    pts = _points(points)
    n = pts.shape[0]
    cells = np.empty((n, 2), dtype=np.int64)
    for axis in range(2):
        coord = pts[:, axis]
        lo = origin[axis] - cell[axis] / 2
        if n and coord.min() < lo:
            span = 256 * cell[axis]
            lo -= span * np.ceil((lo - coord.min()) / span)
        # At most 2^20 cells a side, so a code fits 40 bits.
        cells[:, axis] = np.minimum((coord - lo) * (1.0 / cell[axis]),
                                    (1 << 20) - 1)
    codes = _spread(cells)
    codes[:, 1] <<= 1
    codes = codes[:, 0] | codes[:, 1]
    if split is not None:                   # ghosts after owned points
        codes[split:] |= 1 << 40
    order = np.argsort(codes, kind="stable")
    # A Morton block of 4·_CHUNK cells is one tile of _CHUNK mesh points.
    block = codes[order] >> (_CHUNK.bit_length() + 1)
    starts = np.flatnonzero(np.concatenate(([True], block[1:] != block[:-1])))
    sizes = np.diff(np.append(starts, n))
    ghosts = starts >= (n if split is None else split)
    group = np.repeat(2 * ghosts + (sizes != _CHUNK), sizes)
    return order[np.argsort(group, kind="stable")]


def _spread(v: np.ndarray) -> np.ndarray:
    """The bits of each non-negative ``< 2^32`` value moved to the even
    positions."""
    v = v.copy()
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        v |= v << shift
        v &= mask
    return v


def brute_force_lists(
    targets: np.ndarray,
    sources: np.ndarray,
    cutoff: float,
) -> tuple[np.ndarray, np.ndarray]:
    """O(nt·ns) CSR lists ``(offsets, indices)``: the sources within
    ``cutoff`` of target ``t`` (inclusive) are
    ``indices[offsets[t]:offsets[t+1]]``, ascending."""
    tgt, src = _points(targets), _points(sources)
    nt = tgt.shape[0]
    offsets = np.zeros(nt + 1, dtype=np.int64)
    chunks: list[np.ndarray] = []
    cutoff2 = cutoff * cutoff
    for t in range(nt):
        diff = src - tgt[t]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        hits = np.nonzero(dist2 <= cutoff2)[0]
        chunks.append(hits)
        offsets[t + 1] = offsets[t] + len(hits)
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return offsets, indices
