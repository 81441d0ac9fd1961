"""Fixed-radius neighbor search by chunk bounding boxes (the ArborX
substitute).

Beatnik's ``CutoffBRSolver`` finds the pairs within the cutoff with
ArborX, which queries a tree of bounding boxes.  This is a one-level
version of that query: targets and sources are cut into runs of
``_CHUNK`` consecutive points, each run gets its axis-aligned box, and
:func:`chunk_pairs` lists every (target chunk, source chunk) pair whose
boxes come within the radius.  The cutoff solver's points arrive in
surface-mesh order, so a run is a short strip of the sheet and its box
is tight.  The list is handed to the masked all-pairs kernel
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

__all__ = ["ChunkPairs", "chunk_pairs", "brute_force_lists"]

#: Points per chunk.  16 lists the fewest candidate pairs per kept pair
#: on the cutoff workloads' sheets (``docs/architecture.md``, "Cutoff
#: evaluation by chunk boxes"); a longer run's box grows faster than its
#: per-sub-panel overhead shrinks.
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
    ``symmetric=True`` holds only pairs with ``I <= J``, each standing
    for itself and its transpose.
    """

    chunk: int
    pairs: np.ndarray
    num_targets: int
    num_sources: int
    symmetric: bool

    def candidates(self) -> int:
        """Ordered point pairs the listed chunk pairs cover."""
        if not len(self.pairs):
            return 0
        t = _chunk_sizes(self.num_targets, self.chunk)[self.pairs[:, 0]]
        s = _chunk_sizes(self.num_sources, self.chunk)[self.pairs[:, 1]]
        covered = t * s
        if self.symmetric:
            covered = covered * np.where(self.pairs[:, 0] < self.pairs[:, 1], 2, 1)
        return int(covered.sum())


def _chunk_sizes(n: int, chunk: int) -> np.ndarray:
    sizes = np.full(-(-n // chunk), chunk, dtype=np.int64)
    if n % chunk:
        sizes[-1] = n % chunk
    return sizes


def _boxes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-chunk lower and upper corners, ``(nchunks, 3)`` each."""
    starts = np.arange(0, points.shape[0], _CHUNK)
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
    arrays; ``symmetric=True`` asserts they are the same point set and
    lists only ``I <= J``.
    """
    if radius <= 0:
        raise ConfigurationError(f"cutoff must be positive, got {radius}")
    tgt, src = _points(targets), _points(sources)
    nt, ns = tgt.shape[0], src.shape[0]
    if nt == 0 or ns == 0:
        return ChunkPairs(_CHUNK, np.empty((0, 2), dtype=np.int64), nt, ns,
                          symmetric)
    tlo, thi = _boxes(tgt)
    slo, shi = (tlo, thi) if symmetric else _boxes(src)
    reach2 = _reach2(tgt, src, radius)
    found = []
    rows = max(1, _BOX_BATCH // slo.shape[0])
    for i0 in range(0, tlo.shape[0], rows):
        i1 = min(i0 + rows, tlo.shape[0])
        near = _gap2(tlo[i0:i1, None], thi[i0:i1, None], slo, shi) <= reach2
        if symmetric:
            near &= np.arange(i0, i1)[:, None] <= np.arange(slo.shape[0])
        hits = np.argwhere(near)
        hits[:, 0] += i0
        found.append(hits)
    return ChunkPairs(_CHUNK, np.concatenate(found).astype(np.int64), nt, ns,
                      symmetric)


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
