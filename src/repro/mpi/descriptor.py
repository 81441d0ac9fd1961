"""Typed message descriptors: what a payload *is*, separated from moving it.

Every array payload handed to a vector collective is summarized by a
:class:`MessageDescriptor` — shape and dtype — which is all the packed
collectives need to lay segments out in one contiguous byte buffer and
rebuild them on the receiving side.  The descriptor also makes payload
sizing exact: ``desc.nbytes`` replaces the pickle-the-object-to-measure-it
path that used to show up in traces on large halos.

The module also owns the segmenting helpers the vector collectives
share: packing a segment list into one contiguous byte buffer with an
offset table, and unpacking it again.

Everything here is pure and numpy-only; it imports nothing from the
rest of :mod:`repro.mpi` so both the collectives and the trace layer
can depend on it without cycles.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

__all__ = [
    "MessageDescriptor",
    "describe",
    "payload_nbytes",
    "pack_segments",
    "unpack_segments",
]


@dataclass(frozen=True)
class MessageDescriptor:
    """Typed description of one array payload.

    Attributes
    ----------
    shape / dtype:
        Logical geometry; ``dtype`` is the numpy dtype *string* (e.g.
        ``"<f8"``) so descriptors hash, compare and pickle cheaply.
    """

    shape: tuple[int, ...]
    dtype: str

    @property
    def size(self) -> int:
        n = 1
        for extent in self.shape:
            n *= int(extent)
        return n

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    @property
    def nbytes(self) -> int:
        """Exact payload bytes — no serialization needed to size it."""
        return self.size * self.itemsize


def describe(arr: Any) -> MessageDescriptor:
    """The :class:`MessageDescriptor` of an array-like payload."""
    a = arr if isinstance(arr, np.ndarray) else np.asarray(arr)
    return MessageDescriptor(
        shape=tuple(int(s) for s in a.shape), dtype=a.dtype.str
    )


def payload_nbytes(obj: Any) -> int:
    """Exact byte size of an array payload, pickled size otherwise.

    Arrays are sized by ``arr.nbytes`` (O(1));
    only genuinely opaque Python objects fall back to measuring the
    pickle, and a final except guard returns 0 for unpicklables (sizing
    is for tracing, never for correctness).
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


def pack_segments(
    segments: Sequence[Optional[np.ndarray]],
    out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, list[Optional[MessageDescriptor]], list[int]]:
    """Pack a segment list into one contiguous byte buffer + offset table.

    ``None`` entries (empty contributions) keep their slot with a
    ``None`` descriptor and a zero-length span, so peer indices survive
    the round trip.  ``out``, when provided, is a ``uint8`` scratch
    buffer of at least the packed size (a :class:`~repro.util.bufferpool.BufferPool`
    lease); otherwise a fresh buffer is allocated.

    Returns ``(buffer, descriptors, offsets)`` where ``buffer`` is the
    packed ``uint8`` view of exactly the payload size, ``descriptors[i]``
    describes segment ``i`` and ``offsets[i]`` is its byte offset.
    """
    descs: list[Optional[MessageDescriptor]] = []
    offsets: list[int] = []
    total = 0
    for seg in segments:
        offsets.append(total)
        if seg is None or seg.size == 0:
            descs.append(None if seg is None else describe(seg))
            continue
        desc = describe(seg)
        descs.append(desc)
        total += desc.nbytes
    if out is None:
        buf = np.empty(total, dtype=np.uint8)
    else:
        if out.dtype != np.uint8 or out.size < total:
            raise ValueError(
                f"pack buffer too small: {out.size} < {total} bytes"
            )
        buf = out[:total]
    for seg, desc, off in zip(segments, descs, offsets):
        if seg is None or desc is None or desc.nbytes == 0:
            continue
        if off % desc.itemsize == 0:
            # Gather straight into the pack buffer — one pass even for
            # strided segments (column halos).
            dst = buf[off: off + desc.nbytes].view(desc.dtype)
            np.copyto(dst.reshape(desc.shape), seg)
        else:  # unaligned span: stage through a contiguous temporary
            flat = np.ascontiguousarray(seg).reshape(-1).view(np.uint8)
            buf[off: off + desc.nbytes] = flat
    return buf, descs, offsets


def unpack_segments(
    buf: np.ndarray,
    descs: Sequence[Optional[MessageDescriptor]],
    offsets: Sequence[int],
) -> list[Optional[np.ndarray]]:
    """Rebuild the segment list from a packed buffer (inverse of
    :func:`pack_segments`).

    Returned arrays are typed, shaped *views* into ``buf`` — zero-copy.
    Callers owning ``buf`` may hand them out directly (disjoint spans
    never alias each other); callers borrowing a shared buffer must
    copy.  ``None`` descriptors come back as ``None``.
    """
    out: list[Optional[np.ndarray]] = []
    for desc, off in zip(descs, offsets):
        if desc is None:
            out.append(None)
            continue
        if desc.nbytes == 0:
            out.append(np.empty(desc.shape, dtype=np.dtype(desc.dtype)))
            continue
        span = buf[int(off): int(off) + desc.nbytes]
        out.append(span.view(np.dtype(desc.dtype)).reshape(desc.shape))
    return out
