"""Reusable byte-buffer pool for the packed vector collectives.

The packed collectives (:mod:`repro.mpi.collectives`) need send buffers
whose sizes repeat call after call — one per halo exchange, migration
or gather round.  Allocating them fresh every time puts ``malloc`` and
page-faulting on the communication critical path; a :class:`BufferPool` keeps released
buffers in size-bucketed free lists and hands them back on the next
:meth:`~BufferPool.acquire` of a fitting size.

Buffers are raw ``uint8`` arrays whose capacity is rounded up to the
next power of two (so close-but-unequal request sizes share a bucket);
callers slice and :meth:`numpy.ndarray.view` them into shape.  Contents
are *not* zeroed — a pooled buffer is uninitialized memory, like
``np.empty``.

Reuse statistics (hits, misses, bytes served, high-water resident
bytes) are first-class: the collectives mirror hits and misses into
the run's metrics registry (``trace.metrics``) as
``bufferpool.hits|misses`` counters, which land wherever that registry
is exported (a campaign run's telemetry document); no CLI command
prints them.  All methods are thread-safe; per-rank owners (one pool
per communicator instance) never contend in practice.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

__all__ = ["BufferPool"]


def _bucket(nbytes: int) -> int:
    """Capacity bucket for a request: next power of two, min 256 bytes."""
    cap = 256
    while cap < nbytes:
        cap <<= 1
    return cap


class BufferPool:
    """Size-bucketed free lists of reusable ``uint8`` scratch arrays.

    Parameters
    ----------
    max_resident:
        Soft cap (bytes) on memory kept in the free lists; releasing a
        buffer that would exceed it drops the buffer instead (the pool
        never blocks and never fails — it only stops caching).
    """

    def __init__(self, max_resident: int = 256 * 1024 * 1024) -> None:
        self.max_resident = int(max_resident)
        self._free: dict[int, list[np.ndarray]] = {}
        self._lock = threading.Lock()
        self._resident = 0
        self.hits = 0
        self.misses = 0

    def acquire(self, nbytes: int) -> np.ndarray:
        """A ``uint8`` array of capacity >= ``nbytes`` (uninitialized).

        Returns a pooled buffer when one of a fitting bucket is free (a
        *hit*), else allocates a fresh one (a *miss*).  Slice the result
        to the exact size needed: ``pool.acquire(n)[:n]``.  The array
        must be handed back through :meth:`release` (or dropped — the
        pool holds no reference to leased buffers).
        """
        if nbytes < 0:
            raise ValueError(f"cannot acquire {nbytes} bytes")
        cap = _bucket(int(nbytes))
        with self._lock:
            bucket = self._free.get(cap)
            if bucket:
                buf = bucket.pop()
                self._resident -= cap
                self.hits += 1
                return buf
            self.misses += 1
        return np.empty(cap, dtype=np.uint8)

    def release(self, buf: Optional[np.ndarray]) -> None:
        """Return a buffer obtained from :meth:`acquire` to the pool.

        Accepts ``None`` (no-op) and any sliced view of a pooled buffer
        (the underlying base array is what goes back).  Buffers beyond
        :attr:`max_resident` are dropped rather than cached.
        """
        if buf is None:
            return
        base = buf
        while isinstance(base.base, np.ndarray):
            base = base.base
        if base.dtype != np.uint8 or base.base is not None:
            raise ValueError("release() takes buffers from acquire()")
        cap = int(base.size)
        with self._lock:
            if self._resident + cap > self.max_resident:
                return
            self._free.setdefault(cap, []).append(base)
            self._resident += cap

    def clear(self) -> None:
        """Drop every cached buffer (stats are kept)."""
        with self._lock:
            self._free.clear()
            self._resident = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BufferPool hits={self.hits} misses={self.misses} "
            f"resident={self._resident}B>"
        )
