"""Collective operations for the simulated MPI layer.

Collectives are implemented with a rendezvous slot per call (see
:meth:`repro.mpi.world.World.collective`): each rank contributes its
payload, the last arriving rank combines all contributions
deterministically (rank order), and every rank picks up the shared
result.  This is deadlock-free by construction and makes collective
results bit-reproducible.

The *cost* of a collective — which algorithm a real MPI would use, how
many messages, how much time — is not modeled here; it is assigned by
:mod:`repro.machine.collectives` when a recorded trace is replayed on a
machine model.  That separation mirrors reality: the application requests
``MPI_Alltoallv``, the library chooses pairwise vs. Bruck.

Uppercase methods move numpy buffers; lowercase methods move Python
objects.  Vector collectives take element counts (not bytes), like MPI.

The vector collectives (``Allgatherv``, ``Alltoallv``,
``exchange_arrays``) move their payloads packed: every segment of a
round is copied once into a single contiguous ``uint8`` send buffer
leased from the communicator's :class:`~repro.util.bufferpool.BufferPool`
and shipped with a :class:`~repro.mpi.descriptor.MessageDescriptor`
offset table; each receiver copies exactly its spans into one private
assembly buffer and gets typed views back.  Trace events are recorded
from the logical payload descriptors, never from the packed buffers, so
event kinds, counts and byte totals are what the application asked to
move.  The byte movement is visible through the ``comm.packed_bytes``
and ``bufferpool.hits|misses`` metrics.
"""

from __future__ import annotations

import pickle
from collections import deque
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.mpi.descriptor import (
    MessageDescriptor,
    describe,
    pack_segments,
    payload_nbytes,
    split_by_counts,
    unpack_segments,
)
from repro.mpi.ops import SUM, Op
from repro.util.bufferpool import BufferPool
from repro.util.errors import CommunicationError

__all__ = ["CollectiveMixin"]

# Exact descriptor-based payload sizing (arrays are O(1) via nbytes;
# opaque objects fall back to measuring the pickle).
_nbytes_obj = payload_nbytes


class CollectiveMixin:
    """Collective methods shared by :class:`repro.mpi.Comm`.

    Requires the host class to provide ``_world``, ``_id``, ``_rank``,
    ``_size`` and ``_coll_seq`` attributes and to call
    :meth:`_init_packing` once (one buffer pool per communicator per
    rank, so pooled leases are rank-private and never contend).
    """

    # These attributes are provided by Comm.
    _world: Any
    _id: int
    _rank: int
    _size: int
    _coll_seq: int

    def _collective(
        self, opname: str, contribution: Any, combine: Callable[[dict[int, Any]], Any]
    ) -> Any:
        seq = self._coll_seq
        self._coll_seq += 1
        return self._world.collective(
            self._id, seq, self._rank, self._size, opname, contribution, combine
        )

    def _record(self, kind: str, peer: Optional[int], nbytes: int,
                counts: Optional[Sequence[int]] = None) -> None:
        self._world.trace.record_comm(
            kind, self._rank, peer, nbytes,
            counts=counts, comm_size=self._size, comm_id=self._id,
        )

    # -- packed byte movement (the vector collectives) ---------------------
    #
    # Lease lifetime: a peer may still be reading this rank's packed send
    # buffer after this rank's collective call returns, but it must finish
    # before it enters the *next* collective on the same communicator, and
    # the rendezvous protocol forbids any rank entering round N+1 before
    # every rank completed round N.  Releasing a lease two packed rounds
    # after it was acquired is therefore provably safe; ``_reclaim`` does
    # exactly that, which is what turns the pool's misses into
    # steady-state hits.

    def _init_packing(self) -> None:
        self._pool = BufferPool()
        self._pending: deque[tuple[int, np.ndarray]] = deque()
        self._packed_rounds = 0

    def _reclaim(self) -> None:
        """Release leases whose round is two packed rounds behind."""
        while self._pending and self._pending[0][0] <= self._packed_rounds - 2:
            self._pool.release(self._pending.popleft()[1])

    def _lease(self, nbytes: int) -> np.ndarray:
        self._reclaim()
        pool = self._pool
        hits, misses = pool.hits, pool.misses
        buf = pool.acquire(nbytes)
        metrics = self._world.trace.metrics
        metrics.counter("bufferpool.hits").inc(pool.hits - hits)
        metrics.counter("bufferpool.misses").inc(pool.misses - misses)
        return buf

    def _finish_round(self, lease: np.ndarray, nbytes: int) -> None:
        self._pending.append((self._packed_rounds, lease))
        self._packed_rounds += 1
        self._world.trace.metrics.counter("comm.packed_bytes").inc(nbytes)

    def _packed_allgatherv(
        self, sendbuf: np.ndarray, desc: MessageDescriptor
    ) -> list[np.ndarray]:
        """Every rank's array, in rank order, as caller-owned views."""
        lease = self._lease(desc.nbytes)
        buf = lease[: desc.nbytes]
        if desc.nbytes:
            # Gather straight into the pooled send buffer — one pass even
            # when the payload is strided.
            np.copyto(buf.view(desc.dtype).reshape(desc.shape), sendbuf)
        size = self._size
        table = self._collective(
            "allgatherv", (buf, desc), lambda c: [c[r] for r in range(size)]
        )
        # Assemble every rank's span into one private buffer: a single
        # allocation whose disjoint views are caller-owned.
        descs = [d for _, d in table]
        offsets, total = [], 0
        for d in descs:
            offsets.append(total)
            total += d.nbytes
        private = np.empty(total, dtype=np.uint8)
        for (src, d), off in zip(table, offsets):
            private[off: off + d.nbytes] = src
        self._finish_round(lease, desc.nbytes)
        return unpack_segments(private, descs, offsets)

    def _packed_exchange(
        self, opname: str, per_dest: Sequence[Optional[np.ndarray]]
    ) -> list[Optional[np.ndarray]]:
        """One array (or ``None``) to each rank; caller-owned receipts in
        source order."""
        total = sum(0 if a is None else int(a.nbytes) for a in per_dest)
        lease = self._lease(total)
        buf, descs, offsets = pack_segments(per_dest, out=lease)
        rank, size = self._rank, self._size
        table = self._collective(opname, (buf, descs, offsets), dict)

        # Assemble this rank's column into one private buffer.
        my_descs: list[Optional[MessageDescriptor]] = []
        my_offsets: list[int] = []
        my_total = 0
        for src in range(size):
            d = table[src][1][rank]
            my_descs.append(d)
            my_offsets.append(my_total)
            my_total += 0 if d is None else d.nbytes
        private = np.empty(my_total, dtype=np.uint8)
        for src in range(size):
            sbuf, sdescs, soffs = table[src]
            d = sdescs[rank]
            if d is None or d.nbytes == 0:
                continue
            off = soffs[rank]
            private[my_offsets[src]: my_offsets[src] + d.nbytes] = (
                sbuf[off: off + d.nbytes]
            )
        self._finish_round(lease, total)
        return unpack_segments(private, my_descs, my_offsets)

    # -- barrier -----------------------------------------------------------

    def Barrier(self) -> None:
        """Synchronize all ranks of the communicator."""
        self._record("barrier", None, 0)
        self._collective("barrier", None, lambda contrib: None)

    barrier = Barrier

    # -- broadcast -----------------------------------------------------------

    def Bcast(self, buf: np.ndarray, root: int = 0) -> np.ndarray:
        """Broadcast ``buf`` from ``root`` into every rank's ``buf``."""
        self._check_root(root)
        contribution = np.ascontiguousarray(buf).copy() if self._rank == root else None
        result = self._collective("bcast", contribution, lambda c: c[root])
        out = np.asarray(buf)
        if self._rank != root:
            if out.dtype != result.dtype or out.size < result.size:
                raise CommunicationError(
                    f"Bcast buffer mismatch: {out.dtype}/{out.size} vs "
                    f"{result.dtype}/{result.size}"
                )
            out.reshape(-1)[: result.size] = result.reshape(-1)
        self._record("bcast", root, int(out.nbytes))
        return out

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Object broadcast; returns the root's object on every rank."""
        self._check_root(root)
        result = self._collective(
            "bcast_obj",
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            if self._rank == root
            else None,
            lambda c: c[root],
        )
        self._record("bcast", root, len(result))
        return pickle.loads(result)

    # -- reductions ------------------------------------------------------------

    def Reduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray],
        op: Op = SUM,
        root: int = 0,
    ) -> Optional[np.ndarray]:
        """Reduce numpy buffers to ``root`` (rank-ordered, deterministic)."""
        self._check_root(root)
        contribution = np.ascontiguousarray(sendbuf).copy()
        result = self._collective(
            f"reduce:{op.name}",
            contribution,
            lambda c: op.reduce_ordered([c[r] for r in range(self._size)]),
        )
        self._record("reduce", root, int(contribution.nbytes))
        if self._rank == root:
            if recvbuf is None:
                return result
            out = np.asarray(recvbuf)
            out.reshape(-1)[: result.size] = np.asarray(result).reshape(-1)
            return out
        return None

    def Allreduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray] = None,
        op: Op = SUM,
    ) -> np.ndarray:
        """Reduce numpy buffers; every rank receives the result."""
        contribution = np.ascontiguousarray(sendbuf).copy()
        result = self._collective(
            f"allreduce:{op.name}",
            contribution,
            lambda c: op.reduce_ordered([c[r] for r in range(self._size)]),
        )
        self._record("allreduce", None, int(contribution.nbytes))
        if recvbuf is None:
            return np.array(result, copy=True)
        out = np.asarray(recvbuf)
        out.reshape(-1)[: np.size(result)] = np.asarray(result).reshape(-1)
        return out

    def reduce(self, obj: Any, op: Op = SUM, root: int = 0) -> Any:
        """Object reduce; returns the combined value at ``root`` else None."""
        self._check_root(root)
        result = self._collective(
            f"reduce_obj:{op.name}",
            obj,
            lambda c: op.reduce_ordered([c[r] for r in range(self._size)]),
        )
        self._record("reduce", root, _nbytes_obj(obj))
        return result if self._rank == root else None

    def allreduce(self, obj: Any, op: Op = SUM) -> Any:
        """Object allreduce; every rank receives the combined value."""
        result = self._collective(
            f"allreduce_obj:{op.name}",
            obj,
            lambda c: op.reduce_ordered([c[r] for r in range(self._size)]),
        )
        self._record("allreduce", None, _nbytes_obj(obj))
        return result

    # -- gathers -------------------------------------------------------------

    def Gather(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray] = None,
        root: int = 0,
    ) -> Optional[np.ndarray]:
        """Gather equal-size numpy blocks to ``root``.

        At root, returns an array of shape ``(size,) + sendbuf.shape``
        (written into ``recvbuf`` when provided).
        """
        self._check_root(root)
        contribution = np.ascontiguousarray(sendbuf).copy()
        result = self._collective(
            "gather",
            contribution,
            lambda c: np.stack([c[r] for r in range(self._size)]),
        )
        self._record("gather", root, int(contribution.nbytes))
        if self._rank != root:
            return None
        if recvbuf is None:
            return result
        out = np.asarray(recvbuf)
        out.reshape(-1)[: result.size] = result.reshape(-1)
        return out

    def Allgather(
        self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Gather equal-size numpy blocks to every rank."""
        contribution = np.ascontiguousarray(sendbuf).copy()
        result = self._collective(
            "allgather",
            contribution,
            lambda c: np.stack([c[r] for r in range(self._size)]),
        )
        self._record("allgather", None, int(contribution.nbytes))
        if recvbuf is None:
            return result.copy()
        out = np.asarray(recvbuf)
        out.reshape(-1)[: result.size] = result.reshape(-1)
        return out

    def Allgatherv(self, sendbuf: np.ndarray) -> list[np.ndarray]:
        """Variable-size allgather; returns the per-rank arrays in order."""
        desc = describe(sendbuf)
        result = self._packed_allgatherv(sendbuf, desc)
        self._record("allgather", None, desc.nbytes)
        return result

    def gather(self, obj: Any, root: int = 0) -> Optional[list[Any]]:
        self._check_root(root)
        result = self._collective(
            "gather_obj", obj, lambda c: [c[r] for r in range(self._size)]
        )
        self._record("gather", root, _nbytes_obj(obj))
        return list(result) if self._rank == root else None

    def allgather(self, obj: Any) -> list[Any]:
        result = self._collective(
            "allgather_obj", obj, lambda c: [c[r] for r in range(self._size)]
        )
        self._record("allgather", None, _nbytes_obj(obj))
        return list(result)

    # -- scatters -----------------------------------------------------------

    def Scatter(
        self,
        sendbuf: Optional[np.ndarray],
        recvbuf: Optional[np.ndarray] = None,
        root: int = 0,
    ) -> np.ndarray:
        """Scatter equal blocks from root's ``(size, ...)`` array."""
        self._check_root(root)
        contribution = None
        if self._rank == root:
            arr = np.ascontiguousarray(sendbuf)
            if arr.shape[0] != self._size:
                raise CommunicationError(
                    f"Scatter sendbuf first dim {arr.shape[0]} != comm size {self._size}"
                )
            contribution = arr.copy()
        result = self._collective("scatter", contribution, lambda c: c[root])
        mine = result[self._rank]
        self._record("scatter", root, int(mine.nbytes))
        if recvbuf is None:
            return mine.copy()
        out = np.asarray(recvbuf)
        out.reshape(-1)[: mine.size] = mine.reshape(-1)
        return out

    def scatter(self, objs: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        self._check_root(root)
        contribution = None
        if self._rank == root:
            if objs is None or len(objs) != self._size:
                raise CommunicationError("scatter needs one object per rank at root")
            contribution = list(objs)
        result = self._collective("scatter_obj", contribution, lambda c: c[root])
        mine = result[self._rank]
        self._record("scatter", root, _nbytes_obj(mine))
        return mine

    # -- all-to-alls ------------------------------------------------------------

    def Alltoall(
        self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Equal-block all-to-all: ``sendbuf.shape[0]`` must equal size."""
        arr = np.ascontiguousarray(sendbuf)
        if arr.shape[0] != self._size:
            raise CommunicationError(
                f"Alltoall sendbuf first dim {arr.shape[0]} != comm size {self._size}"
            )
        contribution = arr.copy()
        table = self._collective(
            "alltoall", contribution, lambda c: [c[r] for r in range(self._size)]
        )
        result = np.stack([table[src][self._rank] for src in range(self._size)])
        block = int(arr.nbytes // self._size)
        self._record(
            "alltoall", None, int(arr.nbytes), counts=[block] * self._size
        )
        if recvbuf is None:
            return result
        out = np.asarray(recvbuf)
        out.reshape(-1)[: result.size] = result.reshape(-1)
        return out

    def Alltoallv(
        self,
        sendbuf: np.ndarray,
        sendcounts: Sequence[int],
        recvbuf: Optional[np.ndarray] = None,
        recvcounts: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Vector all-to-all over a flat buffer with per-rank element counts.

        ``sendbuf`` is a 1-D array partitioned contiguously by
        ``sendcounts``; the return value concatenates the segments
        received from each rank in rank order.  ``recvcounts`` is
        validated when provided (real MPI requires it; here it can be
        inferred, which the spatial migration layer exploits).
        """
        arr = np.ascontiguousarray(sendbuf).reshape(-1)
        counts = [int(c) for c in sendcounts]
        if len(counts) != self._size:
            raise CommunicationError(
                f"sendcounts has {len(counts)} entries for comm of size {self._size}"
            )
        if sum(counts) != arr.size:
            raise CommunicationError(
                f"sendcounts sum {sum(counts)} != sendbuf size {arr.size}"
            )
        received = self._packed_exchange(
            "alltoallv", split_by_counts(arr, counts)
        )
        if recvcounts is not None:
            actual = [seg.size for seg in received]
            expected = [int(c) for c in recvcounts]
            if actual != expected:
                raise CommunicationError(
                    f"Alltoallv recvcounts mismatch: expected {expected}, got {actual}"
                )
        result = (
            np.concatenate(received)
            if received
            else np.empty(0, dtype=arr.dtype)
        )
        itemsize = arr.dtype.itemsize
        self._record(
            "alltoallv", None, int(arr.nbytes),
            counts=[c * itemsize for c in counts],
        )
        if recvbuf is None:
            return result
        out = np.asarray(recvbuf)
        out.reshape(-1)[: result.size] = result
        return out

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Object all-to-all: one object per destination rank."""
        if len(objs) != self._size:
            raise CommunicationError(
                f"alltoall needs {self._size} objects, got {len(objs)}"
            )
        table = self._collective(
            "alltoall_obj", list(objs), lambda c: [c[r] for r in range(self._size)]
        )
        nbytes = _nbytes_obj(objs)
        self._record("alltoall", None, nbytes)
        return [table[src][self._rank] for src in range(self._size)]

    def exchange_arrays(self, per_dest: Sequence[Optional[np.ndarray]]) -> list[np.ndarray]:
        """All-to-all of variable-shape numpy arrays (one per destination).

        This is the workhorse of the particle-migration layer: each rank
        provides an array (or ``None`` ≡ empty) for every destination and
        receives the arrays addressed to it, in source-rank order.
        Equivalent to a size exchange + ``Alltoallv`` in real MPI; the
        trace records it as an ``alltoallv`` with per-peer byte counts so
        the machine model costs it identically.
        """
        if len(per_dest) != self._size:
            raise CommunicationError(
                f"exchange_arrays needs {self._size} entries, got {len(per_dest)}"
            )
        received = self._packed_exchange("exchange_arrays", per_dest)
        counts = [0 if a is None else int(a.nbytes) for a in per_dest]
        self._record("alltoallv", None, sum(counts), counts=counts)
        return [
            np.empty(0, dtype=np.float64) if arr is None else arr
            for arr in received
        ]

    # -- helpers ---------------------------------------------------------------

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self._size:
            raise CommunicationError(
                f"root {root} out of range for comm of size {self._size}"
            )
