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

The surface is what the solver, harness and examples call.  Numpy
payloads go through the two vector collectives, ``Allgatherv`` (the
tree's gather) and ``exchange_arrays`` (FFT remaps, cutoff migration and
spatial halo); small Python values go through the object collectives
``allreduce``, ``gather`` and ``allgather``; ``Barrier`` synchronizes.

The vector collectives move their payloads packed: every segment of a
round is copied once into a single contiguous ``uint8`` send buffer
leased from the communicator's :class:`~repro.util.bufferpool.BufferPool`
and shipped with a :class:`~repro.mpi.descriptor.MessageDescriptor`
offset table; each receiver copies exactly its spans into one private
assembly buffer and gets typed views back.  ``exchange_arrays(into=)``
skips that buffer: the receiver's callback copies each span straight
from the sender's packed buffer to its final place, and the rank's own
entry never enters a buffer at all.  Trace events are recorded
from the logical payload descriptors, never from the packed buffers, so
event kinds, counts and byte totals are what the application asked to
move.  The byte movement is visible through the ``comm.packed_bytes``
and ``bufferpool.hits|misses`` metrics.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.mpi.descriptor import (
    MessageDescriptor,
    describe,
    pack_segments,
    payload_nbytes,
    unpack_segments,
)
from repro.mpi.ops import SUM, Op
from repro.util.bufferpool import BufferPool
from repro.util.errors import CommunicationError

__all__ = ["CollectiveMixin"]


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

    def _exchange_round(
        self, per_dest: Sequence[Optional[np.ndarray]]
    ) -> tuple[dict[int, Any], np.ndarray, int]:
        """Pack ``per_dest`` into a leased buffer and meet every rank:
        ``(table, lease, packed bytes)``, where ``table[src]`` is rank
        ``src``'s ``(buffer, descriptors, offsets)``."""
        total = sum(0 if a is None else int(a.nbytes) for a in per_dest)
        lease = self._lease(total)
        packed = pack_segments(per_dest, out=lease)
        return self._collective("exchange_arrays", packed, dict), lease, total

    def _packed_exchange(
        self, per_dest: Sequence[Optional[np.ndarray]]
    ) -> list[Optional[np.ndarray]]:
        """One array (or ``None``) to each rank; caller-owned receipts in
        source order."""
        rank, size = self._rank, self._size
        table, lease, total = self._exchange_round(per_dest)

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

    def _borrowed_exchange(
        self,
        per_dest: Sequence[Optional[np.ndarray]],
        into: Callable[[int, np.ndarray], None],
    ) -> None:
        """``into(src, view)`` per non-empty receipt, in source order, on
        views the callee copies out of before it returns.

        A peer's view borrows that sender's packed buffer, which the lease
        rule above keeps intact until this rank enters its next packed
        round.  This rank's own entry never enters the packed buffer or
        the rendezvous table: ``into`` gets ``per_dest[rank]`` itself.
        """
        rank, size = self._rank, self._size
        peers = list(per_dest)
        own, peers[rank] = peers[rank], None
        table, lease, total = self._exchange_round(peers)
        for src in range(size):
            if src == rank:
                view = own
            else:
                sbuf, sdescs, soffs = table[src]
                view = unpack_segments(sbuf, sdescs[rank:rank + 1],
                                       soffs[rank:rank + 1])[0]
            if view is not None and view.size:
                into(src, view)
        self._finish_round(lease, total)

    # -- barrier -----------------------------------------------------------

    def Barrier(self) -> None:
        """Synchronize all ranks of the communicator."""
        self._record("barrier", None, 0)
        self._collective("barrier", None, lambda contrib: None)

    barrier = Barrier

    # -- reductions ------------------------------------------------------------

    def allreduce(self, obj: Any, op: Op = SUM) -> Any:
        """Object allreduce; every rank receives the combined value."""
        result = self._collective(
            f"allreduce_obj:{op.name}",
            obj,
            lambda c: op.reduce_ordered([c[r] for r in range(self._size)]),
        )
        self._record("allreduce", None, payload_nbytes(obj))
        return result

    # -- gathers -------------------------------------------------------------

    def Allgatherv(self, sendbuf: np.ndarray) -> list[np.ndarray]:
        """Variable-size allgather; returns the per-rank arrays in order."""
        desc = describe(sendbuf)
        result = self._packed_allgatherv(sendbuf, desc)
        self._record("allgather", None, desc.nbytes)
        return result

    def gather(self, obj: Any, root: int = 0) -> Optional[list[Any]]:
        """Object gather; the rank-ordered list at ``root``, else None."""
        if not 0 <= root < self._size:
            raise CommunicationError(
                f"root {root} out of range for comm of size {self._size}"
            )
        result = self._collective(
            "gather_obj", obj, lambda c: [c[r] for r in range(self._size)]
        )
        self._record("gather", root, payload_nbytes(obj))
        return list(result) if self._rank == root else None

    def allgather(self, obj: Any) -> list[Any]:
        """Object allgather; every rank receives the rank-ordered list."""
        result = self._collective(
            "allgather_obj", obj, lambda c: [c[r] for r in range(self._size)]
        )
        self._record("allgather", None, payload_nbytes(obj))
        return list(result)

    # -- all-to-all ------------------------------------------------------------

    def exchange_arrays(
        self,
        per_dest: Sequence[Optional[np.ndarray]],
        into: Optional[Callable[[int, np.ndarray], None]] = None,
    ) -> Optional[list[np.ndarray]]:
        """All-to-all of variable-shape numpy arrays (one per destination).

        This is the workhorse of the particle-migration layer: each rank
        provides an array (or ``None`` ≡ empty) for every destination and
        receives the arrays addressed to it, in source-rank order.
        Equivalent to a size exchange + ``Alltoallv`` in real MPI; the
        trace records it as an ``alltoallv`` with per-peer byte counts so
        the machine model costs it identically (the rank's own entry
        included, as ``MPI_Alltoallv``'s counts do).

        With ``into`` nothing is returned: each non-empty receipt is
        handed to ``into(src, view)`` as a borrowed view (see
        :meth:`_borrowed_exchange`), so a caller that copies it to its
        final place moves every received byte once.
        """
        if len(per_dest) != self._size:
            raise CommunicationError(
                f"exchange_arrays needs {self._size} entries, got {len(per_dest)}"
            )
        counts = [0 if a is None else int(a.nbytes) for a in per_dest]
        if into is not None:
            self._borrowed_exchange(per_dest, into)
            self._record("alltoallv", None, sum(counts), counts=counts)
            return None
        received = self._packed_exchange(per_dest)
        self._record("alltoallv", None, sum(counts), counts=counts)
        return [
            np.empty(0, dtype=np.float64) if arr is None else arr
            for arr in received
        ]
