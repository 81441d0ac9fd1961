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

The vector collectives share one packed round: every segment bound for
a peer is copied once into a single contiguous ``uint8`` send buffer
leased from the communicator's :class:`~repro.util.bufferpool.BufferPool`
and shipped with a :class:`~repro.mpi.descriptor.MessageDescriptor`
offset table, and each receiver is handed its spans, in source order,
as typed views borrowed from the senders' buffers.  A borrowed view
stays intact until the receiver enters its next vector collective on
the same communicator.  ``exchange_arrays(into=)`` and
``Allgatherv(into=)`` pass the views to the caller's callback, which
copies each to its final place; the returning forms (both without
``into``) are the same round with a sink that copies each view into a
caller-owned array.  An exchange's own entry never enters a buffer.
Trace events are recorded from the logical payloads, never from the
packed buffers, so event kinds, counts and byte totals are what the
application asked to move (the own entry included).  The bytes
actually packed show in the ``comm.packed_bytes`` and
``bufferpool.hits|misses`` metrics.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.mpi.descriptor import pack_segments, payload_nbytes, unpack_segments
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

    def _packed_round(
        self,
        opname: str,
        segments: Sequence[Optional[np.ndarray]],
        slot: int,
        own: Optional[np.ndarray],
        into: Callable[[int, np.ndarray], None],
    ) -> None:
        """Pack ``segments`` into a leased buffer, meet every rank, then
        call ``into(src, view)`` in source order for each receipt sent
        as an array (empty ones included; ``None`` is skipped).

        A peer's view is segment ``slot`` of that sender's packed
        buffer, borrowed: the lease rule above keeps it intact until
        this rank enters its next packed round on this communicator.
        This rank's own receipt is ``own``, handed over as it is.
        """
        total = sum(0 if a is None else int(a.nbytes) for a in segments)
        lease = self._lease(total)
        packed = pack_segments(segments, out=lease)
        table = self._collective(opname, packed, dict)
        for src in range(self._size):
            if src == self._rank:
                view = own
            else:
                buf, descs, offsets = table[src]
                view = unpack_segments(buf, descs[slot:slot + 1],
                                       offsets[slot:slot + 1])[0]
            if view is not None:
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

    def Allgatherv(
        self,
        sendbuf: np.ndarray,
        into: Optional[Callable[[int, np.ndarray], None]] = None,
    ) -> Optional[list[np.ndarray]]:
        """Variable-size allgather.  Without ``into``, returns the
        per-rank arrays in order, as caller-owned copies; with it, hands
        each rank's array to ``into(src, view)`` in source order as a
        borrowed view (this rank's is ``sendbuf`` itself; see
        :meth:`_packed_round`) and returns nothing."""
        sendbuf = np.asarray(sendbuf)
        received: Optional[list[Any]] = None
        if into is None:
            received = [None] * self._size
            into = functools.partial(_keep_copy, received)
        self._packed_round("allgatherv", [sendbuf], 0, sendbuf, into)
        self._record("allgather", None, int(sendbuf.nbytes))
        return received

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

        Without ``into`` the receipts come back as caller-owned copies,
        a ``None`` one as an empty float64 array.  With ``into`` nothing
        is returned: each receipt sent as an array is handed to
        ``into(src, view)`` as a borrowed view (see :meth:`_packed_round`),
        so a caller that copies it to its final place moves every
        received byte once.  The rank's own entry never enters the
        packed buffer.
        """
        if len(per_dest) != self._size:
            raise CommunicationError(
                f"exchange_arrays needs {self._size} entries, got {len(per_dest)}"
            )
        counts = [0 if a is None else int(a.nbytes) for a in per_dest]
        received: Optional[list[np.ndarray]] = None
        if into is None:
            received = [np.empty(0, dtype=np.float64) for _ in per_dest]
            into = functools.partial(_keep_copy, received)
        peers = list(per_dest)
        own, peers[self._rank] = peers[self._rank], None
        self._packed_round("exchange_arrays", peers, self._rank, own, into)
        self._record("alltoallv", None, sum(counts), counts=counts)
        return received


def _keep_copy(received: list[np.ndarray], src: int, view: np.ndarray) -> None:
    """The returning forms' sink: a caller-owned copy of each receipt."""
    received[src] = view.copy()
