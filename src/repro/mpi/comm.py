"""Communicators: buffer point-to-point messaging and ``Dup``.

Point-to-point methods move numpy buffers only (``Send`` / ``Recv`` /
``Sendrecv``, mpi4py's names and argument order).  Sends use buffered
semantics — ``Send`` copies the payload and returns immediately —
which is the standard choice for simulators and removes one class of
deadlock while preserving message-matching semantics.

Collective operations live in :class:`repro.mpi.collectives.CollectiveMixin`
which :class:`Comm` inherits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mpi.collectives import CollectiveMixin
from repro.mpi.world import ANY_SOURCE, ANY_TAG, PROC_NULL, Message, World
from repro.util.errors import CommunicationError

__all__ = ["Comm", "ANY_SOURCE", "ANY_TAG", "PROC_NULL"]


class Comm(CollectiveMixin):
    """A communicator over a contiguous group of simulated ranks."""

    def __init__(
        self,
        world: World,
        comm_id: int,
        rank: int,
        size: int,
    ) -> None:
        self._world = world
        self._id = comm_id
        self._rank = rank
        self._size = size
        self._coll_seq = 0
        self._init_packing()

    # -- identity ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    @property
    def id(self) -> int:
        return self._id

    @property
    def trace(self):
        return self._world.trace

    def __repr__(self) -> str:
        return f"<Comm id={self._id} rank={self._rank}/{self._size}>"

    # -- buffer point-to-point ---------------------------------------------

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffered send of a numpy array (copied at call time).

        The copy is the one pass that also makes a strided ``buf``
        C-contiguous.  A send to :data:`PROC_NULL` is a no-op.
        """
        if dest == PROC_NULL:
            return
        if not 0 <= dest < self._size:
            raise CommunicationError(
                f"destination {dest} out of range for comm of size {self._size}"
            )
        payload = np.array(buf, order="C", ndmin=1)
        nbytes = int(payload.nbytes)
        self._world.trace.record_comm(
            "send", self._rank, dest, nbytes, tag=tag,
            comm_size=self._size, comm_id=self._id,
        )
        self._world.deliver(
            self._id, dest,
            Message(src=self._rank, tag=tag, payload=payload, nbytes=nbytes),
        )

    def Recv(
        self,
        buf: Optional[np.ndarray] = None,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> np.ndarray:
        """Blocking receive into ``buf`` (or a fresh array when None).

        ``source`` / ``tag`` may be :data:`ANY_SOURCE` / :data:`ANY_TAG`;
        a receive from :data:`PROC_NULL` returns ``buf`` untouched.
        """
        if source == PROC_NULL:
            return buf  # type: ignore[return-value]
        msg = self._world.match(self._id, self._rank, source, tag)
        self._world.trace.record_comm(
            "recv", self._rank, msg.src, msg.nbytes, tag=msg.tag,
            comm_size=self._size, comm_id=self._id,
        )
        payload: np.ndarray = msg.payload
        if buf is None:
            return payload
        out = np.asarray(buf)
        if out.dtype != payload.dtype:
            raise CommunicationError(
                f"dtype mismatch: receiving {payload.dtype} into {out.dtype}"
            )
        if out.size < payload.size:
            raise CommunicationError(
                f"receive buffer too small: {out.size} < {payload.size}"
            )
        out.reshape(-1)[: payload.size] = payload.reshape(-1)
        return out

    def Sendrecv(
        self,
        sendbuf: np.ndarray,
        dest: int,
        sendtag: int = 0,
        recvbuf: Optional[np.ndarray] = None,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
    ) -> np.ndarray:
        """Combined send+receive (deadlock-free under buffered sends)."""
        self.Send(sendbuf, dest, sendtag)
        return self.Recv(recvbuf, source, recvtag)

    # -- communicator management ---------------------------------------------

    def Dup(self) -> "Comm":
        """Duplicate: same group, fresh communication context.

        The last rank into the rendezvous allocates the new id once;
        every member receives it.
        """
        new_id = self._collective(
            "dup", None, lambda contrib: self._world.alloc_comm_id()
        )
        return Comm(self._world, new_id, self._rank, self._size)
