"""Communicators: point-to-point messaging, requests, split/dup.

The API deliberately mirrors mpi4py: uppercase methods move numpy
buffers (fast path, what solver code uses), lowercase methods move
pickled Python objects (convenience path).  Blocking sends use buffered
semantics — ``Send`` copies the payload and returns immediately — which
is the standard choice for simulators and removes one class of
deadlock while preserving message-matching semantics.

Collective operations live in :class:`repro.mpi.collectives.CollectiveMixin`
which :class:`Comm` inherits.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional, Sequence

import numpy as np

from repro.mpi.collectives import CollectiveMixin
from repro.mpi.world import ANY_SOURCE, ANY_TAG, PROC_NULL, Message, World
from repro.util.errors import CommunicationError

__all__ = ["Comm", "Request", "Status", "ANY_SOURCE", "ANY_TAG", "PROC_NULL"]


class Status:
    """Receive status: actual source, tag and payload byte count."""

    def __init__(self) -> None:
        self.source: int = PROC_NULL
        self.tag: int = ANY_TAG
        self.nbytes: int = 0

    def Get_source(self) -> int:
        return self.source

    def Get_tag(self) -> int:
        return self.tag

    def Get_count(self, itemsize: int = 1) -> int:
        """Number of items of size ``itemsize`` in the received message."""
        return self.nbytes // itemsize


class Request:
    """Handle for a nonblocking operation.

    Isend requests are complete at creation (buffered semantics); Irecv
    requests match lazily in :meth:`test`/:meth:`wait`.
    """

    def __init__(
        self,
        comm: Optional["Comm"] = None,
        *,
        source: int = PROC_NULL,
        tag: int = ANY_TAG,
        buf: Optional[np.ndarray] = None,
        obj_mode: bool = False,
        done: bool = False,
    ) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._buf = buf
        self._obj_mode = obj_mode
        self._done = done
        self._result: Any = None
        self._status = Status()

    def test(self) -> bool:
        """Try to complete without blocking. Returns completion state."""
        if self._done:
            return True
        assert self._comm is not None
        msg = self._comm._world.try_match(
            self._comm.id, self._comm.rank, self._source, self._tag
        )
        if msg is None:
            return False
        self._finish(msg)
        return True

    def wait(self, status: Optional[Status] = None) -> Any:
        """Block until complete; returns the received object in object mode."""
        if not self._done:
            assert self._comm is not None
            msg = self._comm._world.match(
                self._comm.id, self._comm.rank, self._source, self._tag
            )
            self._finish(msg)
        if status is not None:
            status.source = self._status.source
            status.tag = self._status.tag
            status.nbytes = self._status.nbytes
        return self._result

    def Wait(self, status: Optional[Status] = None) -> Any:
        return self.wait(status)

    def _finish(self, msg: Message) -> None:
        assert self._comm is not None
        self._result = self._comm._consume(msg, self._buf, self._obj_mode)
        self._status.source = msg.src
        self._status.tag = msg.tag
        self._status.nbytes = msg.nbytes
        self._done = True

    @staticmethod
    def waitall(requests: Sequence["Request"]) -> list[Any]:
        """Complete every request; returns received objects in order."""
        return [req.wait() for req in requests]


def _payload_nbytes(arr: np.ndarray) -> int:
    return int(arr.nbytes)


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
        self._split_seq = 0
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

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"<Comm id={self._id} rank={self._rank}/{self._size}>"

    # -- buffer point-to-point ---------------------------------------------

    def _check_dest(self, dest: int) -> bool:
        """Validate destination; returns False for PROC_NULL (no-op)."""
        if dest == PROC_NULL:
            return False
        if not 0 <= dest < self._size:
            raise CommunicationError(
                f"destination {dest} out of range for comm of size {self._size}"
            )
        return True

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffered send of a numpy array (copied at call time)."""
        if not self._check_dest(dest):
            return
        arr = np.ascontiguousarray(buf)
        payload = arr.copy()
        nbytes = _payload_nbytes(payload)
        self._world.trace.record_comm(
            "send", self._rank, dest, nbytes, tag=tag,
            comm_size=self._size, comm_id=self._id,
        )
        self._world.deliver(
            self._id, dest,
            Message(src=self._rank, tag=tag, payload=payload,
                    is_object=False, nbytes=nbytes),
        )

    def Isend(self, buf: np.ndarray, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; complete at creation (buffered)."""
        self.Send(buf, dest, tag)
        return Request(done=True)

    def _consume(self, msg: Message, buf: Optional[np.ndarray], obj_mode: bool) -> Any:
        if obj_mode:
            if not msg.is_object:
                raise CommunicationError("object receive matched a buffer send")
            return pickle.loads(msg.payload)
        if msg.is_object:
            raise CommunicationError("buffer receive matched an object send")
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
        flat = out.reshape(-1)
        flat[: payload.size] = payload.reshape(-1)
        return out

    def Recv(
        self,
        buf: Optional[np.ndarray] = None,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> np.ndarray:
        """Blocking receive into ``buf`` (or a fresh array when None)."""
        if source == PROC_NULL:
            return buf  # type: ignore[return-value]
        msg = self._world.match(self._id, self._rank, source, tag)
        self._world.trace.record_comm(
            "recv", self._rank, msg.src, msg.nbytes, tag=msg.tag,
            comm_size=self._size, comm_id=self._id,
        )
        out = self._consume(msg, buf, obj_mode=False)
        if status is not None:
            status.source = msg.src
            status.tag = msg.tag
            status.nbytes = msg.nbytes
        return out

    def Irecv(
        self,
        buf: Optional[np.ndarray] = None,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Request:
        """Nonblocking receive; match happens in wait()/test()."""
        if source == PROC_NULL:
            return Request(done=True)
        return Request(self, source=source, tag=tag, buf=buf, obj_mode=False)

    def Sendrecv(
        self,
        sendbuf: np.ndarray,
        dest: int,
        sendtag: int = 0,
        recvbuf: Optional[np.ndarray] = None,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> np.ndarray:
        """Combined send+receive (deadlock-free under buffered sends)."""
        self.Send(sendbuf, dest, sendtag)
        return self.Recv(recvbuf, source, recvtag, status)

    def Probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Block until a matching message is available; do not consume it."""
        msg = self._world.peek(self._id, self._rank, source, tag)
        status = Status()
        status.source = msg.src
        status.tag = msg.tag
        status.nbytes = msg.nbytes
        return status

    def Iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        return self._world.try_peek(self._id, self._rank, source, tag) is not None

    # -- object point-to-point ----------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Pickle-based send of an arbitrary Python object."""
        if not self._check_dest(dest):
            return
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._world.trace.record_comm(
            "send", self._rank, dest, len(payload), tag=tag,
            comm_size=self._size, comm_id=self._id,
        )
        self._world.deliver(
            self._id, dest,
            Message(src=self._rank, tag=tag, payload=payload,
                    is_object=True, nbytes=len(payload)),
        )

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Pickle-based receive returning the object."""
        msg = self._world.match(self._id, self._rank, source, tag)
        self._world.trace.record_comm(
            "recv", self._rank, msg.src, msg.nbytes, tag=msg.tag,
            comm_size=self._size, comm_id=self._id,
        )
        if status is not None:
            status.source = msg.src
            status.tag = msg.tag
            status.nbytes = msg.nbytes
        return self._consume(msg, None, obj_mode=True)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)
        return Request(done=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        return Request(self, source=source, tag=tag, obj_mode=True)

    def sendrecv(self, obj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG) -> Any:
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag)

    # -- communicator management ---------------------------------------------

    def Dup(self) -> "Comm":
        """Duplicate: same group, fresh communication context."""
        new_id = self._collective(
            "dup",
            None,
            lambda contrib: self._world.split_comm_id(self._id, -self._coll_seq, "dup"),
        )
        return Comm(self._world, new_id, self._rank, self._size)

    def Split(self, color: Any, key: int = 0) -> Optional["Comm"]:
        """Partition the communicator by ``color``; order ranks by ``key``.

        Returns ``None`` for ranks passing ``color=None`` (the analogue
        of ``MPI_UNDEFINED``).
        """
        split_seq = self._split_seq
        self._split_seq += 1
        table = self._collective(
            "split",
            (color, key, self._rank),
            lambda contrib: sorted(contrib.values(), key=lambda t: (t[1], t[2])),
        )
        if color is None:
            return None
        members = [(k, r) for (c, k, r) in table if c == color]
        new_size = len(members)
        new_rank = [r for (_, r) in members].index(self._rank)
        new_id = self._world.split_comm_id(self._id, split_seq, color)
        return Comm(self._world, new_id, new_rank, new_size)

    def Free(self) -> None:
        """No-op provided for API symmetry with real MPI."""

    def Abort(self, errorcode: int = 1) -> None:
        """Abort the whole SPMD run."""
        self._world.abort(CommunicationError(f"Comm.Abort({errorcode}) called"))
        self._world.check_abort()
