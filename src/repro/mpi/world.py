"""Shared state behind an SPMD run: mailboxes, collective slots, abort.

A :class:`World` is created once per :func:`repro.mpi.run_spmd` invocation
and shared by all rank threads.  It provides:

* per-(communicator, destination) mailboxes with MPI matching semantics
  (FIFO per source/tag pair, wildcard source and tag) holding the numpy
  payloads of ``Send`` — the only point-to-point path,
* rendezvous "slots" through which every collective passes its
  contributions (numpy buffers or plain Python objects) and agrees on
  new communicator ids, and
* a cooperative abort mechanism so one failing rank tears the whole run
  down with the original exception instead of deadlocking the others.

All blocking waits are bounded by ``timeout`` seconds and raise
:class:`~repro.util.errors.DeadlockError` when exceeded, so mismatched
communication in tests fails fast.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.mpi.trace import CommTrace, NullTrace
from repro.util.errors import DeadlockError, RankAbortedError

__all__ = ["World", "Message", "ANY_SOURCE", "ANY_TAG", "PROC_NULL"]

ANY_SOURCE = -2
ANY_TAG = -1
PROC_NULL = -1

_POLL_INTERVAL = 0.02


@dataclass
class Message:
    """An in-flight point-to-point message (payload already copied)."""

    src: int
    tag: int
    payload: Any
    nbytes: int

    def matches(self, source: int, tag: int) -> bool:
        src_ok = source == ANY_SOURCE or source == self.src
        tag_ok = tag == ANY_TAG or tag == self.tag
        return src_ok and tag_ok


class _CollSlot:
    """Rendezvous point for one collective call on one communicator."""

    __slots__ = ("cond", "contrib", "result", "done", "picked", "opname")

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.contrib: dict[int, Any] = {}
        self.result: Any = None
        self.done = False
        self.picked = 0
        self.opname: Optional[str] = None


class World:
    """All shared state for one SPMD program run."""

    def __init__(
        self,
        size: int,
        trace: Optional[CommTrace] = None,
        timeout: float = 120.0,
    ) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.size = size
        self.trace: CommTrace = trace if trace is not None else NullTrace()
        self.timeout = timeout
        self._abort_event = threading.Event()
        self._abort_exc: Optional[BaseException] = None
        self._global_lock = threading.Lock()
        self._channels: dict[
            tuple[int, int], tuple[list[Message], threading.Condition]
        ] = {}
        self._all_conds: list[threading.Condition] = []
        self._slots: dict[tuple[int, int], _CollSlot] = {}
        self._next_comm_id = 0

    # -- communicator identity ------------------------------------------

    def alloc_comm_id(self) -> int:
        with self._global_lock:
            cid = self._next_comm_id
            self._next_comm_id += 1
            return cid

    # -- abort handling ---------------------------------------------------

    def abort(self, exc: BaseException) -> None:
        """Record a fatal rank failure and wake every blocked thread."""
        with self._global_lock:
            if self._abort_exc is None:
                self._abort_exc = exc
            conds = list(self._all_conds)
        self._abort_event.set()
        for cond in conds:
            with cond:
                cond.notify_all()

    def check_abort(self) -> None:
        if self._abort_event.is_set():
            raise RankAbortedError(
                f"SPMD run aborted by another rank: {self._abort_exc!r}"
            )

    # -- mailboxes --------------------------------------------------------

    def _channel(self, comm_id: int, dest: int) -> tuple[list[Message], threading.Condition]:
        """The (mailbox, condition) pair of one destination; only its
        first use takes the global lock."""
        key = (comm_id, dest)
        channel = self._channels.get(key)
        if channel is None:
            with self._global_lock:
                channel = self._channels.get(key)
                if channel is None:
                    channel = self._channels[key] = ([], threading.Condition())
                    self._all_conds.append(channel[1])
        return channel

    def deliver(self, comm_id: int, dest: int, message: Message) -> None:
        box, cond = self._channel(comm_id, dest)
        with cond:
            box.append(message)
            cond.notify_all()

    def match(
        self,
        comm_id: int,
        dest: int,
        source: int,
        tag: int,
        timeout: Optional[float] = None,
    ) -> Message:
        """Blocking matched receive with deadline and abort checks."""
        box, cond = self._channel(comm_id, dest)
        deadline = time.monotonic() + (timeout if timeout is not None else self.timeout)
        with cond:
            while True:
                self.check_abort()
                for i, msg in enumerate(box):
                    if msg.matches(source, tag):
                        return box.pop(i)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(
                        f"rank {dest} (comm {comm_id}) timed out receiving "
                        f"source={source} tag={tag}"
                    )
                cond.wait(min(_POLL_INTERVAL, remaining))

    # -- collective rendezvous ---------------------------------------------

    def collective(
        self,
        comm_id: int,
        seq: int,
        rank: int,
        size: int,
        opname: str,
        contribution: Any,
        combine: Callable[[dict[int, Any]], Any],
        timeout: Optional[float] = None,
    ) -> Any:
        """Synchronize ``size`` ranks on collective call ``seq``.

        The last rank to arrive runs ``combine`` over the rank-indexed
        contribution dict; every rank then receives the same result
        object.  Mismatched operation names across ranks (e.g. one rank
        calling allreduce while another calls Barrier) raise
        :class:`~repro.util.errors.CommunicationError` deterministically.
        """
        key = (comm_id, seq)
        with self._global_lock:
            slot = self._slots.get(key)
            if slot is None:
                slot = _CollSlot()
                self._slots[key] = slot
                self._all_conds.append(slot.cond)
        deadline = time.monotonic() + (timeout if timeout is not None else self.timeout)
        with slot.cond:
            if slot.opname is None:
                slot.opname = opname
            elif slot.opname != opname:
                from repro.util.errors import CommunicationError

                raise CommunicationError(
                    f"collective mismatch on comm {comm_id} call {seq}: "
                    f"rank {rank} called {opname!r} but another rank "
                    f"called {slot.opname!r}"
                )
            slot.contrib[rank] = contribution
            if len(slot.contrib) == size:
                slot.result = combine(slot.contrib)
                slot.done = True
                slot.cond.notify_all()
            else:
                while not slot.done:
                    self.check_abort()
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise DeadlockError(
                            f"rank {rank} timed out in collective {opname!r} "
                            f"(comm {comm_id}, call {seq}): only "
                            f"{len(slot.contrib)}/{size} ranks arrived"
                        )
                    slot.cond.wait(min(_POLL_INTERVAL, remaining))
            result = slot.result
            slot.picked += 1
            last = slot.picked == size
        if last:
            with self._global_lock:
                self._slots.pop(key, None)
        return result
