"""Coordinator/worker job protocol: typed messages, one codec, one wire.

The campaign service (:mod:`repro.campaign.service`) detaches run
execution from a single process tree: a long-running coordinator owns
the run queue and pull-based workers fetch work over the small message
protocol defined here.  The protocol is three layers, each
independently testable, and the wire is the only layer that knows
about sockets:

**Messages** — one frozen dataclass per message type:

=================  =============  ==========================================
wire type          dataclass      meaning
=================  =============  ==========================================
``job-request``    `JobRequest`   worker → coordinator: ready for work
``new-job``        `NewJob`       coordinator → worker: a leased run or fleet
``no-work-left``   `NoWorkLeft`   coordinator → worker: drain and exit
``heartbeat``      `Heartbeat`    worker → coordinator: lease renewal
``job-done``       `JobDone`      worker → coordinator: run completed
``job-failed``     `JobFailed`    worker → coordinator: run raised, recorded
=================  =============  ==========================================

**Codec** — :func:`encode_message` / :func:`decode_message` map messages
to/from canonical JSON bytes.  JSON, *never* pickle: frames arrive from
a network socket, and unpickling untrusted bytes is arbitrary code
execution.  Anything malformed — truncated JSON, an unknown type, a
missing field, a non-JSON blob — raises the typed
:class:`ProtocolError` instead of leaking decoder internals.

**Framing / wire** — local TCP with length-prefixed frames (4-byte
big-endian length + codec bytes): :class:`SocketWorkerChannel` is the
worker side (``send``/``recv``), :class:`SocketEndpoint` the
coordinator side (``poll``/``send`` keyed by connection id).
:class:`FrameDecoder` reassembles frames from an arbitrarily chunked
byte stream, so message boundaries are invariant under any TCP
segmentation.
"""

from __future__ import annotations

import json
import logging
import os
import queue
import socket
import struct
import threading
import time
from dataclasses import MISSING as _MISSING
from dataclasses import dataclass, field, fields
from typing import Any, Optional, Union

from repro.util.errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ChannelClosedError",
    "JobRequest",
    "NewJob",
    "NoWorkLeft",
    "Heartbeat",
    "JobDone",
    "JobFailed",
    "MESSAGE_TYPES",
    "Message",
    "encode_message",
    "decode_message",
    "frame",
    "FrameDecoder",
    "SocketWorkerChannel",
    "SocketEndpoint",
]

logger = logging.getLogger("repro.campaign")

#: Bumped on any incompatible message-schema change; both ends refuse
#: frames from a different major version with a typed error instead of
#: mis-parsing them.  2: ``new-job`` carries fleet ``members`` (a v1
#: worker would ignore them and run one spec).
PROTOCOL_VERSION = 2

#: Upper bound on one frame's payload.  A length prefix beyond this is
#: a corrupt or hostile stream, rejected before any allocation.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class ProtocolError(ReproError):
    """A frame or message violated the wire protocol (truncated frame,
    oversized length prefix, non-JSON payload, unknown or malformed
    message type, version mismatch)."""


class ChannelClosedError(ProtocolError):
    """The peer hung up: the underlying transport cannot deliver or
    produce any further messages on this channel."""


# -- messages -----------------------------------------------------------------


@dataclass(frozen=True)
class JobRequest:
    """Worker → coordinator: ``worker`` is idle and wants a run."""

    worker: str

    TYPE = "job-request"


@dataclass(frozen=True)
class NewJob:
    """Coordinator → worker: a leased run, or a leased fleet.

    Carries everything a worker needs to rebuild and execute the run
    with no shared state beyond the filesystem: the spec payload dict
    (:meth:`repro.campaign.deck.RunSpec.payload`), the campaign name
    and store root to open the :class:`~repro.campaign.store.CampaignStore`,
    and the lease the coordinator granted — the worker must heartbeat
    faster than ``lease_timeout`` or the run is reclaimed and requeued.
    ``timeout`` / ``collective_timeout`` / ``checkpoint_freq`` /
    ``telemetry`` are the submitting side's executor settings, so a
    leased run behaves as it would have where it was submitted.

    A fleet lease carries its members' payload dicts in ``members``
    (``payload`` is then empty) under a group ``run_hash``; the worker
    reports each member under its own hash.
    """

    run_hash: str
    payload: dict
    campaign: str
    store_root: str
    lease_timeout: float
    timeout: float = 0.0
    collective_timeout: float = 0.0
    checkpoint_freq: int = 0
    telemetry: bool = True
    members: list = field(default_factory=list)

    TYPE = "new-job"


@dataclass(frozen=True)
class NoWorkLeft:
    """Coordinator → worker: the queue is drained; exit cleanly."""

    reason: str = "queue drained"

    TYPE = "no-work-left"


@dataclass(frozen=True)
class Heartbeat:
    """Worker → coordinator: still executing ``run_hash``; renew the lease."""

    worker: str
    run_hash: str

    TYPE = "heartbeat"


@dataclass(frozen=True)
class JobDone:
    """Worker → coordinator: the run completed and its store record is
    already written (the worker records terminally before reporting, so
    a lost ``job-done`` can never lose a result)."""

    worker: str
    run_hash: str
    elapsed: float = 0.0
    resumed_from_step: int = 0

    TYPE = "job-done"


@dataclass(frozen=True)
class JobFailed:
    """Worker → coordinator: the run raised; the failure is recorded in
    the store and ``error`` carries the final traceback line."""

    worker: str
    run_hash: str
    error: str = ""
    elapsed: float = 0.0

    TYPE = "job-failed"


Message = Union[JobRequest, NewJob, NoWorkLeft, Heartbeat, JobDone, JobFailed]

#: Wire-type string → dataclass, the codec's single dispatch table.
MESSAGE_TYPES: dict[str, type] = {
    cls.TYPE: cls
    for cls in (JobRequest, NewJob, NoWorkLeft, Heartbeat, JobDone, JobFailed)
}


# -- codec --------------------------------------------------------------------

#: Annotation string → runtime check for the codec's field validation
#: (annotations are strings under ``from __future__ import annotations``).
_FIELD_TYPES: dict[str, Any] = {
    "str": str,
    "dict": dict,
    "float": (int, float),
    "int": int,
    "bool": bool,
    "list": list,
}


def encode_message(msg: Message) -> bytes:
    """Canonical JSON bytes for one message (sorted keys, UTF-8); fields
    are read where they stand, not deep-copied as ``asdict`` would."""
    cls = type(msg)
    wire_type = getattr(cls, "TYPE", None)
    if wire_type not in MESSAGE_TYPES:
        raise ProtocolError(f"not a protocol message: {msg!r}")
    doc = {"v": PROTOCOL_VERSION, "type": wire_type}
    doc.update((f.name, getattr(msg, f.name)) for f in fields(msg))
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def decode_message(data: bytes) -> Message:
    """Parse codec bytes back into a typed message.

    Every malformed input — non-UTF-8, non-JSON, a JSON scalar, a
    version or type mismatch, missing fields, fields of the wrong shape
    — raises :class:`ProtocolError`.  Unknown *extra* keys are ignored
    (forward compatibility within one major version).  No byte of the
    input is ever interpreted as a pickle.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"frame must decode to a JSON object, got {type(doc).__name__}"
        )
    version = doc.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: got {version!r}, "
            f"speaking {PROTOCOL_VERSION}"
        )
    wire_type = doc.get("type")
    cls = MESSAGE_TYPES.get(wire_type)
    if cls is None:
        raise ProtocolError(f"unknown message type {wire_type!r}")
    kwargs = {}
    for field in fields(cls):
        if field.name in doc:
            value = doc[field.name]
            expected = _FIELD_TYPES.get(field.type)
            if expected is not None and not isinstance(value, expected):
                raise ProtocolError(
                    f"{wire_type} field {field.name!r} must be "
                    f"{field.type}, got {type(value).__name__}"
                )
            if isinstance(value, bool) and field.type in ("float", "int"):
                raise ProtocolError(
                    f"{wire_type} field {field.name!r} must be "
                    f"{field.type}, got bool"
                )
            kwargs[field.name] = value
        elif (
            field.default is not _MISSING
            or field.default_factory is not _MISSING  # type: ignore[misc]
        ):
            continue
        else:
            raise ProtocolError(
                f"{wire_type} message missing required field {field.name!r}"
            )
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {wire_type} message: {exc}") from None


# -- framing ------------------------------------------------------------------

_LEN = struct.Struct(">I")


def frame(data: bytes) -> bytes:
    """Length-prefix one codec payload for a byte-stream transport."""
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LEN.pack(len(data)) + data


class FrameDecoder:
    """Incremental length-prefixed frame reassembly.

    Feed arbitrarily chunked bytes; complete frames come back in order.
    The decode is invariant under chunking — any split of the same byte
    stream yields the same frame sequence — which is what makes TCP
    segmentation invisible to the protocol layer.  A length prefix
    larger than :data:`MAX_FRAME_BYTES` raises immediately;
    :meth:`finish` raises if the stream ended mid-frame (a truncated
    stream is an error, not a silent drop).
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> list[bytes]:
        """Absorb ``chunk``; return every frame it completed."""
        self._buf.extend(chunk)
        frames: list[bytes] = []
        while True:
            if len(self._buf) < _LEN.size:
                return frames
            (length,) = _LEN.unpack_from(self._buf)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length prefix {length} exceeds MAX_FRAME_BYTES "
                    f"— corrupt or hostile stream"
                )
            if len(self._buf) < _LEN.size + length:
                return frames
            frames.append(bytes(self._buf[_LEN.size:_LEN.size + length]))
            del self._buf[:_LEN.size + length]

    @property
    def pending(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self._buf:
            raise ProtocolError(
                f"stream truncated mid-frame ({len(self._buf)} bytes of an "
                f"incomplete frame)"
            )


# -- socket transport ---------------------------------------------------------


class SocketWorkerChannel:
    """Worker side of the wire: one TCP pipe to the coordinator.

    ``connect_timeout`` bounds the initial connection (with retries, so
    a worker may be launched slightly before its coordinator binds).
    ``send`` and ``recv`` raise :class:`ChannelClosedError` once the
    coordinator is gone; ``recv`` returns None on timeout.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 10.0,
    ) -> None:
        self.address = (host, int(port))
        deadline = time.monotonic() + connect_timeout
        last_error: Optional[Exception] = None
        while True:
            try:
                self._sock = socket.create_connection(
                    self.address, timeout=connect_timeout
                )
                break
            except OSError as exc:
                last_error = exc
                if time.monotonic() >= deadline:
                    raise ChannelClosedError(
                        f"could not connect to coordinator at "
                        f"{host}:{port} within {connect_timeout:g}s "
                        f"({last_error})"
                    ) from None
                time.sleep(0.05)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = FrameDecoder()
        self._inbox: list[Message] = []
        self._send_lock = threading.Lock()
        self._closed = False

    def send(self, msg: Message) -> None:
        data = frame(encode_message(msg))
        with self._send_lock:
            if self._closed:
                raise ChannelClosedError("channel is closed")
            try:
                self._sock.sendall(data)
            except OSError as exc:
                raise ChannelClosedError(
                    f"coordinator connection lost on send: {exc}"
                ) from None

    def recv(self, timeout: Optional[float] = None) -> Optional[Message]:
        if self._inbox:
            return self._inbox.pop(0)
        if self._closed:
            raise ChannelClosedError("channel is closed")
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            if deadline is None:
                self._sock.settimeout(None)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                return None
            except OSError as exc:
                raise ChannelClosedError(
                    f"coordinator connection lost: {exc}"
                ) from None
            if not chunk:
                self._decoder.finish()  # mid-frame EOF is a ProtocolError
                raise ChannelClosedError("coordinator closed the connection")
            frames = self._decoder.feed(chunk)
            if frames:
                self._inbox.extend(decode_message(f) for f in frames[1:])
                return decode_message(frames[0])

    def close(self) -> None:
        with self._send_lock:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close best-effort
                pass


class _SocketConnection:
    """One accepted worker connection inside :class:`SocketEndpoint`."""

    def __init__(self, conn_id: str, sock: socket.socket) -> None:
        self.conn_id = conn_id
        self.sock = sock
        self.send_lock = threading.Lock()
        self.alive = True


class SocketEndpoint:
    """Coordinator side of the wire: many workers, one mailbox.

    Connections are keyed by an opaque ``conn_id`` (the reply address);
    worker *identity* travels in the messages themselves, so one worker
    that reconnects shows up as a new ``conn_id`` with the same
    ``worker`` field.

    Binds a listening socket (``port=0`` picks an ephemeral port — read
    it back from :attr:`address`), accepts connections on a background
    thread, and runs one reader thread per connection that reassembles
    frames and pushes decoded ``(conn_id, message)`` pairs onto a
    single mailbox queue (:meth:`poll` drains it).  A reader that hits
    garbage logs and drops the connection — one hostile or corrupt peer
    cannot take the coordinator down — and neither a disconnect nor a
    failed :meth:`send` is a requeue signal: the lease clock is the
    only authority on reclaiming a silent worker's work.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._mailbox: "queue.Queue[tuple[str, Message]]" = queue.Queue()
        self._conns: dict[str, _SocketConnection] = {}
        self._conns_lock = threading.Lock()
        self._closed = threading.Event()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn_id = f"{peer[0]}:{peer[1]}"
            conn = _SocketConnection(conn_id, sock)
            with self._conns_lock:
                self._conns[conn_id] = conn
            threading.Thread(
                target=self._read_loop,
                args=(conn,),
                name=f"service-read-{conn_id}",
                daemon=True,
            ).start()

    def _read_loop(self, conn: _SocketConnection) -> None:
        decoder = FrameDecoder()
        try:
            while not self._closed.is_set():
                chunk = conn.sock.recv(65536)
                if not chunk:
                    decoder.finish()
                    return
                for data in decoder.feed(chunk):
                    self._mailbox.put((conn.conn_id, decode_message(data)))
        except ProtocolError as exc:
            logger.warning(
                "service: dropping connection %s on protocol violation: %s",
                conn.conn_id, exc,
            )
        except OSError:
            pass  # peer vanished; the lease clock owns recovery
        finally:
            self._drop(conn)

    def _drop(self, conn: _SocketConnection) -> None:
        conn.alive = False
        with self._conns_lock:
            self._conns.pop(conn.conn_id, None)
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - close best-effort
            pass

    def poll(self, timeout: float) -> list[tuple[str, Message]]:
        messages: list[tuple[str, Message]] = []
        try:
            messages.append(self._mailbox.get(timeout=max(0.0, timeout)))
        except queue.Empty:
            return messages
        while True:
            try:
                messages.append(self._mailbox.get_nowait())
            except queue.Empty:
                return messages

    def send(self, conn_id: str, msg: Message) -> bool:
        with self._conns_lock:
            conn = self._conns.get(conn_id)
        if conn is None or not conn.alive:
            return False
        data = frame(encode_message(msg))
        with conn.send_lock:
            try:
                conn.sock.sendall(data)
            except OSError:
                self._drop(conn)
                return False
        return True

    def connections(self) -> list[str]:
        """Currently-connected ``conn_id``\\ s (for status reporting)."""
        with self._conns_lock:
            return sorted(self._conns)

    def close(self) -> None:
        self._closed.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close best-effort
            pass
        with self._conns_lock:
            conns = list(self._conns.values())
        for conn in conns:
            self._drop(conn)

    def close_in_child(self) -> None:
        """Close, in a child forked from the coordinator, every socket
        of this endpoint the child inherited: the listener and each
        accepted connection.  The parent's copies stay open.

        Takes no lock: the accept or a reader thread may have held one
        at the fork, and none of those threads exists in the child.
        The scan of the child's descriptors is what guarantees the
        result: every socket of this endpoint, the listener and each
        accepted connection, has the endpoint's address as its local
        address — also one the accept thread had taken from the kernel
        but not yet registered at the fork.
        """
        # Closed through their own objects first, so that no finalizer
        # of theirs later closes a descriptor number the child reused.
        self._listener.close()
        for conn in list(self._conns.values()):
            conn.sock.close()
        for fd in map(int, os.listdir("/dev/fd")):
            try:
                sock = socket.socket(fileno=fd)
            except OSError:
                continue  # not a socket, or the listing's own descriptor
            try:
                ours = sock.getsockname()[:2] == self.address
            except OSError:
                ours = False
            if ours:
                sock.close()
            else:
                sock.detach()


