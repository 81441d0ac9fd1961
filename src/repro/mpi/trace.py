"""Communication/computation event tracing.

Every operation performed through :class:`repro.mpi.Comm` is recorded as a
:class:`CommEvent` (and kernels may record :class:`ComputeEvent` objects)
into a :class:`CommTrace`.  Traces serve three purposes:

* tests assert on them (who talked to whom, how many bytes, in which
  phase),
* :mod:`repro.machine.replay` converts them into modeled wall-clock time
  on a described machine, which is how the benchmark harness reproduces
  the paper's Lassen scaling studies without Lassen, and
* :mod:`repro.telemetry` exports them as measured wall-clock artifacts
  (Perfetto traces, per-run telemetry documents, drift reports).

Phases
------
Solver code labels logical phases (``"halo"``, ``"fft"``, ``"migrate"``,
...) with :meth:`CommTrace.phase`, a context manager.  The label is stored
per-thread so SPMD ranks running in different threads do not interfere.

Wall-clock spans
----------------
A trace additionally records a :class:`PhaseSpan`
per ``phase()`` enter/exit — monotonic (``time.perf_counter``) start and
end stamps, the recording rank (installed per rank thread by
:func:`repro.mpi.run_spmd` via :meth:`CommTrace.bind_rank`), the nesting
depth, and the *self time* (duration minus directly nested child
spans).  Events carry an optional ``t_stamp`` (when they were recorded)
and accounting layers may attach a measured ``t_wall`` duration to
compute events.  :class:`NullTrace` skips all of it, so the disabled path stays within
the telemetry overhead budget (see ``benchmarks/bench_telemetry.py``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.telemetry.metrics import MetricsRegistry, NullMetrics

__all__ = ["CommEvent", "ComputeEvent", "PhaseSpan", "CommTrace", "NullTrace"]


@dataclass(frozen=True)
class CommEvent:
    """One communication operation observed at one rank.

    Attributes
    ----------
    kind:
        Operation name — exactly what the simulator records: ``send``,
        ``recv`` (``Sendrecv`` records one of each), ``barrier``,
        ``allreduce``, ``gather``, ``allgather`` (object ``allgather``
        and ``Allgatherv``) or ``alltoallv`` (``exchange_arrays``).
    rank:
        The rank that recorded the event.
    peer:
        Peer rank for point-to-point operations, root for ``gather``,
        ``None`` for symmetric collectives.
    nbytes:
        Payload bytes sent (for ``send``/``gather``) or received (for
        ``recv``).  For vector collectives this is the total bytes this
        rank contributes.
    counts:
        For ``alltoallv``: per-peer byte counts sent by this rank, used
        by the machine model to cost irregular exchanges. ``None``
        otherwise.
    comm_size / comm_id:
        Size and identity of the communicator the operation ran on, so
        the model can cost sub-communicator collectives correctly.
    phase:
        The solver phase label active when the event was recorded.
    seq:
        Per-rank monotonically increasing sequence number.
    """

    kind: str
    rank: int
    peer: Optional[int]
    nbytes: int
    phase: str
    seq: int
    tag: int = 0
    counts: Optional[tuple[int, ...]] = None
    comm_size: int = 1
    comm_id: int = 0
    #: Monotonic stamp (``time.perf_counter``) taken when the event was
    #: recorded; ``None`` on an untimed trace.
    t_stamp: Optional[float] = None


@dataclass(frozen=True)
class ComputeEvent:
    """One computational kernel invocation observed at one rank.

    ``flops`` and ``bytes_moved`` feed the roofline model in
    :mod:`repro.machine.roofline`; ``items`` is a free-form work count
    (mesh points, interaction pairs) used by tests and diagnostics.
    """

    kernel: str
    rank: int
    flops: float
    bytes_moved: float
    items: int
    phase: str
    seq: int
    #: Monotonic stamp taken when the event was recorded (untimed: None).
    t_stamp: Optional[float] = None
    #: Measured wall-clock seconds of the kernel invocation, recorded by
    #: the *accounting* layer that timed the backend call — so every
    #: compute backend is covered without backend-specific code.
    t_wall: Optional[float] = None


@dataclass(frozen=True)
class PhaseSpan:
    """One wall-clock interval spent inside a ``phase()`` block.

    ``self_time`` excludes the duration of directly nested child spans,
    mirroring how events attribute work to the innermost phase only —
    summing ``self_time`` over a rank's spans never double-counts.
    """

    phase: str
    rank: int
    t_start: float
    t_end: float
    depth: int
    self_time: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class _OpenSpan:
    """Mutable per-thread bookkeeping for a span still in flight."""

    __slots__ = ("phase", "t_start", "depth", "child_time")

    def __init__(self, phase: str, t_start: float, depth: int) -> None:
        self.phase = phase
        self.t_start = t_start
        self.depth = depth
        self.child_time = 0.0


_DEFAULT_PHASE = "unphased"
_DEFAULT_RANK = 0


class CommTrace:
    """Thread-safe container of :class:`CommEvent`/:class:`ComputeEvent`.

    A single ``CommTrace`` is shared by all ranks of an SPMD run; events
    carry their originating rank.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[CommEvent] = []
        self._compute: list[ComputeEvent] = []
        self._spans: list[PhaseSpan] = []
        self._tls = threading.local()
        self._seq: dict[int, int] = {}
        #: Run-scoped metrics registry; solver-side code publishes via
        #: ``comm.trace.metrics`` so per-run isolation is automatic.
        self.metrics: MetricsRegistry = MetricsRegistry()

    # -- recording -----------------------------------------------------

    def current_phase(self) -> str:
        return getattr(self._tls, "phase", _DEFAULT_PHASE)

    def bind_rank(self, rank: int) -> None:
        """Associate this thread's spans with ``rank``.

        :func:`repro.mpi.run_spmd` calls this at rank-thread start;
        events are unaffected (they carry their rank explicitly).
        """
        self._tls.rank = int(rank)

    def current_rank(self) -> int:
        """The rank bound to the calling thread (default 0)."""
        return getattr(self._tls, "rank", _DEFAULT_RANK)

    @contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Label all events recorded by this thread with ``label``.

        Each enter/exit additionally records a :class:`PhaseSpan`; the
        span is closed in a ``finally`` block so an exception escaping
        the phase body still leaves a complete, honest span behind.
        """
        previous = self.current_phase()
        self._tls.phase = label
        stack: list[_OpenSpan] = getattr(self._tls, "stack", None) or []
        self._tls.stack = stack
        open_span = _OpenSpan(label, time.perf_counter(), len(stack))
        stack.append(open_span)
        try:
            yield
        finally:
            self._tls.phase = previous
            t_end = time.perf_counter()
            stack.pop()
            duration = t_end - open_span.t_start
            if stack:
                stack[-1].child_time += duration
            span = PhaseSpan(
                phase=label,
                rank=self.current_rank(),
                t_start=open_span.t_start,
                t_end=t_end,
                depth=open_span.depth,
                self_time=max(duration - open_span.child_time, 0.0),
            )
            with self._lock:
                self._spans.append(span)

    # -- wall-clock helpers ------------------------------------------------

    def clock(self) -> Optional[float]:
        """``time.perf_counter()`` (``None`` on a :class:`NullTrace`).

        Accounting layers bracket a backend invocation with ``t0 =
        trace.clock()`` / ``t_wall=trace.clock_since(t0)``; on a Null
        trace both sides collapse to no-ops, keeping the disabled path
        inside the telemetry overhead budget.
        """
        return time.perf_counter()

    def clock_since(self, t0: Optional[float]) -> Optional[float]:
        """Elapsed seconds since a :meth:`clock` stamp."""
        return time.perf_counter() - t0

    def _next_seq(self, rank: int) -> int:
        with self._lock:
            seq = self._seq.get(rank, 0)
            self._seq[rank] = seq + 1
            return seq

    def record_comm(
        self,
        kind: str,
        rank: int,
        peer: Optional[int],
        nbytes: int,
        *,
        tag: int = 0,
        counts: Optional[Sequence[int]] = None,
        comm_size: int = 1,
        comm_id: int = 0,
    ) -> None:
        event = CommEvent(
            kind=kind,
            rank=rank,
            peer=peer,
            nbytes=int(nbytes),
            phase=self.current_phase(),
            seq=self._next_seq(rank),
            tag=tag,
            counts=None if counts is None else tuple(int(c) for c in counts),
            comm_size=comm_size,
            comm_id=comm_id,
            t_stamp=time.perf_counter(),
        )
        with self._lock:
            self._events.append(event)

    def record_compute(
        self,
        kernel: str,
        rank: int,
        *,
        flops: float,
        bytes_moved: float,
        items: int = 0,
        t_wall: Optional[float] = None,
        phase: Optional[str] = None,
    ) -> None:
        """Record one compute event, labelled with this thread's phase
        unless ``phase`` names the one whose work it was (an event
        priced only after that phase closed)."""
        event = ComputeEvent(
            kernel=kernel,
            rank=rank,
            flops=float(flops),
            bytes_moved=float(bytes_moved),
            items=int(items),
            phase=self.current_phase() if phase is None else phase,
            seq=self._next_seq(rank),
            t_stamp=time.perf_counter(),
            t_wall=t_wall,
        )
        with self._lock:
            self._compute.append(event)

    # -- queries ---------------------------------------------------------

    @property
    def events(self) -> list[CommEvent]:
        with self._lock:
            return list(self._events)

    @property
    def compute_events(self) -> list[ComputeEvent]:
        with self._lock:
            return list(self._compute)

    @property
    def spans(self) -> list[PhaseSpan]:
        with self._lock:
            return list(self._spans)

    def filter(
        self,
        *,
        kind: Optional[str] = None,
        rank: Optional[int] = None,
        phase: Optional[str] = None,
        kernel: Optional[str] = None,
    ) -> list:
        """Events matching all provided criteria.

        Covers both event families: ``kind`` selects communication
        events only and ``kernel`` compute events only (the two are
        mutually exclusive); with neither, matching events of *both*
        kinds are returned (comm first, then compute), filtered by
        ``rank``/``phase``.
        """
        if kind is not None and kernel is not None:
            raise ValueError(
                "filter() takes kind= (comm events) or kernel= (compute "
                "events), not both"
            )

        def matches(ev) -> bool:
            if rank is not None and ev.rank != rank:
                return False
            if phase is not None and ev.phase != phase:
                return False
            return True

        result: list = []
        if kernel is None:
            for ev in self.events:
                if kind is not None and ev.kind != kind:
                    continue
                if matches(ev):
                    result.append(ev)
        if kind is None:
            for cev in self.compute_events:
                if kernel is not None and cev.kernel != kernel:
                    continue
                if matches(cev):
                    result.append(cev)
        return result

    def phase_walls(self) -> dict[str, dict[int, float]]:
        """Measured wall seconds per phase and rank.

        ``{phase: {rank: seconds}}`` where seconds is the summed
        *self time* of that rank's spans in the phase — nested child
        phases are attributed to themselves only, exactly like events.
        Empty on an untimed trace.
        """
        walls: dict[str, dict[int, float]] = {}
        for span in self.spans:
            per_rank = walls.setdefault(span.phase, {})
            per_rank[span.rank] = per_rank.get(span.rank, 0.0) + span.self_time
        return walls

    def compute_totals(
        self, *, phase: Optional[str] = None
    ) -> dict[str, dict[str, float]]:
        """Aggregate roofline totals per kernel name.

        Returns ``{kernel: {"flops", "bytes", "items", "count"}}`` summed
        over all ranks.  Because recording happens in the accounting
        layers (not the compute backends), these totals are invariant
        under backend choice — the cross-backend parity suite and the
        kernel microbenchmarks assert exactly that.
        """
        totals: dict[str, dict[str, float]] = {}
        for ev in self.compute_events:
            if phase is not None and ev.phase != phase:
                continue
            bucket = totals.setdefault(
                ev.kernel,
                {"flops": 0.0, "bytes": 0.0, "items": 0.0, "count": 0.0},
            )
            bucket["flops"] += ev.flops
            bucket["bytes"] += ev.bytes_moved
            bucket["items"] += ev.items
            bucket["count"] += 1
        return totals

    def phases(self) -> list[str]:
        """Distinct phase labels, in first-appearance order."""
        seen: dict[str, None] = {}
        for ev in self.events:
            seen.setdefault(ev.phase, None)
        for ev in self.compute_events:
            seen.setdefault(ev.phase, None)
        return list(seen)

    def total_bytes(self, *, kind: Optional[str] = None, phase: Optional[str] = None) -> int:
        """Sum of ``nbytes`` over matching *send-side* events.

        Receives are excluded so a Send/Recv pair is not double-counted.
        """
        total = 0
        for ev in self.events:
            if ev.kind == "recv":
                continue
            if kind is not None and ev.kind != kind:
                continue
            if phase is not None and ev.phase != phase:
                continue
            total += ev.nbytes
        return total

    def message_count(self, *, kind: Optional[str] = None, phase: Optional[str] = None) -> int:
        """Number of matching events (excluding receives)."""
        return len(
            [
                ev
                for ev in self.events
                if ev.kind != "recv"
                and (kind is None or ev.kind == kind)
                and (phase is None or ev.phase == phase)
            ]
        )

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._compute.clear()
            self._spans.clear()
            self._seq.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events) + len(self._compute)


class NullTrace(CommTrace):
    """A trace that drops every event (used when tracing is disabled).

    Keeping the same interface lets communication code record events
    unconditionally without ``if trace is not None`` checks in hot
    paths.  This is the ``NullTelemetry`` fast path: no spans, no
    stamps, no metrics — ``benchmarks/bench_telemetry.py`` gates the
    instrumented-over-null overhead at <= 5 %.
    """

    def __init__(self) -> None:
        super().__init__()
        self.metrics = NullMetrics()

    @contextmanager
    def phase(self, label: str) -> Iterator[None]:  # noqa: D102
        # Skip even the phase-label bookkeeping: nothing reads it when
        # every record_* call drops its event.
        yield

    def record_comm(self, *args, **kwargs) -> None:  # noqa: D102
        return

    def record_compute(self, *args, **kwargs) -> None:  # noqa: D102
        return

    def clock(self) -> None:  # noqa: D102
        return None

    def clock_since(self, t0: Optional[float]) -> None:  # noqa: D102
        return None
