"""Campaign service: the campaign's ledger and pull-based workers.

:class:`Coordinator` is a campaign's one ledger.  It plans the batch
(:func:`~repro.campaign.scheduler.plan_runs`), owns the run queue, and
alone counts, marks and logs every run's terminal state, whoever
executed the run.  It hands work to :class:`Worker`\\ s over the typed
message protocol of :mod:`repro.campaign.protocol` — workers *pull*
jobs (``job-request`` → ``new-job`` | ``no-work-left``), execute them
through :meth:`~repro.campaign.executor.CampaignExecutor.run_one` /
:meth:`~repro.campaign.executor.CampaignExecutor.run_fleet` (so store
records and telemetry artifacts are identical wherever a run executes)
and report ``job-done`` / ``job-failed`` per run; a fleet of same-shape
runs is one job.  Model-mode runs (microseconds of arithmetic on the
coordinator's machine model) never leave the coordinator's process, and
:meth:`Coordinator.run_here` drains the whole queue in-process through
the same executor routines and the same accounting.  Because the store
deduplicates by content hash, any number of submitters can point decks
at one coordinator and share results.  A local campaign
(``CampaignExecutor.submit``) is this service with :class:`LocalWorkers`
— worker processes it forks from itself, watches and reaps — or with
no worker at all.

Lease state machine (per run)::

                 job-request
    queued ───────────────────▶ leased ──── job-done ───▶ completed
      ▲    (claim marker with      │
      │     owner + deadline)      ├────── job-failed ──▶ failed
      │                            │
      └──────── lease expiry ◀─────┘ (no heartbeat within
         (requeued; max_requeues      lease_timeout)
          exhausted ▶ failed)

A lease is granted by appending a ``running`` claim marker per run to
the store with ``owner`` (the worker's identity) and ``lease_expires``
stamped.  A restarted coordinator requeues every run that has no
terminal record, live claim or not: the last record wins, so a
claimant that is still alive costs a duplicate execution, never a
result.  The lapsed claims only feed its log line.  A fleet lease is
released once every member has reported; one that lapses is
*dissolved*: each unreported member is requeued as a solo run under
the same rule, so a poison member is isolated by the ordinary
``max_requeues`` bound.
Workers renew their lease with ``heartbeat`` messages; a worker that
vanishes (SIGKILL, kernel fault, unplugged machine) simply stops
heartbeating and its run is reclaimed and requeued when the lease
lapses.  Worker disconnection is deliberately *not* a requeue signal:
the lease clock is the only authority, so a worker that hangs up and
one that goes silent recover identically.  A host that
reaps its own workers may move that clock forward
(:meth:`Coordinator.expire_worker`) — it may not bypass it.

The coordinator streams live progress as ``status.json`` in the
campaign root, with a ``service`` section (PID, bound address — null
when no socket is bound — workers, leases); workers and dashboards
discover a coordinator from it.  A completion costs O(1): it updates
the in-memory board, and the file is rewritten at start, at the end,
on the ``status_interval`` heartbeat and otherwise at most once per
``STATUS_WRITE_INTERVAL``.  The coordinator also exposes
``campaign.service.*`` metrics (jobs leased, leases expired, workers
seen, reconnects) and ``campaign.requeues``.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import signal
import socket as _socket
import threading
import time
from dataclasses import dataclass, field, replace
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Optional, Sequence

from repro.campaign.deck import RunSpec
from repro.campaign.executor import (
    DEFAULT_RUN_TIMEOUT,
    KILL_FUSE_ENV,
    STATUS_WRITE_INTERVAL,
    CampaignExecutor,
    configure_logging,
    log,
)
from repro.campaign.protocol import (
    ChannelClosedError,
    Heartbeat,
    JobDone,
    JobFailed,
    JobRequest,
    Message,
    NewJob,
    NoWorkLeft,
    ProtocolError,
    SocketEndpoint,
    SocketWorkerChannel,
)
from repro.campaign.scheduler import lease_id, lpt_makespan, plan_runs
from repro.campaign.store import COMPLETED, FAILED, CampaignStore, RunRecord
from repro.core.solver import NUMERICS_VERSION
from repro.machine.model import LASSEN, MachineSpec
from repro.telemetry.artifacts import TELEMETRY_SCHEMA
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "Coordinator",
    "LocalWorkers",
    "Worker",
    "WorkerVanished",
    "Lease",
    "DEFAULT_LEASE_TIMEOUT",
]

#: Default wall-clock lease on a granted job: a worker silent for this
#: long is presumed dead and its run is reclaimed.  Heartbeats go out
#: every ``lease_timeout / 3``, so three misses kill a lease.
DEFAULT_LEASE_TIMEOUT = 60.0

#: A run whose lease expired more than this many times is recorded
#: failed instead of requeued forever (poison-job backstop).
DEFAULT_MAX_REQUEUES = 3

#: Seconds one turn of the serving loop waits for worker messages.
POLL_INTERVAL = 0.05


class WorkerVanished(Exception):
    """Test hook: raised inside a worker's run callable to simulate the
    worker dying silently mid-run (the in-process analogue of SIGKILL —
    heartbeats stop, nothing terminal is recorded, nothing is sent)."""


def _serial_executor(
    store: CampaignStore,
    job: NewJob,
    *,
    machine: MachineSpec = LASSEN,
    telemetry: bool = True,
) -> CampaignExecutor:
    """The serial executor an item runs through wherever it runs — in a
    worker, or in the coordinator's own process: the executor settings
    travel in ``job``."""
    return CampaignExecutor(
        store,
        max_workers=1,
        timeout=job.timeout,  # 0 = no budget, as in-process
        collective_timeout=job.collective_timeout or None,
        machine=machine,
        checkpoint_freq=job.checkpoint_freq,
        telemetry=telemetry and job.telemetry,
    )


def status_line(snap: dict[str, Any]) -> str:
    """The one-line progress summary of a ``status.json`` document."""
    counts = snap["counts"]
    line = (
        f"status: {counts['completed']}/{snap['total']} completed, "
        f"{counts['running']} running, {counts['queued']} queued, "
        f"{counts['failed']} failed, {counts['skipped']} skipped"
    )
    if not snap["done"]:
        line += f" — modeled ETA {snap['eta_modeled_seconds']:.3g}s"
    return line


@dataclass
class Lease:
    """One granted job — a run or a fleet — who holds it and when it
    lapses; ``open`` holds the runs not yet reported, by hash."""

    id: str
    specs: tuple[RunSpec, ...]
    worker: str
    conn_id: str
    granted: float
    deadline: float
    requeues: int = 0
    open: dict[str, RunSpec] = field(default_factory=dict)


@dataclass
class _WorkerInfo:
    """Coordinator-side view of one worker identity."""

    conn_id: str
    first_seen: float
    last_seen: float
    jobs_done: int = 0
    jobs_failed: int = 0
    connections: int = 1


class Coordinator:
    """A campaign's ledger: owns a batch's run queue, serves it to
    pull-based workers or drains it in-process, and books every run.

    ``endpoint`` is the bound :class:`SocketEndpoint` workers connect
    to, or None for a coordinator that only drains in-process
    (:meth:`run_here`; a host may bind one later, before serving).
    ``worker_type`` in ``status.json`` names the path that drains the
    queue — ``"service"`` for :meth:`serve`, ``"serial"`` for
    :meth:`run_here`, ``"process"`` for :class:`LocalWorkers` — and the
    document's ``max_workers`` tracks the number of distinct workers
    seen.  :attr:`metrics` may be replaced before serving by a host
    that keeps one registry across batches.

    ``run_timeout``, ``collective_timeout``, ``checkpoint_freq`` and
    ``telemetry`` are the executor settings every item is executed
    with, wherever it runs; they travel in each ``new-job``.  Model-mode
    runs are evaluated on ``machine``, in this process.

    ``journal=True`` appends every non-heartbeat message the
    coordinator receives or sends to :attr:`journal` as
    ``(direction, conn_id, message)`` tuples — the protocol-conformance
    tests count the conversation's messages from it.
    """

    worker_type = "service"

    def __init__(
        self,
        store: CampaignStore,
        specs: Sequence[RunSpec],
        endpoint: Optional[SocketEndpoint],
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        run_timeout: float = DEFAULT_RUN_TIMEOUT,
        collective_timeout: Optional[float] = None,
        machine: MachineSpec = LASSEN,
        checkpoint_freq: int = 0,
        telemetry: bool = True,
        status_interval: float = 0.0,
        drain_grace: float = 5.0,
        journal: bool = False,
    ) -> None:
        self.store = store
        self.endpoint = endpoint
        self.lease_timeout = float(lease_timeout)
        self.max_requeues = int(max_requeues)
        self.machine = machine
        self.status_interval = float(status_interval)
        self.drain_grace = float(drain_grace)
        self.metrics = MetricsRegistry()
        self.journal: Optional[list[tuple[str, str, Message]]] = (
            [] if journal else None
        )
        #: Prefix of every line this coordinator logs.
        self.who = f"campaign {store.campaign}"
        #: The executor settings every item runs with: the template
        #: each ``new-job`` is stamped from.
        self._settings = NewJob(
            run_hash="", payload={}, campaign=store.campaign,
            store_root=store.base_root, lease_timeout=self.lease_timeout,
            timeout=float(run_timeout),
            collective_timeout=(
                collective_timeout if collective_timeout is not None
                else (run_timeout if run_timeout > 0 else DEFAULT_RUN_TIMEOUT)
            ),
            checkpoint_freq=int(checkpoint_freq), telemetry=bool(telemetry),
        )

        self._state_lock = threading.Lock()
        self._workers: dict[str, _WorkerInfo] = {}
        self._leases: dict[str, Lease] = {}    # lease id → lease
        self._held: dict[str, Lease] = {}      # run hash → its open lease
        self._requeue_counts: collections.Counter[str] = collections.Counter()
        self._parked: collections.deque[tuple[str, str]] = collections.deque()
        self._notified: set[str] = set()

        # Store hits never reach the queue; the plan's costs feed the ETA.
        self.plan = plan_runs(
            specs, store, machine, checkpoint_freq=self._settings.checkpoint_freq
        )
        # A previous coordinator's claims requeue transparently: they
        # are simply still queued (no terminal record), and the fresh
        # claim written at grant time supersedes the old one.
        lapsed = set(store.expired_claims()) if self.plan.costs else set()
        lapsed &= set(self.plan.costs)
        if lapsed:
            log(self.who, f"reclaiming {len(lapsed)} runs with lapsed leases "
                          f"from a previous coordinator")
        if self.plan.stale:
            stamps = ", ".join(map(str, sorted(set(self.plan.stale.values()))))
            log(self.who, f"{len(self.plan.stale)} stale (numerics {stamps} "
                          f"≠ {NUMERICS_VERSION})")
        # Model-mode runs are costed on this machine model: they stay here.
        self._queue: collections.deque[tuple[RunSpec, ...]] = collections.deque(
            item for item in self.plan.items if item[0].mode != "model"
        )
        self._here: collections.deque[tuple[RunSpec, ...]] = collections.deque(
            item for item in self.plan.items if item[0].mode == "model"
        )
        self._pending: set[str] = set(self.plan.costs)
        self._counts = {COMPLETED: 0, FAILED: 0, "requeued": 0}
        # The status board: every unique run's state, and when the
        # running ones started / how long the finished ones took.
        self._state: dict[str, str] = {
            h: "skipped" if h in self.plan.hits else "queued"
            for h in self.plan.unique
        }
        self._started: dict[str, float] = {}
        self._elapsed: dict[str, float] = {}
        self._written = time.perf_counter()  # last status.json write

    @property
    def pending(self) -> int:
        """Runs not yet terminal (queued, leased or running here)."""
        return len(self._pending)

    @property
    def leasable(self) -> int:
        """Queued items a worker may be granted (model-mode runs never
        leave this process)."""
        return len(self._queue)

    # -- status document -----------------------------------------------------

    def _mark(self, run_hash: str, state: str) -> None:
        """Move one run on the status board: O(1), and ``status.json``
        is rewritten only when the last write is
        :data:`STATUS_WRITE_INTERVAL` old."""
        now = time.perf_counter()
        with self._state_lock:
            if state == "running":
                self._started[run_hash] = now
            elif run_hash in self._started:
                self._elapsed[run_hash] = now - self._started.pop(run_hash)
            self._state[run_hash] = state
        if now - self._written >= STATUS_WRITE_INTERVAL:
            self.publish()

    def snapshot(self) -> dict[str, Any]:
        """The ``status.json`` document: each run's state and elapsed
        time, the counts, a longest-job-first modeled ETA of the
        remainder (from the plan's costs — no model evaluation), the
        metrics, and the ``service`` section."""
        now, clock = time.time(), time.perf_counter()
        with self._state_lock:
            states = dict(self._state)
            runs = {}
            for run_hash, state in states.items():
                runs[run_hash] = {"state": state}
                if run_hash in self._started:
                    runs[run_hash]["elapsed"] = clock - self._started[run_hash]
                elif run_hash in self._elapsed:
                    runs[run_hash]["elapsed"] = self._elapsed[run_hash]
            workers = {
                name: {
                    "conn": info.conn_id,
                    "jobs_done": info.jobs_done,
                    "jobs_failed": info.jobs_failed,
                    "connections": info.connections,
                    "idle_seconds": now - info.last_seen,
                }
                for name, info in self._workers.items()
            }
            leases = {
                lease.id: {
                    "owner": lease.worker,
                    "expires_in": lease.deadline - now,
                    "requeues": lease.requeues,
                    "open": len(lease.open),
                }
                for lease in self._leases.values()
            }
        counts = dict.fromkeys(
            ("queued", "running", "completed", "failed", "skipped",
             "interrupted"), 0,
        )
        for state in states.values():
            counts[state] += 1
        max_workers = max(1, len(workers))
        address = self.endpoint.address if self.endpoint is not None else None
        return {
            "schema": TELEMETRY_SCHEMA,
            "campaign": self.store.campaign,
            "timestamp": now,
            "worker_type": self.worker_type,
            "max_workers": max_workers,
            "total": len(states),
            "counts": counts,
            "eta_modeled_seconds": lpt_makespan(
                [self.plan.costs.get(h, 0.0) for h, state in states.items()
                 if state in ("queued", "running")],
                max_workers,
            ),
            "done": counts["queued"] == counts["running"] == 0,
            "runs": runs,
            "metrics": self.metrics.snapshot(),
            "service": {
                "pid": os.getpid(),
                "address": f"{address[0]}:{address[1]}" if address else None,
                "lease_timeout": self.lease_timeout,
                "workers": workers,
                "leases": leases,
                "queued": len(self._queue) + len(self._here),
            },
        }

    def publish(self) -> dict[str, Any]:
        """Snapshot + atomic ``status.json`` write (I/O errors are
        swallowed: status is advisory, never worth failing a run)."""
        snap = self.snapshot()
        self._written = time.perf_counter()
        try:
            self.store.write_status(snap)
        except OSError:  # pragma: no cover - disk-full style failures
            pass
        return snap

    def _heartbeat(self, stop: threading.Event) -> None:
        """Every ``status_interval``: rewrite ``status.json`` and log a
        one-line progress summary."""
        while not stop.wait(self.status_interval):
            log(self.who, status_line(self.publish()))

    def _journal_add(self, direction: str, conn_id: str, msg: Message) -> None:
        if self.journal is not None and not isinstance(msg, Heartbeat):
            self.journal.append((direction, conn_id, msg))

    # -- one pass over the batch -----------------------------------------------

    def serve(self) -> dict[str, Any]:
        """Serve the batch to workers until every run is terminal.

        Returns a summary dict (completed / failed / skipped /
        requeued counts plus the workers seen).  A final drain window
        hands ``no-work-left`` to every straggling worker so every
        worker shuts down cleanly.
        """

        def drain() -> None:
            try:
                while self._pending:
                    self.step()
            finally:
                self.shutdown()

        self.worker_type = "service"
        return self.drive(drain)

    def run_here(self) -> dict[str, Any]:
        """Drain the whole queue in this process — no socket, no
        worker — through the serial executor a worker would use;
        returns the :meth:`serve` summary."""
        self.worker_type = "serial"
        return self.drive(lambda: self._run_here(self._queue))

    def drive(self, drain: Callable[[], None]) -> dict[str, Any]:
        """One pass over the batch, ``drain`` executing the queue.

        Publishes ``status.json`` (and keeps it fresh on the
        ``status_interval`` heartbeat), books the store hits, runs the
        model-mode items here, then ``drain``\\ s; the terminal document
        marks runs still in flight ``interrupted`` when unwinding.
        Returns the summary :meth:`serve` documents.
        """
        self.publish()
        stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat, args=(stop,), name="campaign-status",
            daemon=True,
        )
        if self.status_interval > 0:
            heartbeat.start()
        address = self.endpoint.address if self.endpoint is not None else None
        log(self.who, f"coordinating {len(self._pending)} runs "
                      f"({len(self.plan.hits)} store hits)"
                      + (f" on {address[0]}:{address[1]}" if address else ""))
        for run_hash in self.plan.hits:
            self.metrics.counter("campaign.store_hits").inc()
            log(self.who, f"{run_hash} store hit — skipped "
                          f"({self.plan.unique[run_hash].describe()})")
        clean_exit = False
        try:
            self._run_here(self._here)
            drain()
            clean_exit = True
        finally:
            stop.set()
            if heartbeat.is_alive():
                heartbeat.join(timeout=5.0)
            if not clean_exit:
                with self._state_lock:
                    for run_hash, state in self._state.items():
                        if state in ("queued", "running"):
                            self._state[run_hash] = "interrupted"
            self.publish()
        summary = {
            "campaign": self.store.campaign,
            "completed": self._counts[COMPLETED],
            "failed": self._counts[FAILED],
            "skipped": len(self.plan.hits),
            "requeued": self._counts["requeued"],
            "workers": sorted(self._workers),
        }
        log(self.who, f"done — {summary['completed']} completed, "
                      f"{summary['failed']} failed, {summary['skipped']} "
                      f"store hits, {summary['requeued']} requeued, "
                      f"{len(summary['workers'])} workers")
        return summary

    def _run_here(self, items: collections.deque) -> None:
        """Execute ``items`` in this process, booking each outcome."""
        if not items:
            return
        executor = _serial_executor(
            self.store, self._settings, machine=self.machine
        )
        while items:
            item = items.popleft()
            for spec in item:
                self._mark(spec.run_hash(), "running")
            if len(item) > 1:
                records = executor.run_fleet(item)
            else:
                records = [executor.run_one(item[0])]
            for record in records:
                self._settle(
                    record.run_hash, record.status, elapsed=record.elapsed,
                    resumed=record.resumed_from_step, error=record.error,
                    fleet=len(item) > 1,
                )

    def step(self) -> None:
        """One turn of the serving loop: requeue lapsed leases, then
        handle what arrived within :data:`POLL_INTERVAL`.  :meth:`serve`
        is this until nothing is pending; a host that also has children
        to watch (:class:`LocalWorkers`) calls it between its own
        checks."""
        self._sweep_leases()
        for conn_id, msg in self.endpoint.poll(POLL_INTERVAL):
            self._handle(conn_id, msg)

    def shutdown(self) -> None:
        """Send every worker home (:meth:`_drain`), then close the wire."""
        try:
            self._drain()
        finally:
            self.endpoint.close()

    def _drain(self) -> None:
        """Tell every waiting/lingering worker there is no work left.

        Parked requests are answered immediately; then the coordinator
        lingers up to ``drain_grace`` answering late ``job-request``\\ s
        (e.g. a worker that reported ``job-done`` and re-requested in
        the same instant the queue drained) until every known
        connection has been notified or dropped.
        """
        while self._parked:
            conn_id, worker = self._parked.popleft()
            self._send(conn_id, NoWorkLeft())
            self._notified.add(conn_id)
        deadline = time.monotonic() + self.drain_grace
        while time.monotonic() < deadline:
            if not set(self.endpoint.connections()) - self._notified:
                break
            for conn_id, msg in self.endpoint.poll(POLL_INTERVAL):
                self._journal_add("recv", conn_id, msg)
                if isinstance(msg, JobRequest):
                    self._touch_worker(msg.worker, conn_id)
                    self._send(conn_id, NoWorkLeft())
                    self._notified.add(conn_id)

    def _send(self, conn_id: str, msg: Message) -> bool:
        delivered = self.endpoint.send(conn_id, msg)
        if delivered:
            self._journal_add("send", conn_id, msg)
        return delivered

    # -- accounting ----------------------------------------------------------

    def _settle(
        self,
        run_hash: str,
        status: str,
        *,
        elapsed: float = 0.0,
        resumed: int = 0,
        error: Optional[str] = None,
        fleet: bool = False,
        worker: Optional[str] = None,
    ) -> None:
        """Book one run's terminal state: the one place a run is
        counted, marked and logged, whoever executed it (``worker`` is
        None for a run executed or given up on here)."""
        self._pending.discard(run_hash)
        self._counts[status] += 1
        by = f" by {worker}" if worker else ""
        if status == COMPLETED:
            self.metrics.counter("campaign.runs_completed").inc()
            if fleet:
                self.metrics.counter("campaign.batch_absorbed").inc()
            self.metrics.histogram("campaign.run_elapsed").observe(elapsed)
            note = f" (resumed from step {resumed})" if resumed else ""
            line = f"{run_hash} completed{by} in {elapsed:.2f}s{note}"
        else:
            self.metrics.counter("campaign.runs_failed").inc()
            lines = (error or "").strip().splitlines()
            line = f"{run_hash} FAILED{by}: {lines[-1] if lines else 'unknown'}"
        info = self._workers.get(worker) if worker else None
        if info is not None:
            with self._state_lock:
                if status == COMPLETED:
                    info.jobs_done += 1
                else:
                    info.jobs_failed += 1
        self._mark(run_hash, status)
        log(self.who, f"{line} ({self.plan.unique[run_hash].describe()})")

    def _fail(self, spec: RunSpec, error: str) -> None:
        """Record and book a run the coordinator gives up on."""
        self.store.record_failed(spec, error)
        self._settle(spec.run_hash(), FAILED, error=error)

    # -- message handling ----------------------------------------------------

    def _handle(self, conn_id: str, msg: Message) -> None:
        self._journal_add("recv", conn_id, msg)
        if isinstance(msg, JobRequest):
            self._touch_worker(msg.worker, conn_id)
            self._handle_job_request(conn_id, msg.worker)
        elif isinstance(msg, Heartbeat):
            self._touch_worker(msg.worker, conn_id)
            self._handle_heartbeat(msg)
        elif isinstance(msg, JobDone):
            self._touch_worker(msg.worker, conn_id)
            self._handle_done(msg)
        elif isinstance(msg, JobFailed):
            self._touch_worker(msg.worker, conn_id)
            self._handle_failed(msg)
        else:
            self.metrics.counter("campaign.service.unexpected_messages").inc()
            log(self.who, f"ignoring unexpected {msg.TYPE} from {conn_id}")

    def _touch_worker(self, worker: str, conn_id: str) -> None:
        now = time.time()
        with self._state_lock:
            info = self._workers.get(worker)
            if info is None:
                self._workers[worker] = _WorkerInfo(
                    conn_id=conn_id, first_seen=now, last_seen=now
                )
                self.metrics.counter("campaign.service.workers_seen").inc()
                log(self.who, f"worker {worker} connected ({conn_id})")
            else:
                if info.conn_id != conn_id:
                    info.conn_id = conn_id
                    info.connections += 1
                    self.metrics.counter("campaign.service.reconnects").inc()
                    log(self.who, f"worker {worker} reconnected ({conn_id})")
                info.last_seen = now

    def _handle_job_request(self, conn_id: str, worker: str) -> None:
        if self._queue:
            self._grant(conn_id, worker)
        elif self._pending:
            # Work is still in flight: hold the request so an expired
            # lease can be regranted to this worker the moment it is
            # reclaimed (replying no-work-left here would strand the
            # reclaimed run with no workers to run it).
            self._parked.append((conn_id, worker))
        else:
            self._send(conn_id, NoWorkLeft())
            self._notified.add(conn_id)

    def _grant(self, conn_id: str, worker: str) -> None:
        item = self._queue.popleft()
        job_id = lease_id(item)
        now = time.time()
        deadline = now + self.lease_timeout
        # The claim markers make the lease durable: the store shows who
        # holds each run and until when.
        self.store.record_running(*item, owner=worker, lease_expires=deadline)
        payloads = [spec.payload() for spec in item]
        job = replace(
            self._settings,
            run_hash=job_id,
            payload=payloads[0] if len(item) == 1 else {},
            members=payloads if len(item) > 1 else [],
        )
        if not self._send(conn_id, job):
            # The connection died between request and grant; put the
            # item back — its stale claims are superseded at the regrant.
            self._queue.appendleft(item)
            return
        lease = Lease(
            id=job_id, specs=item, worker=worker, conn_id=conn_id,
            granted=now, deadline=deadline,
            requeues=self._requeue_counts[job_id],
            open={spec.run_hash(): spec for spec in item},
        )
        with self._state_lock:
            self._leases[job_id] = lease
            self._held.update((run_hash, lease) for run_hash in lease.open)
        self.metrics.counter("campaign.service.jobs_leased").inc()
        for run_hash in lease.open:
            self._mark(run_hash, "running")
        log(self.who, f"leased {job_id} to {worker} (deadline "
                      f"+{self.lease_timeout:g}s, {len(item)}× "
                      f"{item[0].describe()})")

    def _handle_heartbeat(self, msg: Heartbeat) -> None:
        with self._state_lock:
            lease = self._leases.get(msg.run_hash)
            if lease is not None and lease.worker == msg.worker:
                lease.deadline = time.time() + self.lease_timeout
                renewed = True
            else:
                renewed = False
        self.metrics.counter("campaign.service.heartbeats").inc()
        if not renewed:
            self.metrics.counter("campaign.service.stale_messages").inc()

    def _release(self, msg: Any) -> Optional[Lease]:
        """Resolve the lease member a terminal report names; the lease
        itself goes once every member has reported.  Stale reports —
        e.g. from a worker whose lease already expired — return None
        and are counted, not trusted."""
        with self._state_lock:
            lease = self._held.get(msg.run_hash)
            if lease is not None and lease.worker == msg.worker:
                del self._held[msg.run_hash]
                del lease.open[msg.run_hash]
                if not lease.open:
                    del self._leases[lease.id]
                return lease
        self.metrics.counter("campaign.service.stale_messages").inc()
        return None

    def _handle_done(self, msg: JobDone) -> None:
        lease = self._release(msg)
        if lease is not None or msg.run_hash in self._pending:
            self._settle(
                msg.run_hash, COMPLETED, elapsed=msg.elapsed,
                resumed=msg.resumed_from_step, worker=msg.worker,
                fleet=lease is not None and len(lease.specs) > 1,
            )

    def _handle_failed(self, msg: JobFailed) -> None:
        lease = self._release(msg)
        if lease is not None or msg.run_hash in self._pending:
            self._settle(
                msg.run_hash, FAILED, elapsed=msg.elapsed, error=msg.error,
                worker=msg.worker,
            )

    # -- lease expiry ---------------------------------------------------------

    def _sweep_leases(self) -> None:
        """Reclaim every lease whose deadline lapsed: each member not
        yet reported is requeued as a solo run (a lapsed fleet
        dissolves), or failed once it has used up ``max_requeues``."""
        now = time.time()
        with self._state_lock:
            expired = [
                lease for lease in self._leases.values()
                if lease.deadline <= now
            ]
            for lease in expired:
                del self._leases[lease.id]
                for run_hash in lease.open:
                    del self._held[run_hash]
        for lease in expired:
            self.metrics.counter("campaign.service.leases_expired").inc()
            for spec in reversed(lease.open.values()):  # to the head, in order
                run_hash = spec.run_hash()
                self._requeue_counts[run_hash] += 1
                count = self._requeue_counts[run_hash]
                if count > self.max_requeues:
                    error = (
                        f"lease expired {count} times (workers keep "
                        f"vanishing mid-run) — giving up on this run"
                    )
                    self._fail(spec, error)
                    continue
                self._counts["requeued"] += 1
                self.metrics.counter("campaign.requeues").inc()
                self._queue.appendleft((spec,))
                self._mark(run_hash, "queued")
                log(self.who, f"lease {lease.id} on {run_hash} (worker "
                              f"{lease.worker}) expired — requeued "
                              f"(attempt {count + 1})")
        # Regrant immediately to parked workers.
        while self._queue and self._parked:
            conn_id, worker = self._parked.popleft()
            self._grant(conn_id, worker)

    def expire_worker(self, worker: str) -> int:
        """Lapse every lease ``worker`` holds, now; returns how many.

        For a host that *sees* its workers die (a reaped child): the
        next :meth:`step` requeues the runs under the ordinary expiry
        rule — ``max_requeues`` included — instead of waiting out
        ``lease_timeout`` for heartbeats that cannot come.
        """
        with self._state_lock:
            held = [
                lease for lease in self._leases.values()
                if lease.worker == worker
            ]
            for lease in held:
                lease.deadline = 0.0
        return len(held)

    def fail_pending(self, error: str) -> None:
        """Record every run not yet terminal as failed with ``error``
        (the host has no worker left to run them)."""
        with self._state_lock:
            specs = [
                spec for lease in self._leases.values()
                for spec in lease.open.values()
            ]
            self._leases.clear()
            self._held.clear()
        for spec in specs + [spec for item in self._queue for spec in item]:
            self._fail(spec, error)
        self._queue.clear()


class LocalWorkers:
    """Local worker processes serving one :class:`Coordinator` over its
    loopback :class:`SocketEndpoint`, each forked from this process
    (:func:`_fork_worker`) and running the ``rocketrig campaign
    --worker`` loop.

    Owning the workers adds one ability to the service: a child's exit
    is *seen*, so its lease is expired at once
    (:meth:`Coordinator.expire_worker`) and a replacement is forked
    while runs remain.  Recovery stays the coordinator's one rule —
    lease expiry → requeue, bounded by ``max_requeues``.
    """

    #: How long :meth:`close` waits for a child it has sent home (or
    #: terminated) before killing it.
    EXIT_GRACE = 5.0

    def __init__(self, coordinator: Coordinator, size: int) -> None:
        self.coordinator = coordinator
        self.size = size
        self._procs: dict[str, BaseProcess] = {}
        self._spawned = 0
        #: Children that exited non-zero holding no lease — they never
        #: got as far as a run.  More than ``max_requeues`` of them and
        #: no replacement is started.
        self._barren = 0

    def _spawn(self) -> None:
        worker_id = f"local-{os.getpid()}-{self._spawned}"
        self._spawned += 1
        self._procs[worker_id] = _fork_worker(
            self.coordinator.endpoint, worker_id
        )

    def serve(self) -> dict[str, Any]:
        """Lease until every run has a terminal record, then
        :meth:`close` (cleanly unless unwinding on an error); returns
        the coordinator's summary."""
        self.coordinator.worker_type = "process"
        return self.coordinator.drive(self._lease)

    def _lease(self) -> None:
        coordinator = self.coordinator
        log(coordinator.who, f"leasing {coordinator.leasable} items to "
                             f"{self.size} local worker processes")
        clean = False
        try:
            for _ in range(self.size):
                self._spawn()
            while coordinator.pending:
                coordinator.step()
                self._tend()
            clean = True
        finally:
            self.close(clean=clean)

    def _tend(self) -> None:
        """Reap exited children, expire their leases and keep the pool
        at strength; with no child left and none startable, fail the
        remainder instead of waiting forever."""
        coordinator = self.coordinator
        for worker_id, proc in list(self._procs.items()):
            code = proc.exitcode
            if code is None:
                continue
            del self._procs[worker_id]
            if not coordinator.expire_worker(worker_id) and code != 0:
                self._barren += 1
        while (
            len(self._procs) < min(self.size, coordinator.pending)
            and self._barren <= coordinator.max_requeues
        ):
            self._spawn()
        if not self._procs and coordinator.pending:
            coordinator.fail_pending(repr(ChannelClosedError(
                f"{self._barren} local worker processes exited before "
                f"taking a run — none is left to lease to"
            )))

    def close(self, *, clean: bool) -> None:
        """Leave no child behind: send the workers home after a clean
        pass, terminate them when the host is unwinding on an error."""
        try:
            if clean:
                self.coordinator.shutdown()
            else:
                for proc in self._procs.values():
                    proc.terminate()
                self.coordinator.endpoint.close()
        finally:
            for proc in self._procs.values():
                proc.join(self.EXIT_GRACE)
                if proc.exitcode is None:
                    proc.kill()
                    proc.join()
            self._procs.clear()


#: Local workers are forks of the coordinator, which has already
#: imported everything a worker runs (POSIX only, like the store's
#: ``fcntl`` lock).
_FORK = multiprocessing.get_context("fork")


def _fork_worker(endpoint: SocketEndpoint, worker_id: str) -> BaseProcess:
    """Fork one local worker serving ``endpoint`` as ``worker_id``:
    every child of :class:`LocalWorkers`, the first ones and each
    replacement, starts here.

    The child logs as ``rocketrig --quiet`` does (warnings only),
    closes the coordinator's sockets, then runs the ``--worker`` loop
    over a channel of its own.  Of the coordinator's threads (the
    endpoint's accept and readers, the status heartbeat) none exists
    in the child and nothing they own is touched; the blocked backend's
    panel pool resets itself at the fork.  The ``Process`` leaves the
    child through ``os._exit`` — code 0 after a clean run, 1 on an
    exception — so it never unwinds into the coordinator's frames,
    ``finally`` blocks or exit handlers.
    """

    def child() -> None:
        configure_logging(-1)
        endpoint.close_in_child()
        host, port = endpoint.address
        Worker(SocketWorkerChannel(host, port), worker_id=worker_id).run()

    proc = _FORK.Process(target=child, name=worker_id)
    proc.start()
    return proc


def _maybe_trip_kill_fuse(run_hash: str) -> None:
    """Fault injection for the crash-isolation tests (see KILL_FUSE_ENV)."""
    fuse = os.environ.get(KILL_FUSE_ENV)
    if not fuse or not os.path.exists(fuse):
        return
    try:
        with open(fuse, "r", encoding="utf-8") as fh:
            fields = fh.read().split()
    except OSError:
        return
    if not fields or fields[0] != run_hash:
        return
    remaining = int(fields[1]) if len(fields) > 1 else 1
    try:
        if remaining <= 1:
            os.remove(fuse)  # burnt out: the next attempt completes
        else:
            with open(fuse, "w", encoding="utf-8") as fh:
                fh.write(f"{run_hash} {remaining - 1}")
    except OSError:
        pass
    os.kill(os.getpid(), signal.SIGKILL)


class Worker:
    """Pull-based campaign worker: request, execute, report, repeat.

    Runs each :class:`NewJob` through a serial
    :class:`~repro.campaign.executor.CampaignExecutor` against the
    store named in the message — ``run_one`` for a run,
    :meth:`~repro.campaign.executor.CampaignExecutor.run_fleet` for a
    fleet's ``members`` — the executor the coordinator's own
    in-process drain uses, so terminal records and checkpoints are
    byte-identical on every path.  The worker records terminally
    *before* reporting one ``job-done``/``job-failed`` per run — a lost
    report can cost a duplicate execution (the lease expires, the run
    requeues, the store's last-record-wins semantics absorb it) but
    never a lost result.

    A background thread heartbeats every ``lease_timeout / 3`` while a
    job is executing.  A coordinator that disappears mid-conversation
    (closed socket, aborted simulation) ends the loop cleanly: the
    in-flight job is finished and recorded first, so no store state is
    ever corrupted by a coordinator crash.

    ``run_one`` is a test hook replacing the executor call
    (``spec -> RunRecord``, once per member of a fleet); raising
    :class:`WorkerVanished` from it simulates a silent worker death
    (stop heartbeating, send nothing).
    """

    def __init__(
        self,
        channel: SocketWorkerChannel,
        *,
        worker_id: Optional[str] = None,
        results_dir: Optional[str] = None,
        idle_timeout: float = 120.0,
        telemetry: bool = True,
        run_one: Optional[Callable[[RunSpec], RunRecord]] = None,
    ) -> None:
        self.channel = channel
        self.worker_id = worker_id or (
            f"{_socket.gethostname()}-{os.getpid()}"
        )
        #: Overrides the coordinator-supplied store root (single-host
        #: testing with divergent REPRO_RESULTS_DIR views).
        self.results_dir = results_dir
        self.idle_timeout = float(idle_timeout)
        self.telemetry = bool(telemetry)
        self._run_one = run_one
        self.jobs_completed = 0
        self.jobs_failed = 0

    # -- job execution -------------------------------------------------------

    def _executor_for(self, job: NewJob) -> CampaignExecutor:
        store = CampaignStore(
            job.campaign, root=self.results_dir or job.store_root
        )
        return _serial_executor(store, job, telemetry=self.telemetry)

    def _start_heartbeat(self, run_hash: str, interval: float) -> threading.Event:
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    self.channel.send(
                        Heartbeat(worker=self.worker_id, run_hash=run_hash)
                    )
                except (ChannelClosedError, ProtocolError):
                    return  # coordinator gone; the main loop will notice

        threading.Thread(
            target=beat, name=f"heartbeat-{run_hash[:8]}", daemon=True
        ).start()
        return stop

    def _execute(self, job: NewJob) -> list[Message]:
        """Run one job; returns its reports, one per run."""
        specs = [
            RunSpec.from_payload(payload, campaign=job.campaign)
            for payload in job.members or [job.payload]
        ]
        if lease_id(specs) != job.run_hash:
            # A coordinator whose hash does not match the payloads it
            # shipped is confused; refuse rather than record under the
            # wrong content address.
            return [JobFailed(
                worker=self.worker_id, run_hash=job.run_hash,
                error=f"payload hash mismatch: coordinator said "
                      f"{job.run_hash}, payload hashes to {lease_id(specs)}",
            )]
        # Fault injection (tests): SIGKILL ourselves mid-claim, exactly
        # like the process-pool crash tests.
        for spec in specs:
            _maybe_trip_kill_fuse(spec.run_hash())
        interval = max(0.05, job.lease_timeout / 3.0)
        stop = self._start_heartbeat(job.run_hash, interval)
        try:
            if job.members and self._run_one is None:
                records = self._executor_for(job).run_fleet(specs)
            else:
                run = self._run_one or self._executor_for(job).run_one
                records = [run(spec) for spec in specs]
        finally:
            stop.set()
        return [self._report(record) for record in records]

    def _report(self, record: RunRecord) -> Message:
        if record.status == COMPLETED:
            self.jobs_completed += 1
            return JobDone(
                worker=self.worker_id, run_hash=record.run_hash,
                elapsed=record.elapsed,
                resumed_from_step=record.resumed_from_step,
            )
        self.jobs_failed += 1
        error = (record.error or "").strip()
        return JobFailed(
            worker=self.worker_id, run_hash=record.run_hash,
            error=error.splitlines()[-1] if error else "",
            elapsed=record.elapsed,
        )

    # -- main loop -----------------------------------------------------------

    def run(self) -> dict[str, Any]:
        """Pull and execute jobs until ``no-work-left`` (or the
        coordinator disappears); returns a summary dict."""
        who = f"worker {self.worker_id}"
        reason = "no-work-left"
        try:
            while True:
                self.channel.send(JobRequest(worker=self.worker_id))
                msg = self.channel.recv(self.idle_timeout)
                if msg is None:
                    reason = (
                        f"no reply within {self.idle_timeout:g}s — "
                        f"presuming the coordinator is gone"
                    )
                    break
                if isinstance(msg, NoWorkLeft):
                    break
                if not isinstance(msg, NewJob):
                    log(who, f"ignoring unexpected {msg.TYPE} message")
                    continue
                try:
                    reports = self._execute(msg)
                except WorkerVanished:
                    # Simulated hard death: stop silently, exactly as a
                    # SIGKILLed process would — no report, no record.
                    return {
                        "worker": self.worker_id,
                        "completed": self.jobs_completed,
                        "failed": self.jobs_failed,
                        "reason": "vanished",
                    }
                for report in reports:
                    self.channel.send(report)
        except (ChannelClosedError, ProtocolError) as exc:
            # The coordinator hung up.  Any in-flight job was already
            # recorded terminally before we tried to report it, so
            # exiting here leaves the store fully consistent.
            reason = f"coordinator connection lost ({exc})"
        finally:
            self.channel.close()
        log(who, f"exiting: {reason} ({self.jobs_completed} completed, "
                 f"{self.jobs_failed} failed)")
        return {
            "worker": self.worker_id,
            "completed": self.jobs_completed,
            "failed": self.jobs_failed,
            "reason": reason,
        }
