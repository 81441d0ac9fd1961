"""Campaign execution: dedup, scheduling, leased worker processes, resume.

:meth:`CampaignExecutor.submit` takes a batch of
:class:`~repro.campaign.deck.RunSpec`\\ s through one plan
(:func:`~repro.campaign.scheduler.plan_runs`): duplicate specs run
once, hashes already completed in the store are skipped ("store hit"),
the rest is ordered longest-job-first by the machine-model cost
estimate (evaluated once per run and reused for every later ETA), and
groups of same-shape serial functional runs become one *fleet* item,
advanced by one :class:`repro.batch.ScenarioFleet`
(:meth:`CampaignExecutor.run_fleet`).  The items are dispatched by
``worker_type``:

``"process"`` (default)
    The campaign service, locally: a
    :class:`~repro.campaign.service.Coordinator` plans the functional
    runs and leases its items — a fleet is one lease — to
    ``min(max_workers, items)`` ``rocketrig campaign --worker`` child
    processes over a loopback socket: the protocol, claim markers and
    lease rule of ``rocketrig campaign --serve``, with workers this
    executor starts, watches and reaps.  A worker that dies hard has
    its lease expired the moment the child is reaped and its runs
    requeued on a replacement; a run that kills ``max_requeues + 1``
    workers is recorded ``failed`` while its siblings complete.
    Nothing is spawned when nothing needs a second process: a plan of
    one item (one run, or one fleet), ``max_workers=1`` and model-mode
    runs (microseconds of arithmetic) execute inline.
``"serial"``
    Inline in the calling thread (debugging, and what a worker process
    itself uses for the job it was leased).

One run's failure is captured in its index record without aborting its
siblings, and interrupted functional runs resume from the checkpoint
the previous attempt left in the run directory.

Two distinct timeouts govern a run (they used to be conflated, which
made a slow-but-progressing rank die as a spurious ``DeadlockError``):

* ``timeout`` — the run-level wall-clock budget.  Checked between
  timesteps; an over-budget run raises
  :class:`~repro.util.errors.RunBudgetExceededError` and is recorded
  as failed.
* ``collective_timeout`` — the deadline for any *single* blocking
  collective inside the simulated-MPI layer (deadlock detection).  It
  defaults to the run budget, so a rank that computes slowly while its
  peers wait in a gather is never misdiagnosed as deadlocked.

``functional`` runs execute the real solver via
:func:`repro.mpi.run_spmd`; ``model`` runs evaluate the paper-scale
analytic patterns on a :class:`~repro.machine.model.MachineSpec` —
that's how one deck spans both laptop-scale physics and 1024-GPU
scaling points.
"""

from __future__ import annotations

import logging
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro import mpi
from repro.campaign.deck import RunSpec
from repro.campaign.protocol import SocketEndpoint
from repro.campaign.scheduler import evaluation_model, lpt_makespan, plan_runs
from repro.campaign.store import COMPLETED, FAILED, CampaignStore, RunRecord
from repro.core.solver import Solver
from repro.io.checkpoint import load_checkpoint
from repro.machine.model import LASSEN, MachineSpec
from repro.machine.patterns import step_time
from repro.mpi.trace import CommTrace
from repro.telemetry.artifacts import TELEMETRY_SCHEMA, build_run_telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.util.errors import ConfigurationError, RunBudgetExceededError

__all__ = [
    "RunOutcome",
    "CampaignExecutor",
    "WORKER_TYPES",
    "configure_logging",
]

#: The campaign subsystem's logger.  Executor progress lines go through
#: here (stdlib ``logging``) unless a legacy ``log=`` callback is
#: installed; :func:`configure_logging` wires it to stderr for the CLI.
logger = logging.getLogger("repro.campaign")

#: Environment override for the campaign log level (name or number),
#: e.g. ``REPRO_LOG=DEBUG rocketrig campaign ...``.  CLI ``-v``/
#: ``--quiet`` flags win over the environment.
LOG_LEVEL_ENV = "REPRO_LOG"


def configure_logging(verbosity: int = 0) -> int:
    """Configure the ``repro.campaign`` logger for console use.

    ``verbosity`` shifts the level relative to INFO: positive (``-v``)
    toward DEBUG, negative (``--quiet``) toward WARNING.  With
    ``verbosity == 0`` the ``$REPRO_LOG`` environment variable (level
    name or number) is honored instead.  Installs a stderr handler with
    wall-clock timestamps on the campaign logger only — library users
    who configure logging themselves are unaffected because the
    executor never calls this.  Returns the effective level.
    """
    level: int = logging.INFO
    if verbosity > 0:
        level = logging.DEBUG
    elif verbosity < 0:
        level = logging.WARNING
    else:
        env = os.environ.get(LOG_LEVEL_ENV, "").strip()
        if env:
            if env.isdigit():
                level = int(env)
            else:
                level = getattr(logging, env.upper(), logging.INFO)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter(
                "%(asctime)s %(levelname)s %(message)s", "%H:%M:%S"
            )
        )
        logger.addHandler(handler)
        logger.propagate = False
    logger.setLevel(level)
    return level

WORKER_TYPES = ("process", "serial")

#: Run-level wall-clock budget, aligned with the single-run CLI path
#: (which has always used 3600 s) — the executor used to pass its 120 s
#: default straight into the per-collective deadline.
DEFAULT_RUN_TIMEOUT = 3600.0

#: Test-only fault injection: the named file holds ``<run_hash> [N]``;
#: a worker process that is leased that run decrements the trip count
#: (removing the file at zero) and SIGKILLs itself.  ``N`` defaults to
#: 1; a deterministic crasher — one that outlives every requeue and is
#: therefore *recorded failed* — needs ``N > max_requeues``.  This is
#: how the crash-isolation tests produce a real dead worker mid-run.
KILL_FUSE_ENV = "REPRO_CAMPAIGN_KILL_FUSE"

#: Least seconds between two ``status.json`` writes triggered by run
#: transitions.  A transition itself only updates the in-memory board;
#: the file is also written at start, at the end and on the
#: ``status_interval`` heartbeat.
STATUS_WRITE_INTERVAL = 1.0


@dataclass
class RunOutcome:
    """What happened to one spec of a submitted batch."""

    spec: RunSpec
    run_hash: str
    status: str                    # "completed" | "failed" | "skipped"
    result: dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    elapsed: float = 0.0
    resumed_from_step: int = 0

    @property
    def skipped(self) -> bool:
        return self.status == "skipped"

    @property
    def completed(self) -> bool:
        return self.status in ("completed", "skipped")


def resolve_worker_type(worker_type: Optional[str]) -> str:
    """``worker_type`` argument → concrete backend name.

    ``None`` (or ``"auto"``) is ``"process"``.
    """
    if worker_type in (None, "auto"):
        worker_type = "process"
    if worker_type not in WORKER_TYPES:
        raise ConfigurationError(
            f"worker_type must be one of {WORKER_TYPES}, got {worker_type!r}"
        )
    return worker_type


class CampaignExecutor:
    """Runs batches of specs against one :class:`CampaignStore`."""

    def __init__(
        self,
        store: CampaignStore,
        *,
        max_workers: int = 4,
        timeout: float = DEFAULT_RUN_TIMEOUT,
        collective_timeout: Optional[float] = None,
        machine: MachineSpec = LASSEN,
        checkpoint_freq: int = 0,
        worker_type: Optional[str] = None,
        log: Optional[Callable[[str], None]] = None,
        telemetry: bool = True,
        status_interval: float = 0.0,
    ) -> None:
        self.store = store
        self.max_workers = max(1, int(max_workers))
        self.timeout = timeout
        #: Per-blocking-collective deadline inside a run (deadlock
        #: detection); defaults to the whole run budget (or the stock
        #: budget when the budget is disabled with ``timeout=0``).
        if collective_timeout is None:
            collective_timeout = (
                timeout if timeout and timeout > 0 else DEFAULT_RUN_TIMEOUT
            )
        self.collective_timeout = collective_timeout
        self.machine = machine
        self.checkpoint_freq = int(checkpoint_freq)
        self.worker_type = resolve_worker_type(worker_type)
        self._log = log
        #: Collect a timed per-run CommTrace and publish a
        #: ``telemetry.json`` artifact per completed functional run.
        self.telemetry = bool(telemetry)
        #: Heartbeat period (seconds) for live ``status.json`` snapshots
        #: and one-line progress summaries during ``submit``; 0 disables
        #: the heartbeat thread (initial/final snapshots still land).
        self.status_interval = float(status_interval)
        #: Campaign-level metrics (store hits, runs completed/failed,
        #: requeues, run-elapsed histogram, ``campaign.service.*``).
        self.metrics = MetricsRegistry()
        self._status: Optional[_StatusBoard] = None

    def log(self, message: str) -> None:
        """Progress line: legacy callback when installed, else the
        ``repro.campaign`` stdlib logger."""
        line = f"[campaign {self.store.campaign}] {message}"
        if self._log is not None:
            self._log(line)
        else:
            logger.info(line)

    # -- batch submission ------------------------------------------------------

    def submit(self, specs: Sequence[RunSpec]) -> list[RunOutcome]:
        """Run a batch; returns outcomes in the original submission order.

        Duplicate specs within the batch run once; hashes already
        completed in the store are skipped outright.
        """
        # Functional runs go to a coordinator, which plans what it
        # leases; what stays in this process is planned here.
        coordinator, here = None, specs
        if self.worker_type == "process" and self.max_workers > 1:
            functional = [s for s in specs if s.mode == "functional"]
            if functional:
                coordinator = self._coordinator(functional)
                here = [s for s in specs if s.mode != "functional"]
        plans = [plan_runs(
            here, self.store, self.machine, checkpoint_freq=self.checkpoint_freq,
        )]
        items = list(plans[0].items)
        if coordinator is not None:
            plans.append(coordinator.plan)
            if min(self.max_workers, len(coordinator.plan.items)) < 2:
                # One item (a run or a fleet) needs no second process.
                items += coordinator.plan.items
                coordinator.endpoint.close()
                coordinator = None
        board = _StatusBoard(
            self,
            {h: s for plan in plans for h, s in plan.unique.items()},
            {h: c for plan in plans for h, c in plan.costs.items()},
        )
        outcomes: dict[str, RunOutcome] = {}
        for plan in plans:
            for run_hash, result in plan.hits.items():
                spec = plan.unique[run_hash]
                outcomes[run_hash] = RunOutcome(
                    spec=spec, run_hash=run_hash, status="skipped", result=result
                )
                self.metrics.counter("campaign.store_hits").inc()
                self.log(f"{run_hash} store hit — skipped ({spec.describe()})")
                board.mark(run_hash, "skipped")
        self._status = board
        board.publish()
        heartbeat = board.start_heartbeat(self.status_interval)
        clean_exit = False
        try:
            if coordinator is not None:
                self._lease(coordinator, board)
                latest = self.store.latest_records()
                for run_hash in coordinator.plan.costs:
                    spec = coordinator.plan.unique[run_hash]
                    outcomes[run_hash] = _outcome_of(spec, latest.get(run_hash))
            for item in items:
                done = self.run_fleet(item) if len(item) > 1 else [
                    self._run_tracked(item[0])
                ]
                outcomes.update((o.run_hash, o) for o in done)
            clean_exit = True
        finally:
            board.stop_heartbeat(heartbeat)
            board.finalize(interrupted=not clean_exit)
            self._status = None
        return [outcomes[spec.run_hash()] for spec in specs]

    def _coordinator(self, specs: Sequence[RunSpec]):
        """The campaign service on a loopback endpoint, planning
        ``specs`` with this executor's settings."""
        # Imported here: the service module builds on this one.
        from repro.campaign.service import Coordinator

        return Coordinator(
            self.store, specs, SocketEndpoint(), run_timeout=self.timeout,
            collective_timeout=self.collective_timeout, machine=self.machine,
            checkpoint_freq=self.checkpoint_freq, telemetry=self.telemetry,
            log=self._log,
        )

    def _lease(self, coordinator, board: "_StatusBoard") -> None:
        """Lease the coordinator's items to ``min(max_workers, items)``
        local worker processes until every run is terminal."""
        from repro.campaign.service import LocalWorkers

        # One status document and one metrics registry per submit().
        coordinator.board, coordinator.metrics = board, self.metrics
        items = coordinator.plan.items
        workers = LocalWorkers(coordinator, min(self.max_workers, len(items)))
        self.log(
            f"dispatching {coordinator.pending} runs as {len(items)} leases "
            f"on {workers.size} process workers (longest-job-first)"
        )
        workers.serve()

    def _run_tracked(self, spec: RunSpec) -> RunOutcome:
        """``run_one`` plus status-board transitions."""
        self._mark(spec.run_hash(), "running")
        outcome = self.run_one(spec)
        self._mark(outcome.run_hash, outcome.status)
        return outcome

    def _mark(self, run_hash: str, state: str) -> None:
        board = self._status
        if board is not None:
            board.mark(run_hash, state)

    # -- fleets ----------------------------------------------------------------

    def run_fleet(self, group: Sequence[RunSpec]) -> list[RunOutcome]:
        """Advance same-shape serial runs as one
        :class:`repro.batch.ScenarioFleet`, recording each of them.

        The one routine a fleet item runs through — inline, or in the
        worker its lease went to.  Store records match a solo run's:
        one terminal ``completed``/``failed`` record per member with the
        same result payload shape, so ``campaign_summary`` counts
        fleet-absorbed runs like any other.  A member that diverges
        fails alone.  Each completed run still gets its own
        ``telemetry.json`` (the fleet trace is shared; ``fleet_size``
        marks it as amortized).  Returns one outcome per member, in
        ``group`` order.
        """
        from repro.batch import ScenarioFleet

        n = len(group)
        self.log(
            f"batch fast path: advancing {n} same-shape serial runs in one "
            f"fleet ({group[0].describe()})"
        )
        trace = CommTrace() if self.telemetry else None
        start = time.perf_counter()
        pending: dict[int, RunSpec] = {}
        outcomes: dict[str, RunOutcome] = {}

        def fail(spec: RunSpec, error: str) -> None:
            run_hash = spec.run_hash()
            elapsed = time.perf_counter() - start
            self.store.record_failed(spec, error, elapsed=elapsed)
            self.metrics.counter("campaign.runs_failed").inc()
            outcomes[run_hash] = RunOutcome(
                spec=spec, run_hash=run_hash, status="failed",
                error=error, elapsed=elapsed,
            )
            self._mark(run_hash, "failed")
            self.log(f"{run_hash} FAILED in batch fleet ({spec.describe()})")

        def on_finish(sid: int, result: dict[str, Any]) -> None:
            spec = pending.pop(sid)
            if "error" in result:          # this member diverged
                fail(spec, f"{type(result['error']).__name__}: {result['error']}")
                return
            run_hash = spec.run_hash()
            elapsed = time.perf_counter() - start
            payload = {
                "kind": "functional",
                "diagnostics": result["diagnostics"],
            }
            self.store.record_completed(spec, payload, elapsed=elapsed)
            self.metrics.counter("campaign.runs_completed").inc()
            self.metrics.counter("campaign.batch_absorbed").inc()
            self.metrics.histogram("campaign.run_elapsed").observe(elapsed)
            outcomes[run_hash] = RunOutcome(
                spec=spec, run_hash=run_hash, status="completed",
                result=payload, elapsed=elapsed,
            )
            self._mark(run_hash, "completed")
            if trace is not None:
                self.store.write_telemetry(
                    run_hash,
                    build_run_telemetry(
                        trace,
                        elapsed=elapsed,
                        extra={
                            "run_hash": run_hash,
                            "ranks": spec.ranks,
                            "fleet_size": n,
                        },
                    ),
                )

        try:
            fleet = ScenarioFleet(group[0].config, trace=trace)
            ids = fleet.add_many([(s.config, s.ic, s.steps) for s in group])
            pending.update(zip(ids, group))
            for spec in group:
                self._mark(spec.run_hash(), "running")
            fleet.run(on_finish=on_finish)
        except Exception:
            error = traceback.format_exc(limit=20)
            for spec in [s for s in group if s.run_hash() not in outcomes]:
                fail(spec, error)
        else:
            if trace is not None:
                self.metrics.merge(trace.metrics.snapshot())
            self.log(
                f"batch fast path: {n} runs completed in "
                f"{time.perf_counter() - start:.2f}s"
            )
        return [outcomes[spec.run_hash()] for spec in group]

    # -- single runs -----------------------------------------------------------

    def run_one(self, spec: RunSpec) -> RunOutcome:
        """Execute one spec, recording success or failure in the store.

        Only ``Exception`` counts as a run failure: an interrupt
        (``KeyboardInterrupt``/``SystemExit``) propagates to the caller
        without polluting the persistent store — the run simply has no
        record and retries on the next submission.
        """
        run_hash = spec.run_hash()
        start = time.perf_counter()
        try:
            if spec.mode == "model":
                result, resumed = self._run_model(spec), 0
            else:
                result, resumed = self._run_functional(spec, run_hash)
        except Exception:
            elapsed = time.perf_counter() - start
            error = traceback.format_exc(limit=20)
            self.store.record_failed(spec, error, elapsed=elapsed)
            self.metrics.counter("campaign.runs_failed").inc()
            self.log(f"{run_hash} FAILED after {elapsed:.2f}s ({spec.describe()})")
            return RunOutcome(
                spec=spec, run_hash=run_hash, status="failed",
                error=error, elapsed=elapsed,
            )
        elapsed = time.perf_counter() - start
        self.store.record_completed(
            spec, result, elapsed=elapsed, resumed_from_step=resumed
        )
        self.metrics.counter("campaign.runs_completed").inc()
        self.metrics.histogram("campaign.run_elapsed").observe(elapsed)
        note = f" (resumed from step {resumed})" if resumed else ""
        self.log(f"{run_hash} completed in {elapsed:.2f}s{note} ({spec.describe()})")
        return RunOutcome(
            spec=spec, run_hash=run_hash, status="completed",
            result=result, elapsed=elapsed, resumed_from_step=resumed,
        )

    def _run_functional(
        self, spec: RunSpec, run_hash: str
    ) -> tuple[dict[str, Any], int]:
        """Real solver run on simulated ranks, with checkpoint/resume."""
        ckpt_path = self.store.checkpoint_path(run_hash)
        resume_state = None
        if os.path.exists(ckpt_path):
            try:
                state = load_checkpoint(ckpt_path)
            except Exception as exc:
                # A checkpoint a crashed attempt left unreadable must not
                # wedge the run hash forever: start fresh.
                self.log(
                    f"{run_hash} checkpoint unreadable ({exc!r}) — "
                    f"discarding it and starting fresh"
                )
                self._remove_checkpoint(ckpt_path)
            else:
                if 0 < state["step"] < spec.steps:
                    resume_state = state
                else:
                    # Resuming is impossible (already at/past the target,
                    # or a zero-step write); a stale file left in place
                    # would shadow every future attempt of this hash.
                    self._remove_checkpoint(ckpt_path)
        resumed_from = resume_state["step"] if resume_state is not None else 0
        freq = self.checkpoint_freq
        if freq > 0:
            self.store.run_dir(run_hash, create=True)
        deadline = (
            time.perf_counter() + self.timeout
            if self.timeout and self.timeout > 0 else None
        )

        def program(comm):
            if resume_state is not None:
                solver = Solver.from_checkpoint(
                    comm, spec.config, resume_state, spec.ic
                )
            else:
                solver = Solver(comm, spec.config, spec.ic)

            def on_step(s: Solver) -> None:
                # Run-level budget: enforced between steps on every
                # rank, so an over-budget run fails cleanly instead of
                # tripping the per-collective deadlock detector.
                if deadline is not None and time.perf_counter() > deadline:
                    raise RunBudgetExceededError(
                        f"run exceeded its {self.timeout:g}s wall-clock "
                        f"budget at step {s.step_count}/{spec.steps}"
                    )
                if freq > 0 and s.step_count % freq == 0:
                    s.save_checkpoint(ckpt_path)

            solver.run(spec.steps - solver.step_count, on_step=on_step)
            return solver.diagnostics()

        trace = CommTrace() if self.telemetry else None
        t_run = time.perf_counter()
        results = mpi.run_spmd(
            spec.ranks, program, trace=trace, timeout=self.collective_timeout
        )
        run_wall = time.perf_counter() - t_run
        diagnostics = results[0]
        self._remove_checkpoint(ckpt_path)
        if trace is not None:
            self.store.write_telemetry(
                run_hash,
                build_run_telemetry(
                    trace,
                    elapsed=run_wall,
                    extra={"run_hash": run_hash, "ranks": spec.ranks},
                ),
            )
        return {"kind": "functional", "diagnostics": diagnostics}, resumed_from

    @staticmethod
    def _remove_checkpoint(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def _run_model(self, spec: RunSpec) -> dict[str, Any]:
        """Paper-scale analytic point on the machine model."""
        model = evaluation_model(spec, self.machine)
        per_step = step_time(model)
        return {
            "kind": "model",
            "machine": self.machine.name,
            "step_time": per_step,
            "total_time": spec.steps * per_step,
            "comm_time": 3.0 * model.comm_total(),
            "compute_time": 3.0 * model.compute_total(),
            "phases": {
                name: {"comm": cost.comm, "compute": cost.compute}
                for name, cost in model.phases.items()
            },
        }


class _StatusBoard:
    """Live status of one submitted batch.

    Tracks every unique run hash through ``queued → running →
    completed/failed/skipped`` (plus ``interrupted`` when ``submit``
    unwinds on an interrupt), renders the snapshot external tools poll
    as ``status.json`` (written atomically in the campaign root), and —
    on a heartbeat interval — logs a one-line progress summary with a
    longest-job-first modeled ETA for the remainder.  A transition is
    O(1): it updates the in-memory board and rewrites the file only
    when the last write is :data:`STATUS_WRITE_INTERVAL` old.  ``costs``
    (run hash → modeled seconds of every run still to execute, see
    :func:`~repro.campaign.scheduler.modeled_costs`) feeds the ETA: the
    dispatchers pass the map they ordered the queue with.

    The ``executor`` host is duck-typed, not nominally typed: the board
    only touches ``store``, ``machine``, ``max_workers``,
    ``worker_type``, ``metrics`` and ``log()``.  Anything providing
    those can drive a board — the campaign service's
    :class:`~repro.campaign.service.Coordinator` does exactly that (and
    subclasses the board to add a ``service`` section to the snapshot).
    """

    _TERMINAL = frozenset(("completed", "failed", "skipped", "interrupted"))

    def __init__(
        self,
        executor: "CampaignExecutor",
        specs: dict[str, RunSpec],
        costs: dict[str, float],
    ) -> None:
        self._executor = executor
        self._costs = costs
        self._lock = threading.Lock()
        self._state: dict[str, str] = {h: "queued" for h in specs}
        self._started: dict[str, float] = {}
        self._elapsed: dict[str, float] = {}
        #: perf_counter of the last write (the throttle window opens at
        #: construction: the dispatcher publishes the first snapshot).
        self._written = time.perf_counter()

    def mark(self, run_hash: str, state: str) -> None:
        """Transition one run; unknown hashes are ignored (a retried
        run may resolve under a worker-reported hash)."""
        now = time.perf_counter()
        with self._lock:
            if run_hash not in self._state:
                return
            if state == "running":
                self._started[run_hash] = now
            elif run_hash in self._started:
                self._elapsed[run_hash] = now - self._started.pop(run_hash)
            self._state[run_hash] = state
        if now - self._written >= STATUS_WRITE_INTERVAL:
            self.publish()

    def snapshot(self) -> dict[str, Any]:
        """The JSON-able status document (the ``status.json`` schema)."""
        executor = self._executor
        now = time.perf_counter()
        with self._lock:
            states = dict(self._state)
            started = dict(self._started)
            elapsed = dict(self._elapsed)
        counts = {
            key: 0
            for key in (
                "queued", "running", "completed", "failed", "skipped",
                "interrupted",
            )
        }
        for state in states.values():
            counts[state] = counts.get(state, 0) + 1
        eta = lpt_makespan(
            [
                self._costs.get(h, 0.0)
                for h, state in states.items()
                if state in ("queued", "running")
            ],
            executor.max_workers,
        )
        runs: dict[str, Any] = {}
        for run_hash, state in states.items():
            entry: dict[str, Any] = {"state": state}
            if run_hash in started:
                entry["elapsed"] = now - started[run_hash]
            elif run_hash in elapsed:
                entry["elapsed"] = elapsed[run_hash]
            runs[run_hash] = entry
        return {
            "schema": TELEMETRY_SCHEMA,
            "campaign": executor.store.campaign,
            "timestamp": time.time(),
            "worker_type": executor.worker_type,
            "max_workers": executor.max_workers,
            "total": len(states),
            "counts": counts,
            "eta_modeled_seconds": eta,
            "done": all(s in self._TERMINAL for s in states.values()),
            "runs": runs,
            "metrics": executor.metrics.snapshot(),
        }

    def publish(self) -> dict[str, Any]:
        """Snapshot + atomic ``status.json`` write (I/O errors are
        swallowed: status is advisory, never worth failing a run)."""
        snap = self.snapshot()
        self._written = time.perf_counter()
        try:
            self._executor.store.write_status(snap)
        except OSError:  # pragma: no cover - disk-full style failures
            pass
        return snap

    @staticmethod
    def summary_line(snap: dict[str, Any]) -> str:
        counts = snap["counts"]
        line = (
            f"status: {counts['completed']}/{snap['total']} completed, "
            f"{counts['running']} running, {counts['queued']} queued, "
            f"{counts['failed']} failed, {counts['skipped']} skipped"
        )
        if not snap["done"]:
            line += f" — modeled ETA {snap['eta_modeled_seconds']:.3g}s"
        return line

    def start_heartbeat(
        self, interval: float
    ) -> Optional[tuple[threading.Event, threading.Thread]]:
        if interval <= 0:
            return None

        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(interval):
                snap = self.publish()
                self._executor.log(self.summary_line(snap))
                if snap["done"]:
                    return

        thread = threading.Thread(
            target=beat, name="campaign-status", daemon=True
        )
        thread.start()
        return (stop, thread)

    def stop_heartbeat(
        self, handle: Optional[tuple[threading.Event, threading.Thread]]
    ) -> None:
        if handle is None:
            return
        stop, thread = handle
        stop.set()
        thread.join(timeout=5.0)

    def finalize(self, *, interrupted: bool) -> dict[str, Any]:
        """Terminal snapshot: non-terminal runs become ``interrupted``
        when the batch unwound on an interrupt/error."""
        if interrupted:
            with self._lock:
                for run_hash, state in self._state.items():
                    if state not in self._TERMINAL:
                        self._state[run_hash] = "interrupted"
        return self.publish()


def _outcome_of(spec: RunSpec, record: Optional[RunRecord]) -> RunOutcome:
    """The outcome of a leased run, from the terminal record its worker
    (or the coordinator, for a run that exhausted its requeues) wrote."""
    if record is None or record.status not in (COMPLETED, FAILED):
        return RunOutcome(
            spec=spec, run_hash=spec.run_hash(), status="failed",
            error="no terminal record in the store",
        )
    return RunOutcome(
        spec=spec, run_hash=record.run_hash, status=record.status,
        result=record.result, error=record.error, elapsed=record.elapsed,
        resumed_from_step=record.resumed_from_step,
    )
