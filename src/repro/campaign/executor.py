"""Campaign execution: one run or one fleet, recorded in the store.

:meth:`CampaignExecutor.submit` hands a batch to one
:class:`~repro.campaign.service.Coordinator`, the campaign's ledger: it
plans the batch once (:func:`~repro.campaign.scheduler.plan_runs` —
duplicate specs run once, hashes already completed in the store are
skipped as "store hits", the rest is ordered longest-job-first by the
machine-model cost estimate, and groups of same-shape serial
functional runs become one *fleet* item), and it alone counts, marks
and logs every run.  ``max_workers`` picks who executes the items:

* the campaign service, locally: the coordinator leases its items — a
  fleet is one lease — to ``min(max_workers, items)`` worker processes
  forked from this one, each running the ``rocketrig campaign
  --worker`` loop over a loopback socket
  (:class:`~repro.campaign.service.LocalWorkers`): the protocol, claim
  markers and lease rule of ``rocketrig campaign --serve``, with
  workers this process forks, watches and reaps.  A worker that dies
  hard has its lease expired the moment the child is reaped and its
  runs requeued on a replacement; a run that kills ``max_requeues + 1``
  workers is recorded ``failed`` while its siblings complete;
* the coordinator itself, in the calling thread, when nothing needs a
  second process: with ``max_workers=1`` or at most one leasable item.

Model-mode runs (microseconds of arithmetic on the coordinator's
machine model) never leave the coordinator's process.  Every path
returns the store's latest record of each spec.

:meth:`CampaignExecutor.run_one` and :meth:`CampaignExecutor.run_fleet`
are pure execution — the routines a worker and the coordinator's
in-process drain both run items through: execute, write the store
records (a completed one carries the run's telemetry document), return
the records written.  One run's failure is captured in its index
record without aborting its siblings, and interrupted functional runs
resume from the checkpoint the previous attempt left in the run
directory.

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
import time
import traceback
from dataclasses import replace
from typing import Any, Optional, Sequence

from repro import mpi
from repro.campaign.deck import RunSpec
from repro.campaign.protocol import SocketEndpoint
from repro.campaign.scheduler import evaluation_model
from repro.campaign.store import (
    COMPLETED,
    FAILED,
    SKIPPED,
    CampaignStore,
    RunRecord,
)
from repro.core.solver import Solver
from repro.io.checkpoint import load_checkpoint
from repro.machine.model import LASSEN, MachineSpec
from repro.machine.patterns import step_time
from repro.mpi.trace import CommTrace
from repro.telemetry.artifacts import build_run_telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.util.errors import ConfigurationError, RunBudgetExceededError

__all__ = [
    "CampaignExecutor",
    "configure_logging",
]

#: The campaign subsystem's logger: every progress line goes through
#: here (stdlib ``logging``, via :func:`log`); :func:`configure_logging`
#: wires it to stderr for the CLI.
logger = logging.getLogger("repro.campaign")

#: Environment override for the campaign log level (name or number),
#: e.g. ``REPRO_LOG=DEBUG rocketrig campaign ...``.  CLI ``-v``/
#: ``--quiet`` flags win over the environment.
LOG_LEVEL_ENV = "REPRO_LOG"


def log(who: str, message: str, level: int = logging.INFO) -> None:
    """One progress line on the ``repro.campaign`` logger, prefixed
    with who says it (``campaign <name>`` or ``worker <id>``)."""
    logger.log(level, "[%s] %s", who, message)


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
        telemetry: bool = True,
        status_interval: float = 0.0,
    ) -> None:
        self.store = store
        #: ``worker_type="serial"`` is the older spelling of
        #: ``max_workers=1``, kept because ``benchmarks/e2e`` passes it.
        if worker_type not in (None, "serial"):
            raise ConfigurationError(
                f"worker_type must be 'serial' or omitted (--workers 1 is "
                f"the in-process drain), got {worker_type!r}"
            )
        self.max_workers = 1 if worker_type else max(1, int(max_workers))
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
        #: Collect a timed per-run CommTrace and keep its telemetry
        #: document in each completed functional run's record.
        self.telemetry = bool(telemetry)
        #: Heartbeat period (seconds) for live ``status.json`` snapshots
        #: and one-line progress summaries during ``submit``; 0 disables
        #: the heartbeat thread (initial/final snapshots still land).
        self.status_interval = float(status_interval)
        #: Campaign-level metrics of every ``submit`` (store hits, runs
        #: completed/failed, requeues, run-elapsed histogram,
        #: ``campaign.service.*``), booked by the coordinator.
        self.metrics = MetricsRegistry()

    # -- batch submission ------------------------------------------------------

    def submit(self, specs: Sequence[RunSpec]) -> list[RunRecord]:
        """Run a batch; returns the latest record of each spec, in
        submission order.

        Duplicate specs within the batch run once; hashes already
        completed in the store are skipped outright and come back as
        their completed record with ``status="skipped"``.  A spec left
        with no terminal record comes back as a failed one.
        """
        # Imported here: the service module builds on this one.
        from repro.campaign.service import Coordinator, LocalWorkers

        coordinator = Coordinator(
            self.store, specs, None, run_timeout=self.timeout,
            collective_timeout=self.collective_timeout, machine=self.machine,
            checkpoint_freq=self.checkpoint_freq, telemetry=self.telemetry,
            status_interval=self.status_interval,
        )
        # One registry per executor.
        coordinator.metrics = self.metrics
        workers = min(self.max_workers, coordinator.leasable)
        if workers < 2:
            coordinator.run_here()
        else:
            coordinator.endpoint = SocketEndpoint()
            LocalWorkers(coordinator, workers).serve()
        hits, latest = coordinator.plan.hits, self.store.latest_records()
        records = []
        for spec in specs:
            run_hash = spec.run_hash()
            record = latest.get(run_hash)
            if run_hash in hits:
                record = replace(hits[run_hash], status=SKIPPED)
            elif record is None or record.status not in (COMPLETED, FAILED):
                record = RunRecord(
                    run_hash, FAILED, spec.payload(),
                    error="no terminal record in the store",
                )
            records.append(record)
        return records

    # -- fleets ----------------------------------------------------------------

    def run_fleet(self, group: Sequence[RunSpec]) -> list[RunRecord]:
        """Advance same-shape serial runs as one
        :class:`repro.batch.ScenarioFleet`, recording each of them.

        The one routine a fleet item runs through, wherever it runs.
        Store records match a solo run's: one terminal
        ``completed``/``failed`` record per member with the same result
        payload shape, so ``campaign_summary`` counts fleet-absorbed
        runs like any other.  A member that diverges fails alone.  Each
        completed record carries its own telemetry document (the fleet
        trace, ``batch.*`` metrics included, is shared; ``fleet_size``
        marks it as amortized).  Returns each member's terminal record,
        in ``group`` order.
        """
        from repro.batch import ScenarioFleet

        trace = CommTrace() if self.telemetry else None
        start = time.perf_counter()
        pending: dict[int, RunSpec] = {}
        records: dict[str, RunRecord] = {}

        def fail(spec: RunSpec, error: str) -> None:
            records[spec.run_hash()] = self.store.record_failed(
                spec, error, elapsed=time.perf_counter() - start
            )

        def on_finish(sid: int, result: dict[str, Any]) -> None:
            spec = pending.pop(sid)
            if "error" in result:          # this member diverged
                fail(spec, f"{type(result['error']).__name__}: {result['error']}")
                return
            elapsed = time.perf_counter() - start
            telemetry = None if trace is None else build_run_telemetry(
                trace, elapsed=elapsed, extra={"fleet_size": len(group)}
            )
            records[spec.run_hash()] = self.store.record_completed(
                spec,
                {"kind": "functional", "diagnostics": result["diagnostics"]},
                elapsed=elapsed,
                telemetry=telemetry,
            )

        try:
            fleet = ScenarioFleet(group[0].config, trace=trace)
            ids = fleet.add_many([(s.config, s.ic, s.steps) for s in group])
            pending.update(zip(ids, group))
            fleet.run(on_finish=on_finish)
        except Exception:
            error = traceback.format_exc(limit=20)
            for spec in [s for s in group if s.run_hash() not in records]:
                fail(spec, error)
        return [records[spec.run_hash()] for spec in group]

    # -- single runs -----------------------------------------------------------

    def run_one(self, spec: RunSpec) -> RunRecord:
        """Execute one spec; returns the completed or failed record it
        wrote to the store.

        Only ``Exception`` counts as a run failure: an interrupt
        (``KeyboardInterrupt``/``SystemExit``) propagates to the caller
        without polluting the persistent store — the run simply has no
        record and retries on the next submission.
        """
        run_hash = spec.run_hash()
        start = time.perf_counter()
        try:
            if spec.mode == "model":
                result, resumed, telemetry = self._run_model(spec), 0, None
            else:
                result, resumed, telemetry = self._run_functional(spec, run_hash)
        except Exception:
            return self.store.record_failed(
                spec, traceback.format_exc(limit=20),
                elapsed=time.perf_counter() - start,
            )
        return self.store.record_completed(
            spec, result, elapsed=time.perf_counter() - start,
            resumed_from_step=resumed, telemetry=telemetry,
        )

    def _run_functional(
        self, spec: RunSpec, run_hash: str
    ) -> tuple[dict[str, Any], int, Optional[dict[str, Any]]]:
        """Real solver run on simulated ranks, with checkpoint/resume;
        returns the result, the step it resumed from and its telemetry
        document (``None`` with telemetry off)."""
        ckpt_path = self.store.checkpoint_path(run_hash)
        resume_state = None
        if os.path.exists(ckpt_path):
            try:
                state = load_checkpoint(ckpt_path)
            except Exception as exc:
                # A checkpoint a crashed attempt left unreadable must not
                # wedge the run hash forever: start fresh.
                log(
                    f"campaign {self.store.campaign}",
                    f"{run_hash} checkpoint unreadable ({exc!r}) — "
                    f"discarding it and starting fresh",
                    logging.WARNING,
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
        self._remove_checkpoint(ckpt_path)
        telemetry = (
            None if trace is None else build_run_telemetry(trace, elapsed=run_wall)
        )
        result = {"kind": "functional", "diagnostics": results[0]}
        return result, resumed_from, telemetry

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

