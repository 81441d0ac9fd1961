"""Persistent campaign run store (one JSON-lines index).

Layout, rooted at ``$REPRO_RESULTS_DIR`` (default ``results/``)::

    results/campaigns/<campaign>/index.jsonl      append-only run records
    results/campaigns/<campaign>/.store.lock      advisory inter-process lock
    results/campaigns/<campaign>/status.json      live executor heartbeat
    results/campaigns/<campaign>/runs/<hash>/     only with checkpointing:
        checkpoint.npz                            in-progress solver state

The index is append-only and the *last* record per run hash wins, so a
failed run can be retried and a re-submitted deck skips every hash whose
latest record is ``completed`` — content-addressed dedup without any
read-side coordination.  A ``completed`` record carries the run's
result payload, its measured telemetry document and the
:data:`~repro.core.solver.NUMERICS_VERSION` that produced it: completing
a run is one atomic append, and the index is the one home of a run's
outcome.

Concurrency control
-------------------
The store is safe for concurrent *processes*, not just threads (every
worker process is a writer):

* every index record is appended with a **single ``write`` on an
  ``O_APPEND`` descriptor**, so concurrent appends interleave at record
  granularity, never mid-line;
* writers additionally hold an advisory ``fcntl.flock`` on
  ``.store.lock`` across the append, so healing a torn trailing line
  never races another writer;
* readers tolerate what crashes leave behind: a torn trailing
  ``index.jsonl`` line is skipped with a warning instead of poisoning
  ``latest_records()``.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Optional

from repro.campaign.deck import RunSpec
from repro.core.solver import NUMERICS_VERSION, arithmetic_canary
from repro.telemetry.artifacts import atomic_write_json
from repro.util.errors import ConfigurationError

__all__ = ["RunRecord", "CampaignStore", "results_root"]

logger = logging.getLogger(__name__)

COMPLETED = "completed"
FAILED = "failed"
#: A worker process claimed the run and is executing it.  Superseded by
#: a terminal record on exit; a *trailing* ``running`` record therefore
#: marks a run whose worker died (or was interrupted) mid-flight.
RUNNING = "running"
#: What ``CampaignExecutor.submit`` reports for a store hit; never written.
SKIPPED = "skipped"


def results_root() -> str:
    """Root of the shared results tree (``REPRO_RESULTS_DIR`` overrides)."""
    return os.path.normpath(os.environ.get("REPRO_RESULTS_DIR") or "results")


@dataclass
class RunRecord:
    """One line of the campaign index; this dataclass is its schema.

    ``run_hash`` and ``status`` are required: a line missing either is
    skipped as unparseable.  Every other field defaults, so a line
    written before the field existed still parses: a pre-lease claim
    marker reads ``owner=None`` / ``lease_expires=0.0`` ("claimant
    unknown, lease already lapsed" — the conservative reading lease
    reclaim wants), and a completed record from before numerics stamps
    reads ``numerics=0``, which the scheduler treats as stale.  Unknown
    keys are ignored, so old and new writers can share one index file.
    A completed record written before telemetry moved into the index
    reads ``telemetry=None``, and one written before state digests
    ``digest=None`` / ``host=None``.
    """

    run_hash: str
    status: str
    spec: dict[str, Any] = field(default_factory=dict)
    result: dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    elapsed: float = 0.0
    timestamp: float = 0.0
    resumed_from_step: int = 0
    owner: Optional[str] = None
    lease_expires: float = 0.0
    #: The :data:`NUMERICS_VERSION` that computed a completed result.
    numerics: int = 0
    #: A completed run's measured telemetry document
    #: (:func:`~repro.telemetry.artifacts.build_run_telemetry`).
    telemetry: Optional[dict[str, Any]] = None
    #: A completed functional run's :func:`~repro.core.solver.state_digest`
    #: and the :func:`~repro.core.solver.arithmetic_canary` of the host
    #: that computed it; ``None`` for a model-mode run.
    digest: Optional[str] = None
    host: Optional[str] = None

    @property
    def skipped(self) -> bool:
        return self.status == SKIPPED

    def to_json(self) -> str:
        return json.dumps(
            {f.name: getattr(self, f.name) for f in fields(self)},
            sort_keys=True,
            default=str,
        )

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        data = json.loads(line)
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


class CampaignStore:
    """Append-only, content-addressed store for one campaign's runs."""

    def __init__(self, campaign: str, root: Optional[str] = None) -> None:
        if not campaign or os.sep in campaign or campaign in (".", ".."):
            raise ConfigurationError(f"invalid campaign name {campaign!r}")
        self.campaign = campaign
        #: The results-tree root this store hangs off — kept so worker
        #: processes can rebuild an equivalent store from
        #: ``(campaign, base_root)`` alone.
        self.base_root = os.path.normpath(root) if root else results_root()
        self.root = os.path.join(self.base_root, "campaigns", campaign)
        self._lock = threading.Lock()
        #: ``((st_size, st_mtime_ns), latest records, torn line numbers)``
        #: of the index.
        self._latest: Optional[
            tuple[tuple[int, int], dict[str, RunRecord], list[int]]
        ] = None

    # -- paths ----------------------------------------------------------------

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.jsonl")

    @property
    def lock_path(self) -> str:
        return os.path.join(self.root, ".store.lock")

    def run_dir(self, run_hash: str, create: bool = False) -> str:
        path = os.path.join(self.root, "runs", run_hash)
        if create:
            os.makedirs(path, exist_ok=True)
        return path

    def checkpoint_path(self, run_hash: str) -> str:
        return os.path.join(self.run_dir(run_hash), "checkpoint.npz")

    @property
    def status_path(self) -> str:
        return os.path.join(self.root, "status.json")

    # -- locking --------------------------------------------------------------

    @contextlib.contextmanager
    def _write_lock(self) -> Iterator[None]:
        """Advisory cross-process write lock on this campaign's store:
        ``fcntl.flock`` on a dedicated lock file, which dies with its
        holder, so a killed worker can never wedge the store."""
        os.makedirs(self.root, exist_ok=True)
        fd = os.open(self.lock_path, os.O_CREAT | os.O_RDWR, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the fd releases the flock

    # -- index ----------------------------------------------------------------

    def iter_records(self, torn: Optional[list[int]] = None) -> Iterator[RunRecord]:
        """All parseable index records in append order.

        A line that does not parse — in practice the torn trailing line
        a crashed writer leaves behind — is skipped with a warning
        (and its line number appended to ``torn``) instead of wedging
        every subsequent store open.
        """
        if not os.path.exists(self.index_path):
            return
        with open(self.index_path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield RunRecord.from_json(line)
                except (ValueError, TypeError, AttributeError) as exc:
                    if torn is not None:
                        torn.append(lineno)
                    logger.warning(
                        "%s:%d: skipping unparseable index record (%s) — "
                        "torn append from an interrupted writer?",
                        self.index_path, lineno, exc,
                    )

    def latest_records(self) -> dict[str, RunRecord]:
        """Last record per run hash (retries overwrite earlier failures).

        The index only grows, so it is parsed again only when its
        ``(st_size, st_mtime_ns)`` changed since the previous call.
        """
        try:
            stat = os.stat(self.index_path)
        except FileNotFoundError:
            self._latest = None
            return {}
        key = (stat.st_size, stat.st_mtime_ns)
        cached = self._latest
        if cached is None or cached[0] != key:
            latest: dict[str, RunRecord] = {}
            torn: list[int] = []
            for record in self.iter_records(torn):
                latest[record.run_hash] = record
            cached = self._latest = (key, latest, torn)
        return dict(cached[1])

    def torn_lines(self) -> list[int]:
        """Line numbers of the index lines :meth:`latest_records`'s scan
        skipped as unparseable."""
        self.latest_records()
        return list(self._latest[2]) if self._latest else []

    def completed_hashes(self) -> set[str]:
        return {
            h for h, rec in self.latest_records().items()
            if rec.status == COMPLETED
        }

    def append(self, *records: RunRecord) -> None:
        """Thread- and process-safe append of records to the index.

        The encoded records go out in a single ``write`` on an
        ``O_APPEND`` descriptor, so records from concurrent writer
        processes interleave whole, never mid-line.
        """
        with self._lock, self._write_lock():
            now = time.time()
            for record in records:
                record.timestamp = record.timestamp or now
            line = "".join(r.to_json() + "\n" for r in records).encode("utf-8")
            fd = os.open(
                self.index_path, os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o666
            )
            try:
                # Heal a torn trailing append a killed writer left
                # behind: start this record on a fresh line, so the
                # fragment stays an isolated (skippable) line instead
                # of swallowing the new record.  Safe under the write
                # lock; O_APPEND still lands the write at EOF.
                try:
                    end = os.lseek(fd, 0, os.SEEK_END)
                    if end > 0 and os.pread(fd, 1, end - 1) != b"\n":
                        line = b"\n" + line
                except (OSError, AttributeError):  # pragma: no cover
                    pass
                os.write(fd, line)
            finally:
                os.close(fd)

    # -- results --------------------------------------------------------------

    def write_status(self, status: dict[str, Any]) -> str:
        """Atomically publish the campaign-level ``status.json`` heartbeat
        (external tools poll this file; a torn read is impossible)."""
        os.makedirs(self.root, exist_ok=True)
        atomic_write_json(self.status_path, status)
        return self.status_path

    def record_running(
        self,
        *specs: RunSpec,
        owner: Optional[str] = None,
        lease_expires: float = 0.0,
    ) -> list[RunRecord]:
        """Claim markers: a worker is about to execute these runs.

        A trailing ``running`` record (no terminal record after it)
        identifies the runs that were in flight when a worker process
        died.  The campaign service stamps ``owner`` (the claiming
        worker's identity) and ``lease_expires`` (wall-clock lease
        deadline); a fleet lease's markers share both and land in one
        locked append.  A restarted coordinator requeues every run with
        no terminal record, live claim or not — the last record wins —
        and reads :meth:`expired_claims` only for its log line.
        """
        records = [
            RunRecord(run_hash=spec.run_hash(), status=RUNNING,
                      spec=spec.payload(), owner=owner,
                      lease_expires=lease_expires)
            for spec in specs
        ]
        self.append(*records)
        return records

    def claimed_runs(self) -> dict[str, RunRecord]:
        """Run hashes whose *latest* record is a ``running`` claim.

        These are the in-flight (or abandoned) runs: a worker claimed
        them and has not yet written a terminal record.
        """
        return {
            run_hash: record
            for run_hash, record in self.latest_records().items()
            if record.status == RUNNING
        }

    def expired_claims(self, now: Optional[float] = None) -> dict[str, RunRecord]:
        """Trailing claims whose lease has lapsed as of ``now``.

        Old-format claims (written before leases existed) carry
        ``lease_expires == 0.0`` and therefore always report as
        expired — the safe reading, since nothing can be renewing them.
        """
        if now is None:
            now = time.time()
        return {
            run_hash: record
            for run_hash, record in self.claimed_runs().items()
            if record.lease_expires <= now
        }

    def record_completed(
        self,
        spec: RunSpec,
        result: dict[str, Any],
        *,
        elapsed: float = 0.0,
        resumed_from_step: int = 0,
        telemetry: Optional[dict[str, Any]] = None,
        digest: Optional[str] = None,
    ) -> RunRecord:
        """Append the run's completed record, which carries its result,
        its telemetry document, the current :data:`NUMERICS_VERSION` and,
        for a functional run, its state ``digest`` beside this host's
        arithmetic canary."""
        record = RunRecord(
            run_hash=spec.run_hash(),
            status=COMPLETED,
            spec=spec.payload(),
            result=result,
            elapsed=elapsed,
            resumed_from_step=resumed_from_step,
            numerics=NUMERICS_VERSION,
            telemetry=telemetry,
            digest=digest,
            host=None if digest is None else arithmetic_canary(),
        )
        self.append(record)
        return record

    def record_failed(
        self, spec: RunSpec, error: str, *, elapsed: float = 0.0
    ) -> RunRecord:
        record = RunRecord(
            run_hash=spec.run_hash(),
            status=FAILED,
            spec=spec.payload(),
            error=error,
            elapsed=elapsed,
        )
        self.append(record)
        return record

    def load_result(self, run_hash: str) -> Optional[dict[str, Any]]:
        """The result of the run's latest record when that record is
        ``completed``, else ``None``."""
        record = self.latest_records().get(run_hash)
        return record.result if record and record.status == COMPLETED else None

    def load_telemetry(self, run_hash: str) -> Optional[dict[str, Any]]:
        """The telemetry document of the run's latest record when that
        record is ``completed``, else ``None`` (also for a run recorded
        with telemetry off, or before telemetry moved into the index)."""
        record = self.latest_records().get(run_hash)
        return record.telemetry if record and record.status == COMPLETED else None
