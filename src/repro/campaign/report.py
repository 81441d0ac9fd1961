"""Campaign aggregation into figure/table payloads.

Turns a campaign's completed run records into the same shapes the
benchmark harness emits (``benchmarks/common.py``): ``{"header": ...,
"rows": ...}`` tables and row-by-column series grids keyed by any spec
or result field.  Fields are addressed with dotted keys into the run
record — e.g. ``"config.fft_config"``, ``"ranks"``,
``"result.step_time"``, ``"result.diagnostics.amplitude"`` — and
``telemetry.``-prefixed keys reach into the measured telemetry document
the completed record carries (``"telemetry.phase.fft.wall"``,
``"telemetry.metrics.solver.steps"``).
"""

from __future__ import annotations

import collections
import random
import time
from typing import Any, Optional, Sequence

from repro import mpi
from repro.campaign.deck import RunSpec
from repro.campaign.store import COMPLETED, FAILED, RUNNING, CampaignStore, RunRecord
from repro.core.initial_conditions import InitialCondition
from repro.core.solver import (
    NUMERICS_VERSION,
    Solver,
    SolverConfig,
    arithmetic_canary,
    state_digest,
)
from repro.util.errors import ConfigurationError

__all__ = [
    "record_field",
    "completed_records",
    "campaign_table",
    "series_grid",
    "campaign_summary",
    "audit_line",
    "inspect_lines",
    "replay_records",
    "format_table",
]

#: Seed of the record draw :func:`replay_records` makes, so a replay
#: report can be regenerated.
REPLAY_SEED = 0

#: Completed runs the campaign view of :func:`inspect_lines` lists.
SLOWEST = 5

_MISSING = object()


def record_field(record: RunRecord, key: str) -> Any:
    """Resolve a dotted key against a run record.

    The first segment selects ``spec`` fields by default; ``result.``
    addresses the stored result payload, ``telemetry.`` the run's
    measured telemetry document (e.g. ``telemetry.phase.fft.wall``,
    ``telemetry.metrics.solver.steps``), and ``run_hash`` / ``status``
    / ``elapsed`` the record itself.
    """
    if key in ("run_hash", "status", "elapsed", "error", "resumed_from_step"):
        return getattr(record, key)
    parts = key.split(".")
    if parts[0] in ("result", "telemetry"):
        node = getattr(record, parts[0])
        parts = parts[1:]
    else:
        node = record.spec
    # Metrics names themselves contain dots ("solver.steps"), so under
    # "metrics" try the whole remaining key as one flat name first.
    if parts and parts[0] == "metrics" and isinstance(node, dict):
        metrics = node.get("metrics")
        if isinstance(metrics, dict):
            flat = ".".join(parts[1:])
            if flat in metrics:
                return metrics[flat]
    for part in parts:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def completed_records(store: CampaignStore) -> list[RunRecord]:
    """Latest completed record per hash, in stable (hash-sorted) order."""
    latest = store.latest_records()
    return [
        latest[h] for h in sorted(latest)
        if latest[h].status == COMPLETED
    ]


def campaign_table(
    store: CampaignStore,
    columns: Sequence[str],
    *,
    sort_by: Optional[str] = None,
) -> dict[str, Any]:
    """A ``{"header", "rows"}`` payload with one row per completed run."""
    if not columns:
        raise ConfigurationError("campaign_table needs at least one column")
    records = completed_records(store)
    if sort_by is not None:
        records.sort(key=lambda r: _sort_key(record_field(r, sort_by)))
    rows = [[record_field(r, c) for c in columns] for r in records]
    return {"header": list(columns), "rows": rows}


def series_grid(
    store: CampaignStore,
    *,
    row: str,
    col: str,
    value: str,
) -> dict[str, Any]:
    """Pivot completed runs into a dense row × column value grid.

    Returns ``{"row_key", "col_key", "rows", "cols", "grid"}`` where
    ``grid[row_label]`` is the list of values in column order (``None``
    for missing cells).
    """
    records = completed_records(store)
    cells: dict[tuple[Any, Any], Any] = {}
    for record in records:
        r = record_field(record, row)
        c = record_field(record, col)
        cells[(_freeze(r), _freeze(c))] = record_field(record, value)
    rows = sorted({r for r, _ in cells}, key=_sort_key)
    cols = sorted({c for _, c in cells}, key=_sort_key)
    grid = {
        str(r): [cells.get((r, c)) for c in cols]
        for r in rows
    }
    return {
        "row_key": row, "col_key": col, "value_key": value,
        "rows": rows, "cols": cols, "grid": grid,
    }


def campaign_summary(store: CampaignStore) -> dict[str, Any]:
    """Counts and aggregate elapsed time of the campaign so far, and
    the store audit from the same index scan.

    A trailing ``running`` record (a worker claimed the run but never
    wrote a terminal record — killed or interrupted mid-flight) is
    counted as ``interrupted``, not ``failed``: resubmitting the deck
    retries those hashes.  ``torn`` counts the index lines that did not
    parse, ``no_result`` the completed records with an empty result and
    ``stale`` the completed records stamped with another
    :data:`~repro.core.solver.NUMERICS_VERSION` (a deck naming them
    runs them again).
    """
    return _summary(store.campaign, store.latest_records(),
                    len(store.torn_lines()))


def _summary(campaign: str, latest: dict[str, RunRecord], torn: int) -> dict:
    completed = [r for r in latest.values() if r.status == COMPLETED]
    failed = [r for r in latest.values() if r.status == FAILED]
    running = [r for r in latest.values() if r.status == RUNNING]
    return {
        "campaign": campaign,
        "runs": len(latest),
        "completed": len(completed),
        "failed": len(failed),
        "interrupted": len(running),
        "torn": torn,
        "no_result": sum(1 for r in completed if not r.result),
        "stale": sum(1 for r in completed if r.numerics != NUMERICS_VERSION),
        "resumed": sum(1 for r in completed if r.resumed_from_step > 0),
        "elapsed_total": sum(r.elapsed for r in latest.values()),
    }


def audit_line(summary: dict[str, Any], root: str) -> str:
    """The ``store audit:`` line naming every count of a summary."""
    counts = ", ".join(
        f"{summary[key]} {key.replace('_', ' ')}"
        for key in ("completed", "failed", "interrupted", "torn", "no_result",
                    "stale")
    )
    return f"store audit: {summary['runs']} runs in {root}: {counts}"


def inspect_lines(store: CampaignStore, prefix: Optional[str] = None) -> list[str]:
    """What ``rocketrig inspect`` prints, from one scan of the index.

    With ``prefix`` (a unique prefix of a run hash): the run's lineage —
    its scenario and spec, each claim as an attempt, each terminal
    record, and the phase walls, numerics, digest and host of the last
    one.  Without: the store audit, the :data:`SLOWEST` slowest
    completed runs, the runs claimed more than once and the phase
    totals.  An unknown or ambiguous prefix raises ConfigurationError.
    """
    torn: list[int] = []
    records = list(store.iter_records(torn))
    if prefix is None:
        return _campaign_view(store, records, len(torn))
    hashes = sorted({r.run_hash for r in records if r.run_hash.startswith(prefix)})
    if len(hashes) != 1:
        what = f"ambiguous ({len(hashes)} runs)" if hashes else "unknown"
        raise ConfigurationError(
            f"{what} run {prefix!r} in campaign {store.campaign!r}")
    return _lineage([r for r in records if r.run_hash == hashes[0]])


def _lineage(records: list[RunRecord]) -> list[str]:
    spec = records[0].spec
    defaults = RunSpec(SolverConfig(), InitialCondition()).payload()["config"]
    changed = {k: v for k, v in spec.get("config", {}).items()
               if defaults.get(k) != v}
    lines = [
        f"run {records[0].run_hash}",
        f"  scenario: {_fields(spec.get('ic', {}))}",
        f"  spec: {spec.get('mode')}, {spec.get('ranks')} ranks, "
        f"{spec.get('steps')} steps; {_fields(changed)}",
    ]
    attempts = 0
    for r in records:
        if r.status == RUNNING:
            attempts += 1
            deadline = time.strftime("%Y-%m-%d %H:%M:%S",
                                     time.localtime(r.lease_expires))
            lines.append(f"  attempt {attempts}: claimed by {r.owner}, "
                         f"lease until {deadline}")
        else:
            error = f"; {r.error.strip().splitlines()[-1]}" if r.error else ""
            lines.append(f"  {r.status} in {r.elapsed:.3g} s, resumed from "
                         f"step {r.resumed_from_step}{error}")
    last = records[-1]
    if last.status == RUNNING:
        lines.append("  no terminal record: interrupted, or still running")
    walls = _phase_walls([last])
    lines.append(f"  phases: {_fields(walls, ' s') or 'none recorded'}")
    lines.append(f"  numerics {last.numerics}, digest {last.digest}, "
                 f"host {last.host}")
    return lines


def _campaign_view(store: CampaignStore, records: list[RunRecord],
                   torn: int) -> list[str]:
    latest = {r.run_hash: r for r in records}
    done = sorted((r for r in latest.values() if r.status == COMPLETED),
                  key=lambda r: -r.elapsed)
    claims = collections.Counter(r.run_hash for r in records
                                 if r.status == RUNNING)
    again = ", ".join(f"{h} ({n}x)" for h, n in claims.most_common() if n > 1)
    return [
        audit_line(_summary(store.campaign, latest, torn), store.root),
        f"slowest {min(SLOWEST, len(done))} completed runs:",
        *(f"  {r.run_hash}  {r.elapsed:.3g} s" for r in done[:SLOWEST]),
        f"claimed more than once: {again or 'none'}",
        f"phase totals: {_fields(_phase_walls(done), ' s') or 'none recorded'}",
    ]


def _phase_walls(records: list[RunRecord]) -> dict[str, float]:
    """Each phase's wall summed over the records' telemetry, largest
    first."""
    walls: collections.Counter[str] = collections.Counter()
    for r in records:
        for name, doc in ((r.telemetry or {}).get("phase") or {}).items():
            walls[name] += doc.get("wall", 0.0)
    return dict(walls.most_common())


def _fields(values: dict[str, Any], unit: str = "") -> str:
    return ", ".join(f"{k} {_fmt(v)}{unit}" if unit else f"{k}={v}"
                     for k, v in values.items())


def replay_records(store: CampaignStore, k: int) -> dict[str, Any]:
    """Re-run ``k`` completed functional runs in this process and
    compare each :func:`~repro.core.solver.state_digest` with the one
    its record holds.  Reads the store, never writes it.

    Only records computed under this ``NUMERICS_VERSION`` on a host with
    this :func:`~repro.core.solver.arithmetic_canary` are drawn (by
    :data:`REPLAY_SEED`, from the eligible records in run-hash order);
    the others are counted in ``skipped`` by reason.  On the same
    version and host a replay is bitwise its record, so every entry of
    ``mismatched`` (``(run_hash, stored, replayed)``) is a bug, not a
    repair.
    """
    host = arithmetic_canary()
    eligible: list[tuple[str, RunSpec, str]] = []
    skipped: collections.Counter[str] = collections.Counter()
    for run_hash, record in sorted(store.latest_records().items()):
        if record.status != COMPLETED or record.spec.get("mode") == "model":
            continue
        if record.numerics != NUMERICS_VERSION:
            skipped[f"numerics {record.numerics} ≠ {NUMERICS_VERSION}"] += 1
        elif record.host != host:
            skipped[f"host {record.host} ≠ {host}"] += 1
        else:
            try:
                eligible.append(
                    (run_hash, RunSpec.from_payload(record.spec), record.digest)
                )
            except ConfigurationError as exc:
                skipped[f"spec no longer loads: {exc}"] += 1
    drawn = random.Random(REPLAY_SEED).sample(eligible, min(k, len(eligible)))
    mismatched = []
    for run_hash, spec, stored in drawn:
        try:
            replayed = _final_digest(spec)
        except Exception as exc:
            replayed = f"{type(exc).__name__}: {exc}"
        if replayed != stored:
            mismatched.append((run_hash, stored, replayed))
    return {"eligible": len(eligible), "replayed": len(drawn),
            "mismatched": mismatched, "skipped": dict(skipped)}


def _final_digest(spec: RunSpec) -> str:
    """State digest of the final owned ``z`` / ``w`` of a fresh run, in
    rank order — what a completed record's ``digest`` holds."""

    def program(comm):
        solver = Solver(comm, spec.config, spec.ic)
        solver.run(spec.steps)
        return solver.pm.z.own, solver.pm.w.own

    ranks = mpi.run_spmd(spec.ranks, program)
    return state_digest(*(a for rank in ranks for a in rank))


def format_table(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width rendering (same look as the benchmark harness)."""
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    lines = ["  ".join(str(h).rjust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _freeze(value: Any) -> Any:
    return tuple(value) if isinstance(value, list) else value


def _sort_key(value: Any) -> tuple:
    # Mixed-type sort: numbers first in numeric order, then everything
    # else by string form.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return (1, str(value))
    return (0, value)
