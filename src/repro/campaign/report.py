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
from typing import Any, Optional, Sequence

from repro import mpi
from repro.campaign.deck import RunSpec
from repro.campaign.store import COMPLETED, FAILED, RUNNING, CampaignStore, RunRecord
from repro.core.solver import (
    NUMERICS_VERSION,
    Solver,
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
    "replay_records",
    "format_table",
]

#: Seed of the record draw :func:`replay_records` makes, so a replay
#: report can be regenerated.
REPLAY_SEED = 0

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
    latest = store.latest_records()
    completed = [r for r in latest.values() if r.status == COMPLETED]
    failed = [r for r in latest.values() if r.status == FAILED]
    running = [r for r in latest.values() if r.status == RUNNING]
    return {
        "campaign": store.campaign,
        "runs": len(latest),
        "completed": len(completed),
        "failed": len(failed),
        "interrupted": len(running),
        "torn": len(store.torn_lines()),
        "no_result": sum(1 for r in completed if not r.result),
        "stale": sum(1 for r in completed if r.numerics != NUMERICS_VERSION),
        "resumed": sum(1 for r in completed if r.resumed_from_step > 0),
        "elapsed_total": sum(r.elapsed for r in latest.values()),
    }


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
