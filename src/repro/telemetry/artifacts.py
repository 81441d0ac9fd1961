"""Per-run telemetry documents and the atomic-JSON write primitive.

A *telemetry document* is the flat JSON object a completed campaign
run's index record carries as its ``telemetry`` field.  It flattens a
run's timed :class:`~repro.mpi.trace.CommTrace` — per-phase wall
clocks, kernel wall totals, comm/compute event counts — together with
the run's metrics-registry snapshot into one object that
``campaign.report`` can address with dotted keys
(``telemetry.phase.fft.wall``, ``telemetry.metrics.solver.steps``).

:func:`atomic_write_json` is how the telemetry layer writes JSON
(through :func:`repro.util.misc.atomic_write`, the one durable-write
primitive checkpoints use too), so exporters and status heartbeats
cannot drift apart.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.util.misc import atomic_write

__all__ = [
    "TELEMETRY_SCHEMA",
    "atomic_write_json",
    "build_run_telemetry",
]

#: Schema tag stamped into every telemetry artifact so downstream
#: tooling can detect format changes.
TELEMETRY_SCHEMA = "repro.telemetry/1"


def atomic_write_json(path: str, payload: Any, *, indent: int = 2) -> None:
    """Write ``payload`` as JSON to ``path`` atomically
    (:func:`~repro.util.misc.atomic_write`): readers (status pollers,
    report generators, other processes) never observe a torn file, and
    a crash mid-write leaves the previous version intact.
    """
    text = json.dumps(payload, indent=indent, sort_keys=True, default=str)
    atomic_write(path, lambda fh: fh.write((text + "\n").encode("utf-8")))


def build_run_telemetry(
    trace,
    *,
    elapsed: Optional[float] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Flatten a timed trace (+ its metrics registry) into a run's
    telemetry document.

    Layout::

        {
          "schema": "repro.telemetry/1",
          "elapsed": 1.23,                      # run wall-clock, if known
          "phase": {"fft": {"wall": .., "wall_by_rank": {"0": ..},
                            "comm_events": n, "compute_events": n}, ...},
          "kernel": {"br_pairs": {"wall": .., "count": n}, ...},
          "events": {"comm": n, "compute": n, "spans": n},
          "metrics": {"solver.steps": 40, ...},
        }

    ``phase.<name>.wall`` is the slowest rank's measured self-time
    (the maximum over :meth:`~repro.mpi.trace.CommTrace.phase_walls`), the
    BSP-consistent counterpart of the machine model's phase time —
    which is what makes ``telemetry.phase.X.wall`` directly comparable
    with modeled drift reports.  An untimed/Null trace produces an
    honest, mostly-empty document rather than failing.
    """
    walls = trace.phase_walls()
    comm_events = trace.events
    compute_events = trace.compute_events

    phase_doc: Dict[str, Any] = {}
    phase_names = list(walls)
    for name in trace.phases():
        if name not in phase_names:
            phase_names.append(name)
    for name in phase_names:
        per_rank = walls.get(name, {})
        phase_doc[name] = {
            "wall": max(per_rank.values()) if per_rank else 0.0,
            "wall_by_rank": {str(r): t for r, t in sorted(per_rank.items())},
            "comm_events": sum(1 for ev in comm_events if ev.phase == name),
            "compute_events": sum(
                1 for ev in compute_events if ev.phase == name
            ),
        }

    kernel_doc: Dict[str, Any] = {}
    for cev in compute_events:
        bucket = kernel_doc.setdefault(cev.kernel, {"wall": 0.0, "count": 0})
        bucket["count"] += 1
        if cev.t_wall is not None:
            bucket["wall"] += cev.t_wall

    doc: Dict[str, Any] = {
        "schema": TELEMETRY_SCHEMA,
        "phase": phase_doc,
        "kernel": kernel_doc,
        "events": {
            "comm": len(comm_events),
            "compute": len(compute_events),
            "spans": len(trace.spans),
        },
        "metrics": trace.metrics.snapshot(),
    }
    if elapsed is not None:
        doc["elapsed"] = float(elapsed)
    if extra:
        doc.update(extra)
    return doc
