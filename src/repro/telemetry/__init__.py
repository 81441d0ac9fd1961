"""Measurement layer: spans, metrics, exporters and drift reports.

``repro.telemetry`` is the *measured* counterpart of the *modeled*
performance stack (:mod:`repro.machine`).  It provides:

* :mod:`repro.telemetry.metrics` — counters/gauges/histograms published
  by solver, neighbor-cache, tree and campaign code, and the
  ``NullMetrics`` disabled path;
* :mod:`repro.telemetry.perfetto` — Chrome-trace-event export of a
  timed :class:`~repro.mpi.trace.CommTrace` (one track per rank, phase
  spans, comm instants with send→recv flow arrows), the format behind
  ``rocketrig --profile``;
* :mod:`repro.telemetry.artifacts` — the flat per-run telemetry
  document a completed campaign record carries, and the
  mkstemp+fsync+``os.replace`` atomic JSON writer shared by exporters
  and status heartbeats;
* :mod:`repro.telemetry.drift` — per-phase model-vs-measured drift
  reports (imported lazily: drift depends on :mod:`repro.machine`,
  which depends on :mod:`repro.mpi.trace`, which depends on this
  package's metrics module — eager import would close that cycle).

See ``docs/observability.md`` for the end-to-end walkthrough.
"""

from __future__ import annotations

from repro.telemetry.artifacts import (
    TELEMETRY_SCHEMA,
    atomic_write_json,
    build_run_telemetry,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.telemetry.perfetto import (
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "TELEMETRY_SCHEMA",
    "atomic_write_json",
    "build_run_telemetry",
    "chrome_trace_events",
    "validate_chrome_trace",
    "write_chrome_trace",
    "drift_report",
    "format_drift_table",
]


def __getattr__(name: str):
    # Lazy: repro.telemetry.drift -> repro.machine.replay ->
    # repro.mpi.trace -> repro.telemetry.metrics.  Importing drift at
    # package-import time would close the cycle.
    if name in ("drift_report", "format_drift_table"):
        from repro.telemetry import drift

        return getattr(drift, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
