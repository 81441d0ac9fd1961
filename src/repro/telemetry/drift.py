"""Model-vs-measured drift reports.

The machine model (:mod:`repro.machine.replay`) predicts per-phase time
from first principles; a timed :class:`~repro.mpi.trace.CommTrace`
measures it.  The *drift report* puts the two side by side, per phase:

* **modeled** — BSP phase time from ``replay_trace`` (slowest rank's
  accumulated α-β comm + roofline compute);
* **measured** — the slowest rank's summed span self-time
  (the maximum over :meth:`~repro.mpi.trace.CommTrace.phase_walls`), the directly
  comparable BSP quantity;
* **drift** — measured − modeled, and the measured/modeled ratio.

Interpretation: a ratio near 1 on a machine spec describing *this*
host means the model is trustworthy for scaling extrapolation; a large
ratio on the Lassen spec is expected (you are not running on Lassen)
but should be *stable* across phases — phase-dependent drift flags a
mis-modeled pattern, not a slower machine.  ``rocketrig --profile``
prints the table and ``benchmarks/bench_telemetry.py`` archives one in
``BENCH_telemetry.json``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.machine.model import MachineSpec
from repro.machine.replay import replay_trace

__all__ = ["drift_report", "format_drift_table"]


def drift_report(trace, spec: MachineSpec) -> Dict[str, Any]:
    """Per-phase modeled vs measured times of a timed trace on ``spec``.

    Returns ``{"machine": name, "phases": [{"phase", "modeled",
    "measured", "drift", "ratio"}, ...], "total": {...}}`` with phases
    in trace order.  ``ratio`` is ``None`` where the model predicts
    zero time (nothing to divide by), and phases that only ever
    measured zero (untimed trace) keep ``measured=0.0`` so the report
    degrades gracefully rather than failing.
    """
    result = replay_trace(trace, spec)
    walls = trace.phase_walls()

    names: List[str] = list(result.phases)
    for name in walls:
        if name not in names:
            names.append(name)

    rows: List[Dict[str, Any]] = []
    total_modeled = 0.0
    total_measured = 0.0
    for name in names:
        modeled = result.phases[name].total if name in result.phases else 0.0
        per_rank = walls.get(name, {})
        measured = max(per_rank.values()) if per_rank else 0.0
        total_modeled += modeled
        total_measured += measured
        rows.append(
            {
                "phase": name,
                "modeled": modeled,
                "measured": measured,
                "drift": measured - modeled,
                "ratio": (measured / modeled) if modeled > 0 else None,
            }
        )

    return {
        "machine": spec.name,
        "nranks": result.nranks,
        "phases": rows,
        "total": {
            "modeled": total_modeled,
            "measured": total_measured,
            "drift": total_measured - total_modeled,
            "ratio": (
                (total_measured / total_modeled) if total_modeled > 0 else None
            ),
        },
    }


def format_drift_table(report: Dict[str, Any]) -> str:
    """Render a drift report as the aligned text table ``rocketrig
    --profile`` prints."""
    header = (
        f"model-vs-measured drift on '{report['machine']}' "
        f"({report['nranks']} ranks)"
    )
    lines = [
        header,
        f"{'phase':<14} {'modeled':>12} {'measured':>12} "
        f"{'drift':>12} {'ratio':>8}",
    ]
    rows = list(report["phases"]) + [dict(report["total"], phase="TOTAL")]
    for row in rows:
        ratio = row.get("ratio")
        ratio_s = f"{ratio:8.2f}" if ratio is not None else f"{'-':>8}"
        lines.append(
            f"{row['phase']:<14} {row['modeled']:>12.6f} "
            f"{row['measured']:>12.6f} {row['drift']:>+12.6f} {ratio_s}"
        )
    return "\n".join(lines)
