"""Telemetry overhead gate — instrumented vs NullTelemetry wall time.

Runs the acceptance workload of ISSUE 6: the exact-BR 64×64 high-order
deck, once per repeat with the untimed ``NullTrace`` fast path (what
every run pays when telemetry is off) and once with a full timed
``CommTrace`` recording spans, stamps, and metrics.  Gates:

* median instrumented wall time is **<= 5%** over the median baseline,
* the instrumented run actually recorded telemetry (spans for every
  phase, non-empty metrics snapshot), and
* diagnostics are bit-identical — telemetry must never perturb numerics.

The gates measure the ``numpy`` reference engine, passed explicitly,
as they always have.  The same measurement on the ``blocked`` engine
every solve uses is printed and saved as an ungated row: its shorter
steps leave the fixed telemetry cost a larger and noisier share.

The payload lands in ``results/BENCH_telemetry.json``
(``$REPRO_RESULTS_DIR`` relocates it) with a model-vs-measured drift
report sampled from the last instrumented repeat, and CI uploads it as
an artifact.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_telemetry.py -q -s
"""

import statistics
import time

import numpy as np

from repro import mpi
from repro.core import InitialCondition, Solver, SolverConfig
from repro.machine import LASSEN
from repro.telemetry import drift_report, format_drift_table

from common import print_series, save_results

#: Acceptance-criterion workload: high-order 64×64 exact-BR run.
NODES = 64
STEPS = 3
RANKS = 1
REPEATS = 5

#: Overhead bound from the issue: the NullTelemetry fast path must keep
#: a fully-instrumented run within 5% of the untimed one.
MAX_OVERHEAD = 0.05

#: The engine the gate measures, and the one measured alongside, ungated.
GATED_ENGINE = "numpy"
UNGATED_ENGINE = "blocked"

IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=4)

CONFIG = SolverConfig(
    num_nodes=(NODES, NODES),
    low=(-np.pi, -np.pi), high=(np.pi, np.pi),
    order="high", br_solver="exact",
    dt=0.002, eps=0.05,
)


def _run(trace, backend):
    def program(comm):
        solver = Solver(comm, CONFIG, IC, backend=backend)
        solver.run(STEPS)
        return solver.diagnostics()

    start = time.perf_counter()
    diag = mpi.run_spmd(RANKS, program, trace=trace, timeout=3600.0)[0]
    return time.perf_counter() - start, diag


def _measure(backend):
    """Interleaved null / instrumented repeats on one engine: the
    per-variant seconds, their medians, the overhead and the last
    instrumented trace."""
    # Warm up JIT-ish one-time costs (FFT plans, import side effects) so
    # neither variant pays them inside a timed repeat.
    _run(None, backend)

    base_times, instr_times = [], []
    base_diag = instr_diag = None
    trace = None
    # Interleave the variants so slow drift of the host (thermal, other
    # tenants) hits both distributions equally.
    for _ in range(REPEATS):
        seconds, base_diag = _run(None, backend)
        base_times.append(seconds)
        trace = mpi.CommTrace()
        seconds, instr_diag = _run(trace, backend)
        instr_times.append(seconds)

    # Telemetry must never perturb numerics.
    for key in ("amplitude", "vorticity_norm", "time", "steps"):
        assert instr_diag[key] == base_diag[key], (
            f"{backend}: telemetry changed diagnostic {key!r}"
        )
    base_s = statistics.median(base_times)
    instr_s = statistics.median(instr_times)
    return {
        "seconds": {"null": base_times, "instrumented": instr_times},
        "median_seconds": {"null": base_s, "instrumented": instr_s},
        "overhead": instr_s / base_s - 1.0,
    }, trace


def test_telemetry_overhead():
    gated, trace = _measure(GATED_ENGINE)
    ungated, _ = _measure(UNGATED_ENGINE)
    base_s = gated["median_seconds"]["null"]
    instr_s = gated["median_seconds"]["instrumented"]
    overhead = gated["overhead"]

    # The instrumented run must actually have measured something.  The
    # "unphased" bucket collects events recorded outside any phase()
    # context, so it has events but no span wall.
    phases = trace.phases()
    walls = trace.phase_walls()
    assert phases and walls, (phases, walls)
    assert all(p in walls for p in phases if p != "unphased"), (phases, walls)
    metrics = trace.metrics.snapshot()
    assert metrics.get("solver.steps") == STEPS, metrics

    drift = drift_report(trace, LASSEN)

    payload = {
        "nodes": NODES, "steps": STEPS, "ranks": RANKS,
        "repeats": REPEATS,
        "engine": GATED_ENGINE,
        **gated,
        "max_overhead": MAX_OVERHEAD,
        "ungated": {UNGATED_ENGINE: ungated},
        "spans": len(trace.spans),
        "metrics": metrics,
        "drift": drift,
    }
    path = save_results("BENCH_telemetry", payload)
    print_series(
        f"Telemetry overhead ({NODES}x{NODES} high-order exact BR, "
        f"{STEPS} steps, median of {REPEATS})",
        ["variant", "engine", "seconds", "overhead"],
        [
            ["NullTelemetry", GATED_ENGINE, base_s, "-"],
            ["CommTrace", GATED_ENGINE, instr_s, f"{overhead:+.2%}"],
            ["NullTelemetry", f"{UNGATED_ENGINE} (ungated)",
             ungated["median_seconds"]["null"], "-"],
            ["CommTrace", f"{UNGATED_ENGINE} (ungated)",
             ungated["median_seconds"]["instrumented"],
             f"{ungated['overhead']:+.2%}"],
        ],
    )
    print(format_drift_table(drift))
    print(f"payload: {path}")

    # Acceptance gate: instrumentation stays within 5% of the fast path.
    assert overhead <= MAX_OVERHEAD, (
        f"telemetry overhead {overhead:+.2%} exceeds {MAX_OVERHEAD:.0%}"
    )
