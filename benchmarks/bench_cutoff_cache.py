"""Cutoff-solver Verlet-skin cache benchmark — rebuild vs reuse.

Runs the acceptance workload of ISSUE 3: a high-order 64×64 cutoff run
with the spatial-structure cache disabled (``skin = 0``, the paper's
rebuild-every-evaluation pipeline) and enabled (``skin > 0``), and
checks three properties:

* the cached run is **no slower** than the rebuilding one (>= 0.9×,
  fastest of three interleaved runs each; the gate was a 1.5× speedup,
  measured 1.6-1.9×, until the search the cache avoids got ~4× cheaper
  and came to cost what restricting the cached list does; see
  ``PRE_PR13_SECONDS``),
* diagnostics agree to 1e-12 (the cache is numerics-preserving), and
* the cache actually amortizes (reuses dominate rebuilds), with the
  rebuild/reuse counts reported alongside the modeled amortization the
  machine model predicts for the same configuration.

The payload lands in ``results/BENCH_cutoff_cache.json``
(``$REPRO_RESULTS_DIR`` relocates it) and CI uploads it as an artifact.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_cutoff_cache.py -q -s
"""

import time

import numpy as np

from repro import mpi
from repro.core import InitialCondition, Solver, SolverConfig
from repro.machine import LASSEN
from repro.machine.patterns import cutoff_evaluation, step_time

from common import print_series, save_results

#: Acceptance-criterion workload: high-order 64×64 cutoff run.
NODES = 64
CUTOFF = 0.8
SKIN = 0.1
STEPS = 5
RANKS = 1

REPEATS = 3
REQUIRED_SPEEDUP = 0.9
DIAG_RTOL = 1e-12

#: Seconds of both runs at the commit before the cell-list search was
#: made sort-free and L2-resident: median of three rounds, each the
#: fastest of three interleaved runs, on the 2-core reference container
#: (skin_0 4.86-5.63 s, cached 2.62-3.58 s, 1.57-1.85x apart).  Six
#: such rounds after the change measured skin_0 2.34-2.74 s and cached
#: 2.24-2.61 s, 0.98-1.22x apart: 15 searches fell from ~2.5 s to 0.6 s,
#: next to 0.5 s for 15 passes restricting the cached CSR lists (since
#: replaced by narrowing cached chunk lists) and 2.4 s in the numpy CSR
#: kernel both runs shared.  On one rank the cache is now break-even,
#: so the gate only keeps it from becoming a loss; single runs spread
#: 0.88-1.47x on this host, hence the repeats.  Recorded in the payload
#: and printed next to the new seconds, not asserted — seconds from one
#: host do not transfer to a shared runner.
PRE_PR13_SECONDS = {"skin_0": 5.40, "cached": 3.21}

IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=4)


def _config(skin):
    return SolverConfig(
        num_nodes=(NODES, NODES),
        low=(-np.pi, -np.pi), high=(np.pi, np.pi),
        order="high", br_solver="cutoff",
        cutoff=CUTOFF, skin=skin, dt=0.002, eps=0.05,
    )


def _run(skin):
    config = _config(skin)

    def program(comm):
        solver = Solver(comm, config, IC)
        solver.run(STEPS)
        return solver.diagnostics(), solver.neighbor_cache_stats()

    start = time.perf_counter()
    diag, stats = mpi.run_spmd(RANKS, program, timeout=3600.0)[0]
    return time.perf_counter() - start, diag, stats


def test_cutoff_cache_speedup():
    base_runs, cached_runs = [], []
    for _ in range(REPEATS):
        base_runs.append(_run(0.0))
        cached_runs.append(_run(SKIN))
    base_s, base_diag, base_stats = min(base_runs, key=lambda run: run[0])
    cached_s, cached_diag, cached_stats = min(cached_runs, key=lambda run: run[0])
    speedup = base_s / cached_s

    # Numerics-preserving: identical diagnostics to 1e-12.
    for key in ("amplitude", "vorticity_norm", "time", "steps"):
        assert np.isclose(
            cached_diag[key], base_diag[key],
            rtol=DIAG_RTOL, atol=DIAG_RTOL,
        ), f"cache changed diagnostic {key!r}"

    # The cache must actually amortize on this workload.
    assert cached_stats["reuses"] > cached_stats["rebuilds"], cached_stats
    evaluations = 3 * STEPS
    assert base_stats == {"rebuilds": evaluations, "reuses": 0}

    # Modeled view of the same amortization (what campaign scheduling
    # and model-mode runs see).
    def modeled(skin):
        return step_time(cutoff_evaluation(
            RANKS, (NODES, NODES), LASSEN,
            cutoff=CUTOFF, domain_extent=(2 * np.pi, 2 * np.pi), skin=skin,
        ))

    modeled_speedup = modeled(0.0) / modeled(SKIN)
    assert modeled_speedup > 1.0, "machine model misses the amortization"

    payload = {
        "nodes": NODES, "cutoff": CUTOFF, "skin": SKIN,
        "steps": STEPS, "ranks": RANKS, "repeats": REPEATS,
        "seconds": {"skin_0": base_s, "cached": cached_s},
        "all_seconds": {"skin_0": [run[0] for run in base_runs],
                        "cached": [run[0] for run in cached_runs]},
        "pre_pr13_seconds": PRE_PR13_SECONDS,
        "speedup": speedup,
        "modeled_speedup": modeled_speedup,
        "rebuilds": {"skin_0": base_stats["rebuilds"],
                     "cached": cached_stats["rebuilds"]},
        "reuses": {"skin_0": base_stats["reuses"],
                   "cached": cached_stats["reuses"]},
        "diagnostics": {"skin_0": base_diag, "cached": cached_diag},
    }
    path = save_results("BENCH_cutoff_cache", payload)
    print_series(
        f"Cutoff neighbor-structure cache ({NODES}x{NODES} high-order, "
        f"cutoff {CUTOFF}, skin {SKIN})",
        ["variant", "seconds", "pre-PR13 s", "rebuilds", "reuses", "speedup"],
        [
            ["skin=0", base_s, PRE_PR13_SECONDS["skin_0"],
             base_stats["rebuilds"], base_stats["reuses"], 1.0],
            [f"skin={SKIN}", cached_s, PRE_PR13_SECONDS["cached"],
             cached_stats["rebuilds"], cached_stats["reuses"], speedup],
            ["modeled", "-", "-", "-", "-", modeled_speedup],
        ],
    )
    print(f"payload: {path}")

    # Acceptance gate: no slower, with identical diagnostics.
    assert speedup >= REQUIRED_SPEEDUP, (
        f"cutoff cache speedup {speedup:.2f}x < {REQUIRED_SPEEDUP}x"
    )
