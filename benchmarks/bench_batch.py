"""Batched fleet engine benchmark — many small interfaces per kernel call.

Runs the acceptance workload of ISSUE 7: a 64-scenario deck of 32x32
low-order interfaces (an Atwood x eps_factor parameter sweep), once
sequentially — each scenario through the full solo ``Solver`` stack via
``mpi.run_spmd(1, ...)``, exactly what the campaign executor's serial
path does per run — and once through one ``ScenarioFleet`` advancing
the whole deck in lockstep, and checks:

* **fleet throughput is >= 2x sequential throughput** (scenario-steps
  per second).  At 32x32 a solo step is dominated by Python dispatch
  — dozens of tiny kernel launches each touching a few kB — while the
  fleet pays that dispatch once per RK3 stage for all 64 scenarios;
* **solo-vs-fleet parity on both engines** (the ``blocked`` engine
  every run uses and the ``numpy`` reference): for one probe
  scenario per engine, the final owned ``z``/``w`` arrays and the
  diagnostics dict of a fleet-stepped run match the solo run to 1e-12
  (elementwise max-abs).  The fleet runs the probe alongside decoy
  scenarios so cross-contamination through the stacked arrays would be
  caught.

The payload lands in ``results/BENCH_batch.json`` (``REPRO_RESULTS_DIR``
relocates it) and CI uploads it as an artifact alongside the other
bench gates.  It is written *before* the gate assertions so a failing
gate still leaves the measurements on disk.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_batch.py -q -s
"""

import time

import numpy as np

from repro import mpi
from repro.batch import ScenarioFleet
from repro.campaign import CampaignDeck
from repro.core.solver import Solver

from common import print_series, save_results

#: 64 scenarios: 16 Atwood numbers x 4 desingularization factors on a
#: shared 32x32 low-order grid, on the blocked engine every run uses.
DECK = {
    "name": "bench_batch",
    "mode": "functional",
    "steps": 10,
    "base": {"order": "low", "num_nodes": [32, 32], "dt": 0.002},
    "ic": {"kind": "multi_mode", "magnitude": 0.05, "period": 3},
    "grid": {
        "atwood": [round(0.05 + 0.055 * i, 4) for i in range(16)],
        "eps_factor": [0.5, 0.75, 1.0, 1.25],
    },
}

SPEEDUP_GATE = 2.0
PARITY_TOL = 1e-12


def _solo_final(spec, backend=None):
    """Final (diagnostics, z_own, w_own) of one spec through run_spmd."""

    def program(comm):
        solver = Solver(comm, spec.config, spec.ic, backend=backend)
        solver.run(spec.steps)
        return (
            solver.diagnostics(),
            solver.pm.z.own.copy(),
            solver.pm.w.own.copy(),
        )

    return mpi.run_spmd(1, program)[0]


def _sequential_wall(specs):
    start = time.perf_counter()
    for spec in specs:
        _solo_final(spec)
    return time.perf_counter() - start


def _fleet_wall(specs):
    fleet = ScenarioFleet(specs[0].config)
    fleet.add_many([(s.config, s.ic, s.steps) for s in specs])
    start = time.perf_counter()
    fleet.run()
    return time.perf_counter() - start, fleet


def _parity_rows(specs):
    """Max |solo - fleet| for one probe scenario on each engine."""
    rows = []
    for backend in ("numpy", "blocked"):
        probe = specs[0]
        fleet = ScenarioFleet(probe.config, retain_state=True, backend=backend)
        sid = fleet.add(probe.config, probe.ic, probe.steps)
        for decoy in specs[1:4]:
            fleet.add(decoy.config, decoy.ic, decoy.steps)
        results = fleet.run()

        diag, z_solo, w_solo = _solo_final(probe, backend)
        got = results[sid]
        dz = float(np.max(np.abs(got["z"] - z_solo)))
        dw = float(np.max(np.abs(got["w"] - w_solo)))
        ddiag = max(
            abs(got["diagnostics"][k] - diag[k]) for k in diag
        )
        rows.append(
            {"backend": backend, "dz": dz, "dw": dw, "ddiag": float(ddiag)}
        )
    return rows


def test_fleet_speedup_and_parity():
    deck = CampaignDeck.from_dict(DECK)
    specs = deck.expand()
    assert len(specs) == 64
    scenario_steps = sum(s.steps for s in specs)

    # Warm both paths once (imports, FFT plan caches, allocator).
    _solo_final(specs[0])
    seq_wall = _sequential_wall(specs)
    fleet_wall, fleet = _fleet_wall(specs)

    seq_rate = scenario_steps / seq_wall
    fleet_rate = scenario_steps / fleet_wall
    speedup = seq_wall / fleet_wall
    parity = _parity_rows(specs)

    payload = {
        "scenarios": len(specs),
        "steps_per_scenario": DECK["steps"],
        "grid": DECK["base"]["num_nodes"],
        "backend": "blocked",
        "sequential_wall_s": seq_wall,
        "fleet_wall_s": fleet_wall,
        "sequential_rate_sps": seq_rate,
        "fleet_rate_sps": fleet_rate,
        "speedup": speedup,
        "speedup_gate": SPEEDUP_GATE,
        "fleet_steps": fleet.fleet_steps,
        "parity_tol": PARITY_TOL,
        "parity": parity,
    }
    save_results("BENCH_batch", payload)

    print_series(
        "Fleet vs sequential (64 scenarios, 32x32, 10 steps)",
        ["path", "wall [s]", "scenario-steps/s"],
        [
            ["sequential", f"{seq_wall:.3f}", f"{seq_rate:.1f}"],
            ["fleet", f"{fleet_wall:.3f}", f"{fleet_rate:.1f}"],
            ["speedup", f"{speedup:.2f}x", f"gate >= {SPEEDUP_GATE}x"],
        ],
    )
    print_series(
        "Solo-vs-fleet parity (max abs difference)",
        ["backend", "dz", "dw", "ddiag"],
        [
            [r["backend"], f"{r['dz']:.3e}", f"{r['dw']:.3e}",
             f"{r['ddiag']:.3e}"]
            for r in parity
        ],
    )

    for r in parity:
        assert r["dz"] <= PARITY_TOL, r
        assert r["dw"] <= PARITY_TOL, r
        assert r["ddiag"] <= PARITY_TOL, r
    assert speedup >= SPEEDUP_GATE, (
        f"fleet speedup {speedup:.2f}x below the {SPEEDUP_GATE}x gate "
        f"(sequential {seq_wall:.3f}s vs fleet {fleet_wall:.3f}s)"
    )
