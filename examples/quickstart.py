#!/usr/bin/env python
"""Quickstart: a serial low-order rocket-rig run in ~20 lines.

Loads the ``multimode-quickstart`` scenario pack — a small multi-mode
Rayleigh-Taylor interface on the FFT-based low-order Z-Model solver —
from the scenario registry and prints the growth of the interface
amplitude, the simplest end-to-end use of the library.  The pack (in
``scenarios/multimode-quickstart.json``) carries the geometry, solver
parameters and initial condition; ``rocketrig --scenario
multimode-quickstart`` runs the same workload from the command line.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import mpi
from repro.core import Solver
from repro.scenarios import get_scenario


def main() -> None:
    pack = get_scenario("multimode-quickstart")
    spec = pack.expand()[0]
    config = spec.config
    print(f"scenario: {pack.name} [{pack.family}] {spec.describe()} "
          f"({pack.citation()})")

    comm = mpi.single_rank_comm()          # serial: no rank threads
    solver = Solver(comm, config, spec.ic)
    print(f"mesh: {config.num_nodes}, dt = {solver.dt:.5f}")
    print(f"{'step':>6} {'time':>9} {'amplitude':>12} {'|vorticity|':>12}")
    for _ in range(spec.steps // 5):
        solver.run(5)
        d = solver.diagnostics()
        print(
            f"{solver.step_count:6d} {d['time']:9.4f} "
            f"{d['amplitude']:12.6f} {d['vorticity_norm']:12.6f}"
        )
    assert np.isfinite(solver.diagnostics()["amplitude"])
    print("done: the interface grows under the Rayleigh-Taylor instability.")


if __name__ == "__main__":
    main()
