#!/usr/bin/env python
"""The paper's Figure 2 scenario: single-mode non-periodic rocket rig.

Loads the ``singlemode-rollup`` scenario pack — the load-imbalance
benchmark problem of paper §4: a single-mode perturbation with free
boundaries whose center rolls up as time advances, skewing the spatial
ownership of points (the mechanism behind the paper's Figures 6/7) —
and runs the high-order cutoff Birkhoff-Rott solver on 4 simulated
ranks.  The physics lives in ``scenarios/singlemode-rollup.json``; this
script adds what a pack can't express: the fine-grained 256-block
ownership census early and late in the run.

Run:  python examples/rocketrig_singlemode.py [output_dir]
"""

import sys

import numpy as np

from repro import mpi
from repro.core import SiloWriter, Solver, ownership_stats
from repro.scenarios import get_scenario
from repro.spatial import SpatialMesh


def main(outdir: str = "results/singlemode") -> None:
    pack = get_scenario("singlemode-rollup")
    spec = pack.expand()[0]
    config = spec.config
    ranks, steps = spec.ranks, spec.steps
    print(f"scenario: {pack.name} [{pack.family}] {spec.describe()} "
          f"({pack.citation()})")
    writer = SiloWriter(outdir, "singlemode")

    # Fine-grained virtual decomposition (256 blocks), the granularity
    # the paper's Figures 6/7 plot: 4 symmetric rank-blocks would hide
    # the skew (the single mode is quadrant-symmetric).
    fine_mesh = SpatialMesh((-1.0, -1.0, -1.5), (1.0, 1.0, 1.5), (16, 16))

    def fine_counts(positions):
        return np.bincount(fine_mesh.owner_of(positions), minlength=256)

    def program(comm):
        solver = Solver(comm, config, spec.ic)
        solver.step()
        early_pos = np.concatenate(
            comm.allgather(solver.pm.z.own.reshape(-1, 3))
        )
        solver.run(steps - 1, writer=writer, write_freq=steps // 2)
        late_pos = np.concatenate(
            comm.allgather(solver.pm.z.own.reshape(-1, 3))
        )
        return fine_counts(early_pos), fine_counts(late_pos), solver.diagnostics()

    results = mpi.run_spmd(ranks, program, timeout=600.0)
    early, late, diag = results[0]
    print(f"ran {steps} steps on {ranks} ranks: {diag}")
    print(f"VTK dumps: {writer.written}")

    s_early, s_late = ownership_stats(early), ownership_stats(late)
    print("\nspatial ownership over 256 virtual blocks (Figures 6/7 view):")
    print(f"  early: {s_early.describe()}")
    print(f"  late:  {s_late.describe()}")
    if s_late.spread > s_early.spread:
        print("  -> rollup has skewed the spatial load, as in the paper.")


if __name__ == "__main__":
    main(*sys.argv[1:2])
