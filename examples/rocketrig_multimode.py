#!/usr/bin/env python
"""The paper's Figure 1 scenario: multi-mode periodic rocket rig.

Loads the ``multimode-periodic`` scenario pack — the
bandwidth-stressing benchmark problem of paper §4: a random multi-mode
initial interface on the low-order (FFT) solver — and runs it on 4
simulated ranks, writing VTK surface dumps colored by vorticity
magnitude (what Figure 1 visualizes).  The physics lives in
``scenarios/multimode-periodic.json``; this script adds the
communication-trace analysis: the all-to-all structure of the
distributed FFT plus the halo exchanges, replayed through the
Lassen-like machine model.

Run:  python examples/rocketrig_multimode.py [output_dir]
"""

import sys

from repro import mpi
from repro.core import SiloWriter, Solver
from repro.machine import LASSEN, replay_trace
from repro.scenarios import get_scenario


def main(outdir: str = "results/multimode") -> None:
    pack = get_scenario("multimode-periodic")
    spec = pack.expand()[0]
    config = spec.config
    ranks, steps = spec.ranks, spec.steps
    print(f"scenario: {pack.name} [{pack.family}] {spec.describe()} "
          f"({pack.citation()})")
    trace = mpi.CommTrace()
    writer = SiloWriter(outdir, "multimode")

    def program(comm):
        solver = Solver(comm, config, spec.ic)
        solver.run(steps, writer=writer, write_freq=10)
        return solver.diagnostics()

    results = mpi.run_spmd(ranks, program, trace=trace)
    print(f"ran {steps} steps on {ranks} ranks: {results[0]}")
    print(f"VTK dumps: {writer.written}")

    # Communication structure: the low-order solver is all-to-all heavy.
    a2a = trace.message_count(kind="alltoallv")
    halo = trace.message_count(kind="send")
    print(f"alltoallv collectives: {a2a}, point-to-point messages: {halo}")

    # What would this cost on the Lassen-like machine model?
    replay = replay_trace(trace, LASSEN)
    for phase, cost in replay.phases.items():
        print(f"  modeled {phase:>10}: comm {cost.comm*1e3:8.3f} ms  "
              f"compute {cost.compute*1e3:8.3f} ms")
    print(f"  modeled total: {replay.total*1e3:.2f} ms for {steps} steps")


if __name__ == "__main__":
    main(*sys.argv[1:2])
