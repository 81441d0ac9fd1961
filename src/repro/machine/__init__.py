"""Machine performance model (the stand-in for the Lassen testbed).

Combines a LogGP-style machine description (:mod:`repro.machine.model`),
collective-algorithm cost models (:mod:`repro.machine.collectives`),
trace replay (:mod:`repro.machine.replay`) and analytic paper-scale
pattern generators (:mod:`repro.machine.patterns`).  The benchmark
harness uses these to regenerate the paper's 4→1024-GPU scaling
figures.
"""

from repro.machine.collectives import (
    allgather_time,
    allreduce_time,
    alltoallv_time,
    barrier_time,
    collective_time,
    gather_time,
)
from repro.machine.model import LASSEN, MachineSpec
from repro.machine.patterns import (
    EvaluationModel,
    PhaseCost,
    cutoff_evaluation,
    exact_evaluation,
    exact_hop_counts,
    fft_hop_counts,
    fft_phase,
    halo_phase,
    low_order_evaluation,
    stencil_phase,
    step_time,
    tree_evaluation,
)
from repro.machine.replay import kernel_breakdown, replay_trace

__all__ = [
    "LASSEN",
    "MachineSpec",
    "allgather_time",
    "allreduce_time",
    "alltoallv_time",
    "barrier_time",
    "collective_time",
    "gather_time",
    "EvaluationModel",
    "PhaseCost",
    "cutoff_evaluation",
    "exact_evaluation",
    "exact_hop_counts",
    "fft_hop_counts",
    "fft_phase",
    "halo_phase",
    "low_order_evaluation",
    "stencil_phase",
    "step_time",
    "tree_evaluation",
    "kernel_breakdown",
    "replay_trace",
]
