"""Trace replay: CommTrace → modeled wall-clock time on a MachineSpec.

Converts the events recorded by a functional SPMD run into per-phase,
per-rank times and a total runtime under a bulk-synchronous (BSP)
execution model: within each solver phase the slowest rank sets the
pace, and phases execute in sequence.  This is how the benchmark
harness turns small functional runs into modeled runtimes, and it uses
the exact same cost functions as the analytic pattern generators in
:mod:`repro.machine.patterns`, so the two agree by construction.
"""

from __future__ import annotations

from typing import Optional

from repro.machine.collectives import collective_time
from repro.machine.model import MachineSpec
from repro.machine.patterns import EvaluationModel, PhaseCost
from repro.mpi.trace import CommTrace

__all__ = ["replay_trace", "kernel_breakdown"]


def replay_trace(
    trace: CommTrace,
    spec: MachineSpec,
    *,
    nranks: Optional[int] = None,
    builtin_alltoall: bool = True,
) -> EvaluationModel:
    """Cost every event of ``trace`` on ``spec``.

    Point-to-point sends are charged to the sender (α + rendezvous +
    bytes/bandwidth); receives are free (their cost is the matching
    send).  Collectives are charged per participating rank with the
    algorithm models of :mod:`repro.machine.collectives`.  Compute
    events go through the roofline.  Each phase is the
    :class:`PhaseCost` of its slowest rank (the first one on ties), in
    order of first appearance — the shape the analytic patterns return.
    """
    events = trace.events
    computes = trace.compute_events
    if nranks is None:
        ranks_seen = {ev.rank for ev in events} | {ev.rank for ev in computes}
        nranks = (max(ranks_seen) + 1) if ranks_seen else 1
    costs: dict[str, dict[int, PhaseCost]] = {}

    def bucket_of(phase: str, rank: int) -> PhaseCost:
        return costs.setdefault(phase, {}).setdefault(rank, PhaseCost())

    for ev in events:
        bucket = bucket_of(ev.phase, ev.rank)
        if ev.kind == "recv":
            continue
        if ev.kind == "send":
            same = ev.peer is not None and (
                spec.node_of(ev.rank) == spec.node_of(ev.peer)
            )
            bucket.comm += spec.p2p_time(
                ev.nbytes, same_node=same, nranks=ev.comm_size
            )
            continue
        # Collective event.
        counts = ev.counts
        bucket.comm += collective_time(
            ev.kind,
            ev.comm_size,
            ev.nbytes,
            spec,
            counts=counts,
            builtin_alltoall=builtin_alltoall,
        )

    for cev in computes:
        bucket_of(cev.phase, cev.rank).compute += _event_time(cev, spec)

    return EvaluationModel(nranks, {
        phase: max(ranks.values(), key=lambda cost: cost.total)
        for phase, ranks in costs.items()
    })


def _event_time(cev, spec: MachineSpec) -> float:
    """Roofline seconds of one ComputeEvent (single pricing rule)."""
    return spec.compute_time(
        cev.flops,
        cev.bytes_moved,
        strided=(cev.kernel == "fft_strided"),
        parallelism=float(cev.items) if cev.items > 0 else None,
    )


def kernel_breakdown(
    trace: CommTrace, spec: MachineSpec
) -> dict[str, dict[str, float]]:
    """Per-kernel roofline accounting of a trace on a machine.

    Returns ``{kernel: {"flops", "bytes", "items", "count", "time"}}``
    with totals summed over all ranks and ``time`` the modeled kernel
    seconds under ``spec``'s roofline.  The flop/byte totals come from
    the accounting layers and are therefore identical for every compute
    backend — this is the view the kernel microbenchmark
    (``benchmarks/bench_kernels.py``) uses to prove that swapping
    engines changes wall-clock but never modeled work.
    """
    totals: dict[str, dict[str, float]] = {
        kernel: dict(agg) for kernel, agg in trace.compute_totals().items()
    }
    for cev in trace.compute_events:
        bucket = totals[cev.kernel]
        bucket["time"] = bucket.get("time", 0.0) + _event_time(cev, spec)
    return totals
