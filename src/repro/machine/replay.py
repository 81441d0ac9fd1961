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

from dataclasses import dataclass, field
from typing import Optional

from repro.machine.collectives import collective_time
from repro.machine.model import MachineSpec
from repro.mpi.trace import CommTrace

__all__ = ["PhaseTime", "ReplayResult", "replay_trace", "kernel_breakdown"]


@dataclass
class PhaseTime:
    """Accumulated modeled time of one phase at one rank."""

    comm: float = 0.0
    compute: float = 0.0

    @property
    def total(self) -> float:
        return self.comm + self.compute


@dataclass
class ReplayResult:
    """Modeled execution of a trace on a machine."""

    nranks: int
    spec: MachineSpec
    per_phase_rank: dict[str, dict[int, PhaseTime]] = field(default_factory=dict)

    def phase_time(self, phase: str) -> float:
        """BSP time of one phase: the slowest rank's accumulated time."""
        ranks = self.per_phase_rank.get(phase, {})
        if not ranks:
            return 0.0
        return max(pt.total for pt in ranks.values())

    def phase_breakdown(self, phase: str) -> tuple[float, float]:
        """(comm, compute) of the slowest rank in the phase."""
        ranks = self.per_phase_rank.get(phase, {})
        if not ranks:
            return (0.0, 0.0)
        worst = max(ranks.values(), key=lambda pt: pt.total)
        return (worst.comm, worst.compute)

    @property
    def phases(self) -> list[str]:
        return list(self.per_phase_rank)

    @property
    def total(self) -> float:
        """Total modeled runtime: sum of per-phase BSP times."""
        return sum(self.phase_time(p) for p in self.per_phase_rank)

    def comm_total(self) -> float:
        return sum(self.phase_breakdown(p)[0] for p in self.per_phase_rank)

    def compute_total(self) -> float:
        return sum(self.phase_breakdown(p)[1] for p in self.per_phase_rank)

    def _bucket(self, phase: str, rank: int) -> PhaseTime:
        return self.per_phase_rank.setdefault(phase, {}).setdefault(rank, PhaseTime())


def replay_trace(
    trace: CommTrace,
    spec: MachineSpec,
    *,
    nranks: Optional[int] = None,
    builtin_alltoall: bool = True,
) -> ReplayResult:
    """Cost every event of ``trace`` on ``spec``.

    Point-to-point sends are charged to the sender (α + rendezvous +
    bytes/bandwidth); receives are free (their cost is the matching
    send).  Collectives are charged per participating rank with the
    algorithm models of :mod:`repro.machine.collectives`.  Compute
    events go through the roofline.
    """
    events = trace.events
    computes = trace.compute_events
    if nranks is None:
        ranks_seen = {ev.rank for ev in events} | {ev.rank for ev in computes}
        nranks = (max(ranks_seen) + 1) if ranks_seen else 1
    result = ReplayResult(nranks=nranks, spec=spec)

    for ev in events:
        bucket = result._bucket(ev.phase, ev.rank)
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
        bucket = result._bucket(cev.phase, cev.rank)
        bucket.compute += _event_time(cev, spec)

    return result


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
