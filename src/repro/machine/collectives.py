"""Collective-algorithm cost models.

Real MPI libraries choose among several algorithms per collective based
on message size and communicator size; which algorithm wins is exactly
what the paper's heFFTe experiment (Fig. 9) probes through the
``AllToAll`` flag.  This module models the per-rank completion time of
the standard algorithms for the event kinds the simulated MPI records:

* **alltoallv** — *builtin*: min(pairwise-exchange, Bruck) + a fixed
  collective setup cost.  Pairwise costs ``(P−1)·α + V/bw``; Bruck
  costs ``⌈log2 P⌉·(α + (V/2)/bw)`` (each round ships half the total
  volume, aggregated into one message).  Small messages → Bruck wins
  (log P latency terms), large messages → pairwise wins (no extra
  volume).  *Custom* (heFFTe's AllToAll=False): pairwise point-to-point
  without the setup cost, but paying per-message overhead on every one
  of the P−1 peers and an incast contention penalty that grows with
  node count — faster at small scale, slower at large scale, which is
  precisely the crossover the paper reports.
* **allreduce** — Rabenseifner (reduce-scatter + allgather) for large
  payloads, recursive doubling for small.
* **gather** — binomial tree.
* **allgather** — ring.
* **barrier** — dissemination.

All functions return *seconds for the calling rank to complete*, given
that every rank participates symmetrically (the BSP assumption the
replay layer makes).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.machine.model import MachineSpec

__all__ = [
    "alltoallv_time",
    "allreduce_time",
    "gather_time",
    "allgather_time",
    "barrier_time",
    "collective_time",
    "mixed_alpha",
    "mixed_bw",
]


def _log2_ceil(p: int) -> int:
    return max(1, math.ceil(math.log2(max(p, 2))))


def _inter_fraction(nranks: int, spec: MachineSpec) -> float:
    """Fraction of peers living on other nodes (uniform placement)."""
    if nranks <= 1:
        return 0.0
    same = min(spec.gpus_per_node, nranks) - 1
    return max(0.0, (nranks - 1 - same) / (nranks - 1))


def mixed_alpha(nranks: int, spec: MachineSpec) -> float:
    """Average per-message fixed cost over intra/inter-node peers."""
    f = _inter_fraction(nranks, spec)
    return (1.0 - f) * spec.alpha(True) + f * spec.alpha(False)


def mixed_bw(nranks: int, spec: MachineSpec, dense: bool = True) -> float:
    """Harmonic-mean effective bandwidth over intra/inter peers."""
    f = _inter_fraction(nranks, spec)
    inter = spec.effective_inter_bw(nranks, dense=dense)
    intra = spec.bandwidth_intra
    if f <= 0.0:
        return intra
    return 1.0 / (f / inter + (1.0 - f) / intra)


_mixed_alpha = mixed_alpha
_mixed_bw = mixed_bw


def alltoallv_time(
    nranks: int,
    counts: Sequence[int],
    spec: MachineSpec,
    *,
    builtin: bool = True,
) -> float:
    """Per-rank time of an alltoallv with the given per-peer byte counts.

    ``counts[i]`` is what this rank sends to peer ``i`` (self traffic is
    ignored).  ``builtin`` selects the library collective (with setup
    and algorithm switching); ``builtin=False`` models an
    application-level pairwise Isend/Recv mesh — heFFTe's custom path.
    """
    if nranks <= 1:
        return 0.0
    partners = [
        (peer, int(c)) for peer, c in enumerate(counts) if c > 0
    ]
    total = sum(c for _, c in partners)
    nmsg = len(partners)
    alpha = _mixed_alpha(nranks, spec)
    bw = _mixed_bw(nranks, spec)

    pairwise = nmsg * alpha + total / bw
    if not builtin:
        # Incast/contention penalty of an unscheduled point-to-point
        # mesh: grows with the number of nodes involved.
        contention = 1.0 + 0.15 * max(0.0, math.log2(spec.nodes_for(nranks)))
        return pairwise * contention

    rounds = _log2_ceil(nranks)
    avg_msg = total / max(nmsg, 1)
    bruck = rounds * (alpha + (total / 2.0) / bw)
    if avg_msg <= spec.bruck_threshold:
        best = min(pairwise, bruck)
    else:
        best = pairwise
    return spec.alltoall_setup + best


def allreduce_time(nranks: int, nbytes: int, spec: MachineSpec) -> float:
    """Rabenseifner for large payloads, recursive doubling for small."""
    if nranks <= 1:
        return 0.0
    alpha = _mixed_alpha(nranks, spec)
    bw = _mixed_bw(nranks, spec)
    rounds = _log2_ceil(nranks)
    recursive_doubling = rounds * (alpha + nbytes / bw)
    rabenseifner = 2 * rounds * alpha + 2.0 * nbytes * (nranks - 1) / nranks / bw
    return min(recursive_doubling, rabenseifner)


def gather_time(nranks: int, nbytes: int, spec: MachineSpec) -> float:
    """Binomial gather of ``nbytes`` per rank: the root absorbs ~P·n."""
    if nranks <= 1:
        return 0.0
    alpha = _mixed_alpha(nranks, spec)
    bw = _mixed_bw(nranks, spec)
    return _log2_ceil(nranks) * alpha + (nranks - 1) * nbytes / bw


def allgather_time(nranks: int, nbytes: int, spec: MachineSpec) -> float:
    """Ring allgather: P−1 rounds of the per-rank block."""
    if nranks <= 1:
        return 0.0
    alpha = _mixed_alpha(nranks, spec)
    bw = _mixed_bw(nranks, spec)
    return (nranks - 1) * (alpha + nbytes / bw)


def barrier_time(nranks: int, spec: MachineSpec) -> float:
    """Dissemination barrier."""
    if nranks <= 1:
        return 0.0
    return _log2_ceil(nranks) * _mixed_alpha(nranks, spec)


def collective_time(
    kind: str,
    nranks: int,
    nbytes: int,
    spec: MachineSpec,
    counts: Optional[Sequence[int]] = None,
    *,
    builtin_alltoall: bool = True,
) -> float:
    """Dispatch on a collective trace event kind (see
    :class:`repro.mpi.CommEvent`); any other kind raises ``ValueError``."""
    if kind == "alltoallv":
        if counts is None:
            share = nbytes // max(nranks, 1)
            counts = [share] * nranks
        return alltoallv_time(nranks, counts, spec, builtin=builtin_alltoall)
    if kind == "allreduce":
        return allreduce_time(nranks, nbytes, spec)
    if kind == "gather":
        return gather_time(nranks, nbytes, spec)
    if kind == "allgather":
        return allgather_time(nranks, nbytes, spec)
    if kind == "barrier":
        return barrier_time(nranks, spec)
    raise ValueError(f"unknown collective kind {kind!r}")
