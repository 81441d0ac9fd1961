"""Machine description and point-to-point cost model.

A :class:`MachineSpec` describes a GPU cluster in LogGP-style terms —
per-message latency and overhead, per-byte bandwidth (intra- and
inter-node), eager/rendezvous protocol switch, NIC sharing among the
GPUs of a node, and a fat-tree tapering factor — plus a V100-like
roofline for compute events.  The default spec is calibrated to a
Lassen-like system (IBM Power9, 4×V100 16 GB per node, EDR InfiniBand,
Spectrum MPI), the testbed of the paper's evaluation (§5.1).

The model's purpose is *shape fidelity*: scaling slopes, turnover
points and algorithm crossovers, not absolute microsecond accuracy.
All cost functions are pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.errors import ConfigurationError

__all__ = ["MachineSpec", "LASSEN"]


@dataclass(frozen=True)
class MachineSpec:
    """LogGP-style machine parameters (times in seconds, sizes in bytes).

    Attributes
    ----------
    gpus_per_node:
        Ranks (one rank = one GPU) sharing a node and its NIC.
    latency_intra / latency_inter:
        One-way wire latency within / across nodes.
    overhead:
        Per-message CPU/GPU-aware-MPI send+receive software overhead.
    bandwidth_intra / bandwidth_inter:
        Per-link byte rates (NVLink-ish / EDR InfiniBand ≈ 12.5 GB/s).
    nic_shared:
        When True, concurrent inter-node traffic of a node's ranks
        shares one NIC: effective per-rank bandwidth is divided by
        ``gpus_per_node`` in dense phases.
    eager_threshold / rendezvous_latency:
        Messages above the threshold pay an extra rendezvous round-trip.
    taper_per_level:
        Fat-tree bandwidth taper: effective inter-node bandwidth is
        divided by ``1 + taper_per_level · max(0, log2(nodes) − 1)``.
    flops / mem_bw / kernel_launch:
        Roofline compute model (per GPU): peak FP64 rate, memory
        bandwidth, fixed kernel-launch overhead.
    strided_factor:
        Fraction of ``mem_bw`` achieved by strided (non-contiguous)
        copies — used to cost heFFTe's ``reorder=False`` local passes.
    gpu_saturation:
        Number of independent work items a kernel needs to saturate the
        GPU.  Kernels with ``parallelism`` items run at utilization
        ``p / (p + gpu_saturation)`` — the latency/throughput ramp that
        makes strong scaling of point-parallel kernels (Beatnik's force
        and stencil loops) collapse at high rank counts, the paper's
        21 %-efficiency regime.
    alltoall_setup:
        Fixed software setup of the builtin MPI_Alltoall(v) collective
        (communicator-wide algorithm selection, buffer registration).
    bruck_threshold:
        Per-peer message size below which the builtin alltoall switches
        to a Bruck-style log-round algorithm.
    """

    name: str = "lassen-like"
    gpus_per_node: int = 4
    latency_intra: float = 0.9e-6
    latency_inter: float = 1.8e-6
    overhead: float = 2.5e-6
    # Effective intra-node MPI bandwidth: GPU buffers are staged through
    # the host on Power9 + Spectrum MPI, so this is far below raw NVLink.
    bandwidth_intra: float = 12.0e9
    # Per-node injection bandwidth (EDR with protocol overlap); divided
    # by gpus_per_node in dense phases when nic_shared is set.
    bandwidth_inter: float = 25.0e9
    nic_shared: bool = True
    eager_threshold: int = 16384
    rendezvous_latency: float = 2.5e-6
    taper_per_level: float = 0.12
    flops: float = 6.0e12
    mem_bw: float = 800.0e9
    kernel_launch: float = 8.0e-6
    strided_factor: float = 0.35
    gpu_saturation: float = 1.0e4
    alltoall_setup: float = 30.0e-6
    bruck_threshold: int = 4096

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ConfigurationError("gpus_per_node must be >= 1")
        for field_name in (
            "latency_intra", "latency_inter", "overhead",
            "bandwidth_intra", "bandwidth_inter", "flops", "mem_bw",
        ):
            if getattr(self, field_name) <= 0:
                raise ConfigurationError(f"{field_name} must be positive")

    # -- topology -----------------------------------------------------------

    def node_of(self, rank: int) -> int:
        """Node index under the default contiguous rank placement."""
        return rank // self.gpus_per_node

    def nodes_for(self, nranks: int) -> int:
        return max(1, math.ceil(nranks / self.gpus_per_node))

    def taper_factor(self, nranks: int) -> float:
        """Fat-tree bandwidth divisor for a job spanning ``nranks``."""
        nodes = self.nodes_for(nranks)
        if nodes <= 1:
            return 1.0
        return 1.0 + self.taper_per_level * max(0.0, math.log2(nodes) - 1.0)

    def effective_inter_bw(self, nranks: int, dense: bool = True) -> float:
        """Per-rank inter-node bandwidth during a communication phase.

        ``dense=True`` models phases where all ranks of a node drive the
        NIC simultaneously (collectives, bulk exchanges).
        """
        bw = self.bandwidth_inter / self.taper_factor(nranks)
        if dense and self.nic_shared:
            bw /= min(self.gpus_per_node, max(nranks, 1))
        return bw

    # -- point-to-point ----------------------------------------------------------

    def alpha(self, same_node: bool) -> float:
        """Per-message fixed cost (latency + software overhead)."""
        lat = self.latency_intra if same_node else self.latency_inter
        return lat + self.overhead

    def p2p_time(
        self,
        nbytes: int,
        *,
        same_node: bool,
        nranks: int = 1,
        dense: bool = True,
    ) -> float:
        """Time for one point-to-point message of ``nbytes``."""
        if nbytes < 0:
            raise ConfigurationError("message size cannot be negative")
        t = self.alpha(same_node)
        if nbytes > self.eager_threshold:
            t += self.rendezvous_latency
        if same_node:
            bw = self.bandwidth_intra
        else:
            bw = self.effective_inter_bw(nranks, dense=dense)
        return t + nbytes / bw

    # -- compute roofline -----------------------------------------------------------

    def compute_time(
        self,
        flops: float,
        bytes_moved: float,
        *,
        strided: bool = False,
        parallelism: float | None = None,
    ) -> float:
        """Roofline kernel time: launch + max(compute, memory) / util.

        ``parallelism`` is the number of independent work items the
        kernel exposes (mesh points, interaction targets); small values
        leave the GPU underutilized — see :attr:`gpu_saturation`.
        """
        mem_bw = self.mem_bw * (self.strided_factor if strided else 1.0)
        ideal = max(flops / self.flops, bytes_moved / mem_bw)
        if parallelism is not None and parallelism > 0:
            ideal /= parallelism / (parallelism + self.gpu_saturation)
        return self.kernel_launch + ideal

#: Default machine used by the benchmark harness (paper §5.1 testbed).
LASSEN = MachineSpec()
