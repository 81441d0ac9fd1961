"""Analytic communication/computation patterns at paper scale.

The functional solver runs at laptop scale (≤ ~36 ranks).  To reproduce
the paper's 4→1024-GPU scaling figures, this module generates the same
per-rank communication volumes and kernel work *analytically* — reusing
the very same sizing code the functional implementation executes
(:mod:`repro.fft.layouts` for FFT redistributions,
:func:`repro.util.misc.split_extent` for block ownership) — and costs
them with the same :mod:`repro.machine` model the trace replayer uses.
A dedicated test fixture runs both paths at small scale and checks they
agree, which is what licenses extrapolating the analytic path to 1024
ranks.

Each ``*_evaluation`` function models **one ZModel derivative
evaluation**; a timestep is three of those (TVD-RK3), see
:func:`step_time`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.fft.config import FftConfig
from repro.fft.layouts import brick_layout, layout_for_stage
from repro.machine.collectives import (
    allgather_time,
    alltoallv_time,
    mixed_alpha,
    mixed_bw,
)
from repro.machine.model import MachineSpec
from repro.util.misc import dims_create, split_extent
from repro.util.roofline import (
    FARFIELD_BYTES,
    FARFIELD_FLOPS,
    MOMENT_BYTES,
    MOMENT_FLOPS,
    RIESZ_BYTES,
    RIESZ_FLOPS,
    SEARCH_BYTES,
    SEARCH_CANDIDATE_FACTOR,
    SEARCH_FLOPS,
    WALK_BYTES,
    WALK_FLOPS,
)

__all__ = [
    "PhaseCost",
    "EvaluationModel",
    "halo_phase",
    "fft_hop_counts",
    "exact_hop_counts",
    "fft_phase",
    "stencil_phase",
    "low_order_evaluation",
    "cutoff_evaluation",
    "exact_evaluation",
    "tree_evaluation",
    "step_time",
]

_STATE_COMPONENTS = 5          # 3 position + 2 vorticity
_FLOAT = 8
_COMPLEX = 16
_MIGRATE_RECORD = (3 + 3 + 2) * _FLOAT   # pos + ω + provenance
_RETURN_RECORD = (3 + 1) * _FLOAT        # velocity + index
_HALO_RECORD = (3 + 3) * _FLOAT          # pos + ω


@dataclass
class PhaseCost:
    """Modeled (comm, compute) seconds of one phase for the pacing rank."""

    comm: float = 0.0
    compute: float = 0.0

    @property
    def total(self) -> float:
        return self.comm + self.compute

    def __iadd__(self, other: "PhaseCost") -> "PhaseCost":
        self.comm += other.comm
        self.compute += other.compute
        return self


@dataclass
class EvaluationModel:
    """Phase costs of one ZModel evaluation at scale P (the pattern
    generators below) or of a whole replayed trace
    (:func:`~repro.machine.replay.replay_trace`).

    Phase names match the functional solver's trace phases (``halo``,
    ``fft``, ``migrate``, ``spatial_halo``, ``neighbor``,
    ``br_compute``, ``br_ring``, ``tree_gather``, ``tree_build``,
    ``tree_walk``, ``stencil``), so modeled and
    replayed breakdowns line up column for column.
    """

    nranks: int
    phases: dict[str, PhaseCost] = field(default_factory=dict)

    def add(self, phase: str, comm: float = 0.0, compute: float = 0.0) -> None:
        """Accumulate (comm, compute) seconds into one named phase."""
        bucket = self.phases.setdefault(phase, PhaseCost())
        bucket.comm += comm
        bucket.compute += compute

    @property
    def total(self) -> float:
        """Modeled seconds of the whole evaluation for the pacing rank."""
        return sum(p.total for p in self.phases.values())

    def comm_total(self) -> float:
        """Communication seconds summed over every phase."""
        return sum(p.comm for p in self.phases.values())

    def compute_total(self) -> float:
        """Compute seconds summed over every phase."""
        return sum(p.compute for p in self.phases.values())


# --------------------------------------------------------------------------
# building blocks
# --------------------------------------------------------------------------

def halo_phase(
    nranks: int,
    local_shape: tuple[int, int],
    ncomp: int,
    spec: MachineSpec,
    halo: int = 2,
    exchanges: int = 1,
) -> PhaseCost:
    """Depth-``halo`` two-phase halo gather of an ``ncomp`` field set.

    4 messages per exchange: two of ``h × nj`` and two of
    ``(ni + 2h) × h`` nodes.  Neighbours in a 2D process grid are
    usually off-node at scale, so inter-node costs are charged.
    """
    ni, nj = local_shape
    sizes = [
        halo * nj * ncomp * _FLOAT,
        halo * nj * ncomp * _FLOAT,
        (ni + 2 * halo) * halo * ncomp * _FLOAT,
        (ni + 2 * halo) * halo * ncomp * _FLOAT,
    ]
    comm = sum(
        spec.p2p_time(s, same_node=False, nranks=nranks) for s in sizes
    ) * exchanges
    return PhaseCost(comm=comm)


#: Hops of one evaluation's transform pair, ``forward_transposed`` then
#: ``backward_transposed`` (:mod:`repro.fft.dfft`): the spectrum stays
#: in the cols layout, so neither half visits ``cols ↔ brick``.
_FFT_HOPS = (("brick", "rows"), ("rows", "cols"), ("cols", "rows"), ("rows", "brick"))


def _fft_layouts(
    nranks: int, global_shape: tuple[int, int], config: FftConfig
) -> dict[str, list]:
    dims = dims_create(nranks, 2)
    shape = (int(global_shape[0]), int(global_shape[1]))
    return {
        stage: layout_for_stage(stage, shape, dims, config.pencils)
        for stage in ("brick", "rows", "cols")
    }


def _hop_counts(boxes: dict[str, list], rank: int) -> list[list[int]]:
    hops = []
    for src_stage, dst_stage in _FFT_HOPS:
        if boxes[src_stage] == boxes[dst_stage]:
            continue
        src_box = boxes[src_stage][rank]
        counts = []
        for dst_box in boxes[dst_stage]:
            inter = src_box.intersect(dst_box)
            counts.append(0 if inter is None else inter.size * _COMPLEX)
        hops.append(counts)
    return hops


def fft_hop_counts(
    nranks: int,
    global_shape: tuple[int, int],
    config: FftConfig,
    rank: int = 0,
) -> list[list[int]]:
    """Bytes ``rank`` ships to every peer (itself included) on each hop
    of one low-order evaluation's transform pair.

    Counts come from the *actual* layout code (:mod:`repro.fft.layouts`),
    so modeled message sizes equal functional ones by construction.  A
    hop whose two layouts coincide on every rank is elided, exactly as
    :class:`repro.fft.remap.Remap` elides it: it is absent from the list
    and costs neither wire nor pack time.
    """
    return _hop_counts(_fft_layouts(nranks, global_shape, config), rank)


def exact_hop_counts(
    nranks: int, global_shape: tuple[int, int], rank: int = 0
) -> list[int]:
    """Bytes ``rank`` sends on each of the exact solver's P−1 ring hops.

    Hop ``k`` forwards the visiting ``(n, 6)`` float64 block (positions
    and ω) of rank ``(rank − k) mod P``, whose point count comes from
    the brick layout the surface mesh is partitioned with.
    """
    boxes = brick_layout(global_shape, dims_create(nranks, 2))
    return [
        boxes[(rank - hop) % nranks].size * 6 * _FLOAT
        for hop in range(nranks - 1)
    ]


def fft_phase(
    nranks: int,
    global_shape: tuple[int, int],
    config: FftConfig,
    spec: MachineSpec,
) -> PhaseCost:
    """The spectral half of one low-order evaluation: one forward and
    one backward transposed transform around the Riesz multiply.

    Redistributions are priced from :func:`fft_hop_counts` for rank 0.
    ``reorder=False`` keeps the messages and costs the payloads and the
    local copies at strided bandwidth.
    """
    boxes = _fft_layouts(nranks, global_shape, config)
    comm = 0.0
    compute = 0.0
    for counts in _hop_counts(boxes, 0):
        volume = sum(counts)
        # Without reorder the payloads stream through strided derived
        # datatypes in either backend: an effective-bandwidth penalty,
        # modeled as inflated wire volume (messages are unchanged —
        # heFFTe's reorder flag trades local transpose cost, not counts).
        stride_penalty = 1.0 if config.reorder else 1.0 / 0.6
        wire_counts = [int(c * stride_penalty) for c in counts]
        if config.alltoall:
            comm += alltoallv_time(nranks, wire_counts, spec, builtin=True)
        else:
            nmsg = sum(1 for c in counts if c > 0)
            contention = 1.0 + 0.15 * max(0.0, math.log2(spec.nodes_for(nranks)))
            comm += (
                nmsg * mixed_alpha(nranks, spec)
                + volume * stride_penalty / mixed_bw(nranks, spec)
            ) * contention
        # Local pack/unpack of the moved volume (both sides).
        compute += spec.compute_time(
            0.0, 4.0 * volume, strided=not config.reorder
        )
    # Serial kernel work: two 1D passes over the local data per
    # transform, and one complex multiply of the transposed spectrum.
    rows_box, cols_box = boxes["rows"][0], boxes["cols"][0]
    n1, n2 = global_shape
    flops_rows = 5.0 * n2 * math.log2(max(n2, 2)) * max(rows_box.shape[0], 1)
    flops_cols = 5.0 * n1 * math.log2(max(n1, 2)) * max(cols_box.shape[1], 1)
    compute += 2.0 * (
        spec.compute_time(flops_rows, 2.0 * rows_box.size * _COMPLEX)
        + spec.compute_time(flops_cols, 2.0 * cols_box.size * _COMPLEX)
    )
    compute += spec.compute_time(
        RIESZ_FLOPS * cols_box.size, RIESZ_BYTES * cols_box.size
    )
    return PhaseCost(comm=comm, compute=compute)


def stencil_phase(
    local_points: float, spec: MachineSpec
) -> PhaseCost:
    """Geometry + vorticity-update kernels (~70 flops, ~19 reads/point).

    Point-parallel kernels: utilization ramps with the local point count.
    """
    flops = 70.0 * local_points
    bytes_moved = 19.0 * _FLOAT * local_points
    return PhaseCost(
        compute=spec.compute_time(flops, bytes_moved, parallelism=local_points)
    )


# --------------------------------------------------------------------------
# full evaluations
# --------------------------------------------------------------------------

def _local_shape(global_shape: tuple[int, int], nranks: int) -> tuple[int, int]:
    dims = dims_create(nranks, 2)
    ni = split_extent(global_shape[0], dims[0], 0)
    nj = split_extent(global_shape[1], dims[1], 0)
    return (ni[1] - ni[0], nj[1] - nj[0])


def low_order_evaluation(
    nranks: int,
    global_shape: tuple[int, int],
    spec: MachineSpec,
    config: FftConfig = FftConfig(),
) -> EvaluationModel:
    """One LOW-order derivative evaluation (paper Figs. 3/4/9 workload)."""
    model = EvaluationModel(nranks)
    local = _local_shape(global_shape, nranks)
    points = float(local[0] * local[1])
    # State gather (z+w) and the Φ gather.
    state = halo_phase(nranks, local, _STATE_COMPONENTS, spec)
    phi = halo_phase(nranks, local, 1, spec)
    model.add("halo", comm=state.comm + phi.comm)
    fft = fft_phase(nranks, global_shape, config, spec)
    model.add("fft", comm=fft.comm, compute=fft.compute)
    st = stencil_phase(points, spec)
    model.add("stencil", compute=st.compute)
    return model


def cutoff_evaluation(
    nranks: int,
    global_shape: tuple[int, int],
    spec: MachineSpec,
    *,
    cutoff: float,
    domain_extent: tuple[float, float],
    move_fraction: float = 0.25,
    imbalance: float = 1.0,
) -> EvaluationModel:
    """One HIGH-order cutoff-solver evaluation (paper Figs. 5/8 workload).

    Parameters
    ----------
    cutoff / domain_extent:
        Interaction radius and the x/y extent of the spatial domain.
    move_fraction:
        Fraction of a rank's points whose spatial owner differs from
        their surface owner (≈0 early in multimode runs; grows with
        deformation).
    imbalance:
        Ownership ratio max/mean of the *hot* spatial block (1.0 = even;
        Figures 6/7 measure ~1.0 at t=80 and ~1.6 at t=340).  Compute
        pairs on the hot rank scale as imbalance² (both targets and the
        local density of sources grow).
    """
    model = EvaluationModel(nranks)
    local = _local_shape(global_shape, nranks)
    n_local = float(local[0] * local[1])
    total_points = float(global_shape[0] * global_shape[1])
    dims = dims_create(nranks, 2)
    wx = domain_extent[0] / dims[0]
    wy = domain_extent[1] / dims[1]
    surface_density = total_points / (domain_extent[0] * domain_extent[1])

    # Surface halo (z+w and Φ), like the low-order solver.
    state = halo_phase(nranks, local, _STATE_COMPONENTS, spec)
    phi = halo_phase(nranks, local, 1, spec)
    model.add("halo", comm=state.comm + phi.comm)

    # Migration out and back: alltoallv over ~8 neighbouring blocks, plus
    # the O(P) size exchange every irregular migration performs first
    # (an MPI_Alltoall of per-peer counts — latency-bound and pairwise at
    # these sizes, so it costs ~P·α; this is the term the paper blames
    # for the modest weak-scaling runtime growth of the cutoff solver).
    moved = move_fraction * n_local
    counts_exchange = nranks * mixed_alpha(nranks, spec)

    def _migrate(bytes_per: int) -> float:
        partners = min(8, nranks - 1)
        data = 0.0
        if partners > 0 and moved > 0:
            counts = [0] * nranks
            share = int(moved * bytes_per / partners)
            for p in range(1, partners + 1):
                counts[p % nranks] = share
            data = alltoallv_time(nranks, counts, spec, builtin=True)
        return counts_exchange + data

    model.add("migrate", comm=_migrate(_MIGRATE_RECORD) + _migrate(_RETURN_RECORD))

    # Cutoff ghost exchange: the band of width `cutoff` around the block
    # perimeter, ghosted to each overlapped neighbour.
    band_area = min(2.0 * cutoff * (wx + wy) + 4.0 * cutoff * cutoff, wx * wy)
    ghosts = surface_density * band_area * imbalance
    partners = min(8, max(nranks - 1, 0))
    if partners and ghosts > 0:
        counts = [0] * nranks
        share = int(ghosts * _HALO_RECORD / partners)
        for p in range(1, partners + 1):
            counts[p % nranks] = share
        model.add(
            "spatial_halo",
            comm=counts_exchange
            + alltoallv_time(nranks, counts, spec, builtin=True),
        )

    # Neighbor search + force pairs: a surface point sees the sheet as
    # locally 2D, so its neighbourhood holds ~ density · π c² points.
    # Both kernels parallelize over *owned targets* (as Beatnik's Kokkos
    # loops do), so their GPU utilization collapses when strong scaling
    # leaves few points per rank — the paper's 21 %-efficiency regime.
    neighbors_per_point = surface_density * math.pi * cutoff * cutoff
    targets_hot = n_local * imbalance
    pairs_hot = targets_hot * neighbors_per_point * imbalance
    # Constants are shared with the ComputeEvents the functional solver
    # records (repro.util.roofline): a cell-list search inspects ~6.45
    # candidates per kept pair.
    candidates_hot = SEARCH_CANDIDATE_FACTOR * pairs_hot
    model.add(
        "neighbor",
        compute=spec.compute_time(
            SEARCH_FLOPS * candidates_hot,
            24.0 * (n_local + ghosts) + SEARCH_BYTES * candidates_hot,
            parallelism=targets_hot,
        ),
    )
    # ~24 bytes of effective traffic per pair: source coordinates and ω
    # stream in coalesced and mostly cache-resident within a cell.
    model.add(
        "br_compute",
        compute=spec.compute_time(
            30.0 * pairs_hot, 24.0 * pairs_hot, parallelism=targets_hot
        ),
    )
    st = stencil_phase(n_local, spec)
    model.add("stencil", compute=st.compute)
    return model


def exact_evaluation(
    nranks: int,
    global_shape: tuple[int, int],
    spec: MachineSpec,
) -> EvaluationModel:
    """One HIGH-order exact (ring-pass) evaluation: O(N²) pairs total."""
    model = EvaluationModel(nranks)
    local = _local_shape(global_shape, nranks)
    n_local = float(local[0] * local[1])
    total = float(global_shape[0] * global_shape[1])

    state = halo_phase(nranks, local, _STATE_COMPONENTS, spec)
    phi = halo_phase(nranks, local, 1, spec)
    model.add("halo", comm=state.comm + phi.comm)

    # Every hop is paced by the largest visiting block: rank 0's own.
    hops = exact_hop_counts(nranks, global_shape)
    ring_comm = len(hops) * spec.p2p_time(
        max(hops, default=0), same_node=False, nranks=nranks
    )
    pairs = n_local * total
    model.add(
        "br_ring",
        comm=ring_comm,
        compute=spec.compute_time(
            30.0 * pairs, 9.0 * _FLOAT * pairs, parallelism=n_local
        ),
    )
    st = stencil_phase(n_local, spec)
    model.add("stencil", compute=st.compute)
    return model


def tree_evaluation(
    nranks: int,
    global_shape: tuple[int, int],
    spec: MachineSpec,
    *,
    theta: float = 0.5,
    leaf_size: int = 32,
) -> EvaluationModel:
    """One HIGH-order Barnes-Hut tree-solver evaluation.

    Mirrors the functional :class:`~repro.core.br_tree.TreeBRSolver`
    phase for phase: one allgather replicates every rank's ``(n, 6)``
    point/vorticity block (``tree_gather``), every rank builds the full
    N-point moment tree (``tree_build``), walks it for its local
    targets (``tree_walk``) and evaluates the accepted far pairs plus
    the leaf-level near pairs (``br_compute``).  Interaction counts use
    the classic 2D Barnes-Hut estimate: per level a target opens the
    ~``pi / theta^2`` cells whose size/distance ratio exceeds
    ``theta``, examining their four children each, over
    ``log4(N / leaf_size)`` levels — so ~``3 pi / theta^2`` accepted
    far nodes per level and ~``pi / theta^2`` opened leaves of
    ``leaf_size`` near sources at the bottom, both capped at the exact
    solver's N (which is what ``theta -> 0`` degenerates to).

    Unlike :func:`cutoff_evaluation` there is no ``imbalance`` knob:
    targets never leave their surface owner, so the tree solver is
    immune to the spatial ownership imbalance of Figures 6/7.
    """
    model = EvaluationModel(nranks)
    local = _local_shape(global_shape, nranks)
    n_local = float(local[0] * local[1])
    total_points = float(global_shape[0] * global_shape[1])

    state = halo_phase(nranks, local, _STATE_COMPONENTS, spec)
    phi = halo_phase(nranks, local, 1, spec)
    model.add("halo", comm=state.comm + phi.comm)

    # One ring allgather of the (n_local, 6) float64 block.
    block_bytes = int(n_local * 6 * _FLOAT)
    model.add("tree_gather", comm=allgather_time(nranks, block_bytes, spec))

    # Every rank builds the full global tree (replicated, like the
    # functional solver); the upward pass is amortized into the
    # per-point moment constants.
    model.add(
        "tree_build",
        compute=spec.compute_time(
            MOMENT_FLOPS * total_points,
            MOMENT_BYTES * total_points,
            parallelism=total_points,
        ),
    )

    levels = max(
        1.0, math.log(max(total_points / max(leaf_size, 1), 4.0), 4.0)
    )
    opened_per_level = math.pi / max(theta, 0.05) ** 2
    far_per_target = min(3.0 * opened_per_level * levels, total_points)
    near_per_target = min(opened_per_level * leaf_size, total_points)
    examined_per_target = min(4.0 * opened_per_level * levels, total_points)

    model.add(
        "tree_walk",
        compute=spec.compute_time(
            WALK_FLOPS * examined_per_target * n_local,
            WALK_BYTES * examined_per_target * n_local,
            parallelism=n_local,
        ),
    )
    far_pairs = far_per_target * n_local
    near_pairs = near_per_target * n_local
    model.add(
        "br_compute",
        compute=spec.compute_time(
            FARFIELD_FLOPS * far_pairs, FARFIELD_BYTES * far_pairs,
            parallelism=n_local,
        )
        + spec.compute_time(
            30.0 * near_pairs, 24.0 * near_pairs, parallelism=n_local
        ),
    )
    st = stencil_phase(n_local, spec)
    model.add("stencil", compute=st.compute)
    return model


def step_time(model: EvaluationModel, stages: int = 3) -> float:
    """Seconds per timestep: RK3 runs ``stages`` evaluations."""
    return stages * model.total
