"""Machine model: cost monotonicity, algorithm crossovers, replay."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpi
from repro.fft import FftConfig
from repro.machine import (
    LASSEN,
    MachineSpec,
    allreduce_time,
    alltoallv_time,
    barrier_time,
    collective_time,
    cutoff_evaluation,
    exact_evaluation,
    low_order_evaluation,
    replay_trace,
    step_time,
)
from tests.conftest import spmd


class TestMachineSpec:
    def test_node_topology(self):
        assert LASSEN.node_of(0) == LASSEN.node_of(3)
        assert LASSEN.node_of(4) == 1
        assert LASSEN.nodes_for(1024) == 256

    def test_taper_monotonic(self):
        tapers = [LASSEN.taper_factor(p) for p in (4, 16, 64, 256, 1024)]
        assert tapers == sorted(tapers)
        assert tapers[0] == 1.0

    def test_p2p_monotonic_in_size(self):
        times = [
            LASSEN.p2p_time(n, same_node=False, nranks=64)
            for n in (0, 100, 10_000, 1_000_000)
        ]
        assert times == sorted(times)

    def test_intra_faster_than_inter(self):
        assert LASSEN.p2p_time(10_000, same_node=True) < LASSEN.p2p_time(
            10_000, same_node=False, nranks=64
        )

    def test_rendezvous_kink(self):
        below = LASSEN.p2p_time(LASSEN.eager_threshold, same_node=True)
        above = LASSEN.p2p_time(LASSEN.eager_threshold + 1, same_node=True)
        assert above - below > LASSEN.rendezvous_latency * 0.9

    def test_compute_roofline_regimes(self):
        # Compute-bound vs memory-bound selection.
        flops_heavy = LASSEN.compute_time(1e12, 1e6)
        mem_heavy = LASSEN.compute_time(1e6, 1e12)
        assert flops_heavy == pytest.approx(
            LASSEN.kernel_launch + 1e12 / LASSEN.flops
        )
        assert mem_heavy == pytest.approx(
            LASSEN.kernel_launch + 1e12 / LASSEN.mem_bw
        )

    def test_utilization_ramp(self):
        full = LASSEN.compute_time(1e9, 0.0, parallelism=1e9)
        starved = LASSEN.compute_time(1e9, 0.0, parallelism=100.0)
        assert starved > 10 * full

    def test_strided_slower(self):
        assert LASSEN.compute_time(0, 1e9, strided=True) > LASSEN.compute_time(
            0, 1e9
        )

    def test_invalid_spec_rejected(self):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            MachineSpec(bandwidth_inter=0.0)


class TestCollectiveModels:
    @settings(max_examples=20, deadline=None)
    @given(
        p=st.sampled_from([2, 4, 16, 64, 256]),
        nbytes=st.integers(8, 10**7),
    )
    def test_all_costs_positive(self, p, nbytes):
        for kind in ("allreduce", "gather", "allgather", "barrier"):
            assert collective_time(kind, p, nbytes, LASSEN) > 0.0

    def test_single_rank_free(self):
        for kind in ("allreduce", "gather", "barrier", "alltoallv"):
            assert collective_time(kind, 1, 1000, LASSEN) == 0.0

    def test_allreduce_scales_log(self):
        t64 = allreduce_time(64, 8, LASSEN)
        t1024 = allreduce_time(1024, 8, LASSEN)
        assert t1024 < 3.0 * t64  # log-ish growth, not linear

    def test_alltoall_builtin_beats_custom_at_scale(self):
        counts = [1024] * 1024
        builtin = alltoallv_time(1024, counts, LASSEN, builtin=True)
        custom = alltoallv_time(1024, counts, LASSEN, builtin=False)
        assert builtin < custom

    def test_alltoall_custom_wins_small(self):
        """On one node (no contention) custom avoids the setup cost."""
        counts = [100_000] * 4
        builtin = alltoallv_time(4, counts, LASSEN, builtin=True)
        custom = alltoallv_time(4, counts, LASSEN, builtin=False)
        assert custom < builtin

    def test_barrier_grows_with_p(self):
        times = [barrier_time(p, LASSEN) for p in (2, 8, 64, 512)]
        assert times == sorted(times)

    @pytest.mark.parametrize(
        "kind", ["scan", "bcast", "reduce", "scatter", "alltoall", "sendrecv"]
    )
    def test_unknown_kind_raises(self, kind):
        with pytest.raises(ValueError):
            collective_time(kind, 4, 8, LASSEN)


class TestPatterns:
    def test_low_order_weak_scaling_monotonic(self):
        cfg = FftConfig(alltoall=False, pencils=True, reorder=True)
        times = []
        for p in (4, 16, 64, 256, 1024):
            n = int(4864 * math.sqrt(p / 4))
            times.append(step_time(low_order_evaluation(p, (n, n), LASSEN, cfg)))
        assert times == sorted(times)  # paper Fig. 3: runtime grows

    def test_low_order_strong_scaling_turnover(self):
        cfg = FftConfig(alltoall=False, pencils=True, reorder=True)
        times = {
            p: step_time(low_order_evaluation(p, (4864, 4864), LASSEN, cfg))
            for p in (4, 64, 256, 1024)
        }
        speedup64 = times[4] / times[64]
        assert 2.0 < speedup64 < 6.0          # paper: 3.5×
        assert times[1024] > times[256]       # paper: turnover at scale

    def test_fig9_crossover(self):
        """AllToAll=True loses on one node, wins at 1024 ranks (paper §5.5)."""
        n4 = (4864, 4864)
        custom = FftConfig(alltoall=False, pencils=True, reorder=True)
        builtin = FftConfig(alltoall=True, pencils=True, reorder=True)
        t_custom_4 = step_time(low_order_evaluation(4, n4, LASSEN, custom))
        t_builtin_4 = step_time(low_order_evaluation(4, n4, LASSEN, builtin))
        assert t_custom_4 <= t_builtin_4
        n1024 = (77824, 77824)
        t_custom_1k = step_time(low_order_evaluation(1024, n1024, LASSEN, custom))
        t_builtin_1k = step_time(low_order_evaluation(1024, n1024, LASSEN, builtin))
        assert t_builtin_1k < t_custom_1k

    def test_cutoff_weak_scaling_modest_growth(self):
        """Paper Fig. 5: ≤ ~20 % runtime growth 4 → 1024 GPUs."""
        times = []
        for p in (4, 64, 1024):
            n = int(768 * math.sqrt(p))
            ext = 6.0 * math.sqrt(p / 4)
            times.append(
                step_time(
                    cutoff_evaluation(
                        p, (n, n), LASSEN, cutoff=0.2, domain_extent=(ext, ext)
                    )
                )
            )
        growth = times[-1] / times[0]
        assert 1.0 < growth < 1.35

    def test_cutoff_strong_scaling_turnover(self):
        """Paper Fig. 8: sublinear speedup to ~64-128, then flat/worse."""

        def imb(p):
            return 1.0 + 0.66 * (1 - 4.0 / p) if p > 4 else 1.0

        times = {
            p: step_time(
                cutoff_evaluation(
                    p, (512, 512), LASSEN, cutoff=0.5,
                    domain_extent=(6.0, 6.0), imbalance=imb(p),
                )
            )
            for p in (4, 64, 128, 256)
        }
        speedup64 = times[4] / times[64]
        assert 1.5 < speedup64 < 5.0          # paper: 3.3× (21 % efficiency)
        assert times[256] > 0.8 * times[128]  # flat-to-worse beyond

    def test_exact_evaluation_compute_dominated(self):
        model = exact_evaluation(16, (512, 512), LASSEN)
        assert model.compute_total() > model.comm_total()

    def test_imbalance_increases_cost(self):
        base = step_time(
            cutoff_evaluation(64, (512, 512), LASSEN, cutoff=0.5,
                              domain_extent=(6.0, 6.0), imbalance=1.0)
        )
        skewed = step_time(
            cutoff_evaluation(64, (512, 512), LASSEN, cutoff=0.5,
                              domain_extent=(6.0, 6.0), imbalance=1.66)
        )
        assert skewed > 1.5 * base


class TestReplay:
    def test_replay_functional_fft_trace(self):
        """Replaying a functional 4-rank trace gives positive phase times."""
        trace = mpi.CommTrace()
        field = np.random.default_rng(0).normal(size=(16, 16))

        def program(comm):
            from repro.fft import DistributedFFT2D

            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, (16, 16))
            with trace.phase("fft"):
                fft.forward(field[fft.brick_box.slices()])

        spmd(4, program, trace=trace)
        result = replay_trace(trace, LASSEN)
        assert result.phases["fft"].total > 0.0
        assert result.total >= result.phases["fft"].total

    def test_replay_p2p_vs_collective_consistency(self):
        """Same remap in both comm modes: replay costs within one order."""
        field = np.random.default_rng(0).normal(size=(16, 16))

        def run(alltoall):
            trace = mpi.CommTrace()

            def program(comm):
                from repro.fft import DistributedFFT2D

                cart = mpi.create_cart(comm, ndims=2)
                fft = DistributedFFT2D(
                    cart, (16, 16), FftConfig(alltoall=alltoall)
                )
                with trace.phase("fft"):
                    fft.forward(field[fft.brick_box.slices()])

            spmd(4, program, trace=trace)
            return replay_trace(trace, LASSEN).phases["fft"].total

        t_coll, t_p2p = run(True), run(False)
        assert 0.05 < t_coll / t_p2p < 20.0

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_replay_deterministic(self, nranks):
        """A program calling every Comm method records exactly the
        simulator's kind vocabulary, and replay prices every event the
        same way twice."""
        trace = mpi.CommTrace()

        def program(comm):
            cart = mpi.create_cart(comm, ndims=1)
            left, right = cart.neighbor((-1,)), cart.neighbor((1,))
            assert cart.rank_of(cart.coords_of(cart.rank)) == cart.rank
            dup = comm.Dup()
            with trace.phase("send"):
                cart.Send(np.arange(4.0), right, tag=1)
                cart.Recv(np.empty(4), left, 1)
            with trace.phase("sendrecv"):
                dup.Sendrecv(np.arange(2.0), right, 2, None, left, 2)
            with trace.phase("barrier"):
                comm.Barrier()
                comm.barrier()
            with trace.phase("allreduce"):
                comm.allreduce(1.0)
                comm.allreduce(np.ones(2), op=mpi.MAX)
            with trace.phase("gather"):
                comm.gather(comm.rank, root=0)
            with trace.phase("allgather"):
                comm.allgather(comm.rank)
                comm.Allgatherv(np.arange(comm.rank + 1.0))
            with trace.phase("alltoallv"):
                comm.exchange_arrays([np.ones(3)] * comm.size)

        spmd(nranks, program, trace=trace)
        assert {ev.kind for ev in trace.events} == {
            "send", "recv", "barrier", "allreduce", "gather", "allgather",
            "alltoallv",
        }
        a = replay_trace(trace, LASSEN, nranks=nranks)
        b = replay_trace(trace, LASSEN, nranks=nranks)
        assert a.total == b.total
        for phase in ("send", "sendrecv", "barrier", "allreduce", "gather",
                      "allgather", "alltoallv"):
            comm_time = a.phases[phase].comm
            # One rank pays only for its self-sends; collectives are free.
            assert (comm_time > 0.0) == (nranks > 1 or phase.startswith("send"))

    def test_phase_breakdown(self):
        trace = mpi.CommTrace()
        trace.record_comm("barrier", 0, None, 0, comm_size=4)
        trace.record_compute("k", 0, flops=1e9, bytes_moved=1e6, items=10**6)
        result = replay_trace(trace, LASSEN, nranks=4)
        cost = result.phases["unphased"]
        comm, compute = cost.comm, cost.compute
        assert comm > 0 and compute > 0

    @staticmethod
    def _halo_fft_trace(*ranks):
        """Per rank and phase: a send of ``nbytes`` and a kernel of
        ``flops`` (``None`` records nothing).  Rank 0 pays most in
        halo, rank 1 in fft, and each also pays a little in the other
        column of the phase it does not pace."""
        costs = {
            "halo": {0: (1 << 20, None), 1: (8, 1e3)},
            "fft": {0: (8, None), 1: (None, 1e9)},
        }
        trace = mpi.CommTrace()
        for rank in ranks:
            for phase, by_rank in costs.items():
                nbytes, flops = by_rank[rank]
                with trace.phase(phase):
                    if nbytes is not None:
                        trace.record_comm("send", rank, 1 - rank, nbytes,
                                          comm_size=2)
                    if flops is not None:
                        trace.record_compute("k", rank, flops=flops,
                                             bytes_moved=flops / 10)
        return trace

    def test_each_phase_is_its_slowest_rank(self):
        """Halo peaks on rank 0 and fft on rank 1: each phase carries
        its worst rank's (comm, compute) pair — not a per-column max —
        and the total is their sum."""
        result = replay_trace(self._halo_fft_trace(0, 1), LASSEN)
        rank0 = replay_trace(self._halo_fft_trace(0), LASSEN, nranks=2).phases
        rank1 = replay_trace(self._halo_fft_trace(1), LASSEN, nranks=2).phases
        assert rank0["halo"].total > rank1["halo"].total
        assert rank1["fft"].total > rank0["fft"].total
        assert rank1["halo"].compute > 0.0 and rank0["fft"].comm > 0.0
        assert result.nranks == 2
        assert list(result.phases) == ["halo", "fft"]
        halo, fft = result.phases["halo"], result.phases["fft"]
        assert (halo.comm, halo.compute) == (rank0["halo"].comm, 0.0)
        assert (fft.comm, fft.compute) == (0.0, rank1["fft"].compute)
        assert result.total == halo.total + fft.total
