"""Functional ↔ analytic consistency: the license for extrapolation.

The benchmark harness extrapolates to 1024 ranks with analytic pattern
generators.  These tests pin the property that makes that honest: at
small scale, the analytic generators and the functional implementation
produce the *same message sizes*, because they share the layout /
partitioning code.
"""

import numpy as np
import pytest

from repro import mpi
from repro.core import InitialCondition, Solver, SolverConfig
from repro.fft import ALL_CONFIGS, DistributedFFT2D, FftConfig
from repro.fft.layouts import brick_layout, layout_for_stage
from repro.machine import (
    LASSEN,
    cutoff_evaluation,
    exact_evaluation,
    exact_hop_counts,
    fft_hop_counts,
    low_order_evaluation,
)
from repro.machine.patterns import _HALO_RECORD, _MIGRATE_RECORD, _RETURN_RECORD
from repro.util.misc import dims_create
from tests.conftest import spmd


class TestFftSizingConsistency:
    def test_traced_alltoallv_counts_match_layout_intersections(self):
        """Functional remap counts == the counts the model computes."""
        shape = (24, 24)
        nranks = 4
        trace = mpi.CommTrace()
        field = np.random.default_rng(0).normal(size=shape)

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, shape, FftConfig(alltoall=True))
            fft.forward(field[fft.brick_box.slices()])

        spmd(nranks, program, trace=trace)

        # First recorded alltoallv at rank 0 is the brick→rows hop.
        first = [
            ev for ev in trace.filter(kind="alltoallv", rank=0)
        ][0]
        dims = dims_create(nranks, 2)
        bricks = layout_for_stage("brick", shape, dims, pencils=True)
        rows = layout_for_stage("rows", shape, dims, pencils=True)
        expected = []
        for dst in range(nranks):
            inter = bricks[0].intersect(rows[dst])
            expected.append(0 if inter is None else inter.size * 16)
        assert list(first.counts) == expected

    def test_model_total_volume_matches_functional(self):
        """Total FFT wire bytes: functional trace vs analytic layouts."""
        shape = (16, 16)
        nranks = 4
        trace = mpi.CommTrace()
        field = np.random.default_rng(1).normal(size=shape)

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, shape, FftConfig(alltoall=False))
            with trace.phase("fft"):
                fft.forward(field[fft.brick_box.slices()])

        spmd(nranks, program, trace=trace)
        functional_bytes = trace.total_bytes(kind="send", phase="fft")

        dims = dims_create(nranks, 2)
        stages = [("brick", "rows"), ("rows", "cols"), ("cols", "brick")]
        modeled_bytes = 0
        for src_stage, dst_stage in stages:
            src = layout_for_stage(src_stage, shape, dims, pencils=True)
            dst = layout_for_stage(dst_stage, shape, dims, pencils=True)
            for rank in range(nranks):
                for peer in range(nranks):
                    if peer == rank:
                        continue  # functional p2p short-circuits self
                    inter = src[rank].intersect(dst[peer])
                    if inter is not None:
                        modeled_bytes += inter.size * 16
        assert functional_bytes == modeled_bytes

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"cfg{c.index}")
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_low_evaluation_bytes_match_model(self, nranks, cfg):
        """Traced messages of one LOW ``compute_derivatives`` == the
        model's, hop for hop: the ``alltoallv`` counts, or in
        point-to-point mode one send to each peer the model ships bytes
        to, with any ``reorder``; elided hops appear in neither (one
        rank: all four; a (2, 1) grid: brick ≡ rows, slab or pencil)."""
        shape = (16, 12)
        trace = mpi.CommTrace()
        config = SolverConfig(num_nodes=shape, order="low", dt=0.01, fft_config=cfg)
        ic = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)

        def program(comm):
            Solver(comm, config, ic).zmodel.compute_derivatives()

        spmd(nranks, program, trace=trace)
        for rank in range(nranks):
            hops = fft_hop_counts(nranks, shape, cfg, rank=rank)
            if cfg.alltoall:
                traced = [
                    list(ev.counts)
                    for ev in trace.filter(kind="alltoallv", rank=rank, phase="fft")
                ]
                assert traced == hops
                continue
            traced = [(ev.peer, ev.nbytes)
                      for ev in trace.filter(kind="send", rank=rank, phase="fft")]
            peers = [(rank + shift) % nranks for shift in range(1, nranks)]
            assert traced == [(peer, counts[peer]) for counts in hops
                              for peer in peers if counts[peer] > 0]
            assert not trace.filter(kind="alltoallv", rank=rank)


class TestExactRingConsistency:
    @pytest.mark.parametrize("shape", [(16, 12), (15, 13)])
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_traced_ring_sends_match_model(self, nranks, shape):
        """The ``br_ring`` phase's traced sends of one HIGH exact
        evaluation == :func:`exact_hop_counts`, hop for hop and rank for
        rank (ragged splits included; one rank sends nothing)."""
        trace = mpi.CommTrace()
        config = SolverConfig(num_nodes=shape, order="high", dt=0.01, eps=0.1)
        ic = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)

        def program(comm):
            Solver(comm, config, ic).zmodel.compute_derivatives()

        spmd(nranks, program, trace=trace)
        for rank in range(nranks):
            traced = [
                ev.nbytes
                for ev in trace.filter(kind="send", rank=rank, phase="br_ring")
            ]
            assert traced == exact_hop_counts(nranks, shape, rank)

    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 16, 1024])
    def test_ring_comm_is_the_pacing_hop_times_p_minus_one(self, nranks):
        """``exact_evaluation`` prices P−1 hops of rank 0's own block (the
        largest one), exactly as before the count function existed."""
        shape = (1023, 1021)
        dims = dims_create(nranks, 2)
        block = brick_layout(shape, dims)[0].size
        expected = (nranks - 1) * LASSEN.p2p_time(
            int(block * 6 * 8), same_node=False, nranks=nranks
        )
        model = exact_evaluation(nranks, shape, LASSEN)
        assert model.phases["br_ring"].comm == expected
        assert max(exact_hop_counts(nranks, shape), default=0) == (
            block * 48 if nranks > 1 else 0
        )


class TestSpatialWireFormat:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_spatial_hops_carry_whole_model_records(self, nranks):
        """Every traced ``alltoallv`` of the cutoff solver's spatial hops
        carries whole records of the widths :func:`cutoff_evaluation`
        prices: ``_MIGRATE_RECORD`` out, ``_RETURN_RECORD`` back (one
        per point that went out, peer for peer) and ``_HALO_RECORD`` per
        ghost copy."""
        shape = (16, 16)
        trace = mpi.CommTrace()
        config = SolverConfig(
            num_nodes=shape, low=(-np.pi, -np.pi), high=(np.pi, np.pi),
            periodic=(False, False), order="high", br_solver="cutoff",
            cutoff=1.2, dt=0.004, eps=0.1,
        )
        ic = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)

        def program(comm):
            solver = Solver(comm, config, ic)
            solver.zmodel.compute_derivatives()
            return int(np.prod(solver.mesh.owned_shape))

        owned = spmd(nranks, program, trace=trace)

        def records(event, width):
            assert all(c % width == 0 for c in event.counts), (event, width)
            return [c // width for c in event.counts]

        forward, back, ghosts = {}, {}, 0
        for rank in range(nranks):
            hops = trace.filter(kind="alltoallv", rank=rank, phase="migrate")
            halos = trace.filter(kind="alltoallv", rank=rank, phase="spatial_halo")
            assert len(hops) == 2 and len(halos) == 1
            forward[rank] = records(hops[0], _MIGRATE_RECORD)
            back[rank] = records(hops[1], _RETURN_RECORD)
            ghosts += sum(records(halos[0], _HALO_RECORD))
            assert sum(forward[rank]) == owned[rank]
        for rank in range(nranks):
            assert back[rank] == [forward[src][rank] for src in range(nranks)]
        assert ghosts > 0


class TestEvaluationModelStructure:
    def test_low_order_phases(self):
        model = low_order_evaluation(16, (256, 256), LASSEN)
        assert set(model.phases) == {"halo", "fft", "stencil"}
        assert model.phases["fft"].comm > 0
        assert model.phases["fft"].compute > 0
        assert model.phases["halo"].comm > 0
        assert model.phases["stencil"].compute > 0

    def test_cutoff_phases(self):
        model = cutoff_evaluation(
            16, (256, 256), LASSEN, cutoff=0.5, domain_extent=(6.0, 6.0)
        )
        assert {"halo", "migrate", "spatial_halo", "neighbor",
                "br_compute", "stencil"} <= set(model.phases)

    def test_totals_are_sums(self):
        model = low_order_evaluation(16, (256, 256), LASSEN)
        assert model.total == (
            __import__("pytest").approx(model.comm_total() + model.compute_total())
        )

    @pytest.mark.parametrize("nranks", [1, 2, 4, 6])
    def test_brick_layout_matches_partitioner(self, nranks):
        """The FFT brick layout is the surface mesh's owned blocks."""
        from repro.core import SurfaceMesh

        shape = (40, 28)

        def program(comm):
            mesh = SurfaceMesh(comm, (0, 0), (1, 1), shape, (True, True))
            return mesh.cart.dims, mesh.owned_space

        results = spmd(nranks, program)
        dims = results[0][0]
        assert [space for _, space in results] == brick_layout(shape, dims)
