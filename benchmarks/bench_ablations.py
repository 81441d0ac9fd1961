"""Ablation benches for the reproduction's own design choices.

Not paper figures — these quantify the cost of specific design
decisions in the reproduction:

* halo depth 2 (4th-order stencils) vs depth 1;
* cutoff distance accuracy/performance tradeoff (paper §3.2 discusses
  it qualitatively; we measure it);
* collective algorithm choices inside the machine model;
* functional cost of the two redistribution backends.
"""

import numpy as np
import pytest

from repro import mpi
from repro.core import (
    InitialCondition,
    Solver,
    SolverConfig,
    SurfaceMesh,
    gather_global_state,
)
from repro.fft import DistributedFFT2D, FftConfig
from repro.grid import NodeArray
from repro.machine import LASSEN, alltoallv_time, halo_phase

from common import print_series, save_results


class TestHaloDepthAblation:
    def test_depth2_costs_twice_the_volume(self, benchmark):
        """Depth-2 halos (4th-order stencils) ship 2× the depth-1 bytes."""

        def run(depth):
            class Mesh(SurfaceMesh):
                HALO_WIDTH = depth

            trace = mpi.CommTrace()

            def program(comm):
                cart = mpi.create_cart(comm, ndims=2, periods=(True, True))
                mesh = Mesh(cart, (0, 0), (1, 1), (64, 64), (True, True))
                mesh.halo.gather([NodeArray(mesh, 5).full])

            mpi.run_spmd(4, program, trace=trace)
            return trace.total_bytes(kind="send")

        b1, b2 = run(1), run(2)
        ratio = b2 / b1
        print(f"\nhalo bytes: depth1={b1} depth2={b2} ratio={ratio:.3f}")
        save_results("ablation_halo_depth", {"depth1": b1, "depth2": b2})
        assert 1.9 < ratio < 2.2
        # Modeled cost ratio agrees.
        m1 = halo_phase(4, (32, 32), 5, LASSEN, halo=1).comm
        m2 = halo_phase(4, (32, 32), 5, LASSEN, halo=2).comm
        assert m2 > m1
        benchmark(lambda: run(2))


class TestCutoffDistanceAblation:
    def test_accuracy_vs_pairs_tradeoff(self, benchmark):
        """Smaller cutoffs: fewer pairs, larger deviation from exact."""
        base = dict(
            num_nodes=(16, 16), low=(-1, -1), high=(1, 1),
            periodic=(False, False), order="high", dt=0.004, eps=0.05,
            spatial_low=(-2, -2, -1), spatial_high=(2, 2, 1),
        )
        ic = InitialCondition(kind="single_mode", magnitude=0.08, period=0.5)

        def run(cfg):
            def program(comm):
                solver = Solver(comm, cfg, ic)
                solver.run(2)
                z, _ = gather_global_state(solver.pm)
                pairs = 0
                if solver.br_solver is not None and hasattr(
                    solver.br_solver, "last_pair_count"
                ):
                    pairs = comm.allreduce(solver.br_solver.last_pair_count)
                return z, pairs

            return mpi.run_spmd(4, program)[0]

        z_exact, _ = run(SolverConfig(br_solver="exact", **base))
        rows = []
        prev_pairs = None
        for cutoff in (3.0, 1.0, 0.5, 0.25):
            z_c, pairs = run(
                SolverConfig(br_solver="cutoff", cutoff=cutoff, **base)
            )
            err = float(np.abs(z_c[..., 2] - z_exact[..., 2]).max())
            rows.append([cutoff, pairs, err])
            if prev_pairs is not None:
                assert pairs <= prev_pairs
            prev_pairs = pairs
        print_series(
            "Ablation: cutoff distance vs pairs and error",
            ["cutoff", "total pairs", "max |Δz3| vs exact"],
            rows,
        )
        save_results(
            "ablation_cutoff_distance",
            {"header": ["cutoff", "pairs", "max_err"], "rows": rows},
        )
        errs = [e for _, _, e in rows]
        assert errs[0] < errs[-1]          # accuracy decays with cutoff
        benchmark(lambda: run(SolverConfig(br_solver="cutoff", cutoff=0.5, **base)))


class TestCollectiveAlgorithmAblation:
    def test_bruck_vs_pairwise_regimes(self, benchmark):
        """The model switches algorithms exactly where each wins."""
        rows = []
        for p, msg in ((64, 64), (64, 10**6), (1024, 64), (1024, 10**5)):
            counts = [msg] * p
            builtin = alltoallv_time(p, counts, LASSEN, builtin=True)
            custom = alltoallv_time(p, counts, LASSEN, builtin=False)
            rows.append([p, msg, builtin, custom])
        print_series(
            "Ablation: alltoallv algorithm costs",
            ["P", "bytes/peer", "builtin (s)", "custom p2p (s)"],
            rows,
        )
        save_results(
            "ablation_collectives",
            {"header": ["P", "bytes", "builtin", "custom"], "rows": rows},
        )
        # Tiny messages at scale: builtin (Bruck) must crush pairwise.
        tiny = rows[2]
        assert tiny[2] < tiny[3]
        benchmark(lambda: alltoallv_time(1024, [64] * 1024, LASSEN))


class TestCommBackendAblation:
    @pytest.mark.parametrize("nranks", [4, 9])
    def test_backend_volume_identical(self, benchmark, nranks):
        """Both redistribution backends ship identical wire volume."""
        n = 24
        field = np.random.default_rng(5).normal(size=(n, n))

        def run(alltoall):
            trace = mpi.CommTrace()

            def program(comm):
                cart = mpi.create_cart(comm, ndims=2)
                fft = DistributedFFT2D(
                    cart, (n, n), FftConfig(alltoall=alltoall)
                )
                fft.forward(field[fft.brick_box.slices()])

            mpi.run_spmd(nranks, program, trace=trace)
            return trace

        coll = run(True)
        p2p = run(False)
        coll_bytes = coll.total_bytes(kind="alltoallv")
        p2p_bytes = p2p.total_bytes(kind="send")
        # Collective counts include the self-block; subtract it for
        # comparison with p2p (which short-circuits self locally).
        self_bytes = sum(
            ev.counts[ev.rank]
            for ev in coll.filter(kind="alltoallv")
            if ev.counts is not None
        )
        assert coll_bytes - self_bytes == p2p_bytes
        benchmark(lambda: run(False))
