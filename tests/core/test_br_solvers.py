"""BR solver internals: ring-pass structure, cutoff pipeline, images."""

import numpy as np
import pytest

from repro import mpi
from repro.core import (
    CutoffBRSolver,
    ExactBRSolver,
    InitialCondition,
    ProblemManager,
    SurfaceMesh,
    apply_initial_condition,
)
from repro.util.errors import ConfigurationError
from tests.conftest import spmd


def _setup(comm, periodic=True, n=16):
    bounds = (-np.pi, np.pi) if periodic else (-1.0, 1.0)
    mesh = SurfaceMesh(
        comm, (bounds[0],) * 2, (bounds[1],) * 2, (n, n), (periodic,) * 2
    )
    pm = ProblemManager(mesh)
    apply_initial_condition(
        pm, InitialCondition(kind="single_mode", magnitude=0.05)
    )
    omega = np.random.default_rng(3).normal(size=pm.z.own.shape)
    return mesh, pm, omega


class TestExactRingPass:
    def test_ring_message_structure(self):
        """P ranks → P−1 hops, each one Sendrecv per rank, phase br_ring."""
        trace = mpi.CommTrace()

        def program(comm):
            mesh, pm, omega = _setup(comm)
            solver = ExactBRSolver(mesh.cart, mesh, eps=0.1)
            solver.compute_velocities(pm.z.own, omega)

        P = 4
        spmd(P, program, trace=trace)
        sends = trace.filter(kind="send", phase="br_ring")
        assert len(sends) == P * (P - 1)
        # Every send goes to rank+1 (the ring).
        for ev in sends:
            assert ev.peer == (ev.rank + 1) % P

    def test_result_independent_of_decomposition(self):
        def program(comm):
            mesh, pm, _ = _setup(comm)
            X, Y = np.broadcast_arrays(*mesh.owned_coordinates())
            omega = np.stack(
                [np.sin(X), np.cos(Y),
                 np.zeros_like(pm.z.own[..., 0])], axis=-1,
            )
            solver = ExactBRSolver(mesh.cart, mesh, eps=0.1)
            out = solver.compute_velocities(pm.z.own, omega)
            from repro.core import gather_global_state

            # Reuse the gather helper by writing into pm (hack-free way:
            # gather velocity blocks directly).
            blocks = comm.gather(
                (mesh.owned_space.mins, out), root=0
            )
            if comm.rank != 0:
                return None
            full = np.zeros((16, 16, 3))
            for mins, block in blocks:
                i0, j0 = mins
                ni, nj = block.shape[:2]
                full[i0: i0 + ni, j0: j0 + nj] = block
            return full

        serial = spmd(1, program)[0]
        parallel = spmd(4, program)[0]
        np.testing.assert_allclose(parallel, serial, rtol=1e-10, atol=1e-14)

    def test_images_amplify_velocity(self):
        """Periodic images add constructive contributions on low modes."""

        def program(comm, images):
            mesh, pm, _ = _setup(comm)
            X, Y = np.broadcast_arrays(*mesh.owned_coordinates())
            omega = np.stack(
                [np.cos(X) * np.sin(Y), -np.sin(X) * np.cos(Y),
                 np.zeros_like(X)], axis=-1,
            )
            solver = ExactBRSolver(mesh.cart, mesh, eps=1e-6,
                                   periodic_images=images)
            out = solver.compute_velocities(pm.z.own, omega)
            return float(np.abs(out[..., 2]).max())

        plain = spmd(2, program, False)[0]
        imaged = spmd(2, program, True)[0]
        assert imaged > plain

    def test_images_require_periodic(self):
        def program(comm):
            mesh, _, _ = _setup(comm, periodic=False)
            with pytest.raises(ConfigurationError):
                ExactBRSolver(mesh.cart, mesh, eps=0.1, periodic_images=True)
            return True

        assert spmd(1, program)[0]

    @pytest.mark.parametrize("backend", ["numpy", "blocked"])
    @pytest.mark.parametrize("images", [False, True])
    def test_stack_with_per_member_eps_equals_each_alone(self, backend, images):
        """A (B, …) stack with one ε per member: each member's velocity
        is bitwise the one a solver with that ε computes for it alone."""
        eps = np.array([0.05, 0.1, 0.3])
        rng = np.random.default_rng(5)

        def program(comm):
            mesh, pm, _ = _setup(comm, n=8)
            z = pm.z.own + 0.01 * rng.normal(size=(3,) + pm.z.own.shape)
            omega = rng.normal(size=z.shape)
            stacked = ExactBRSolver(
                mesh.cart, mesh, eps, periodic_images=images, backend=backend
            ).compute_velocities(z, omega)
            alone = [
                ExactBRSolver(
                    mesh.cart, mesh, e, periodic_images=images, backend=backend
                ).compute_velocities(z[b], omega[b])
                for b, e in enumerate(eps)
            ]
            return np.array_equal(stacked, np.stack(alone))

        assert spmd(1, program)[0]

    def test_approximate_solvers_refuse_a_stack(self):
        def program(comm):
            mesh, pm, omega = _setup(comm, n=8)
            solver = CutoffBRSolver(
                mesh.cart, mesh, 0.1, 0.5, (-4.0, -4.0, -2.0), (4.0, 4.0, 2.0)
            )
            z = np.stack([pm.z.own, pm.z.own])
            with pytest.raises(ConfigurationError, match="one scenario"):
                solver.compute_velocities(z, np.stack([omega, omega]))
            return True

        assert spmd(1, program)[0]


class TestCutoffPipeline:
    def test_phase_sequence_recorded(self):
        trace = mpi.CommTrace()

        def program(comm):
            mesh, pm, omega = _setup(comm, periodic=False)
            solver = CutoffBRSolver(
                mesh.cart, mesh, eps=0.05, cutoff=0.5,
                spatial_low=(-2, -2, -1), spatial_high=(2, 2, 1),
            )
            solver.compute_velocities(pm.z.own, omega)
            return solver.last_owned_count, solver.last_pair_count

        results = spmd(4, program, trace=trace)
        assert sum(r[0] for r in results) == 16 * 16   # all points owned once
        assert all(r[1] > 0 for r in results)
        phases = [ev.phase for ev in trace.filter(kind="alltoallv")]
        assert "migrate" in phases and "spatial_halo" in phases

    def test_invalid_cutoff_raises(self):
        def program(comm):
            mesh, _, _ = _setup(comm, periodic=False)
            with pytest.raises(ConfigurationError):
                CutoffBRSolver(mesh.cart, mesh, eps=0.1, cutoff=0.0,
                               spatial_low=(-1, -1, -1), spatial_high=(1, 1, 1))
            return True

        assert spmd(1, program)[0]

    def test_ownership_counts_shape(self):
        def program(comm):
            mesh, pm, omega = _setup(comm, periodic=False)
            solver = CutoffBRSolver(
                mesh.cart, mesh, eps=0.05, cutoff=0.5,
                spatial_low=(-2, -2, -1), spatial_high=(2, 2, 1),
            )
            solver.compute_velocities(pm.z.own, omega)
            return solver.ownership_counts()

        counts = spmd(4, program)[0]
        assert counts.shape == (4,)
        assert counts.sum() == 256
