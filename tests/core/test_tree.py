"""TreeBRSolver: convergence to exact, backends, ranks, config plumbing."""

import numpy as np
import pytest

from repro import mpi
from repro.core import (
    ExactBRSolver,
    InitialCondition,
    ProblemManager,
    Solver,
    SolverConfig,
    SurfaceMesh,
    TreeBRSolver,
    apply_initial_condition,
    available_br_solvers,
)
from repro.machine import LASSEN
from repro.machine.patterns import step_time, tree_evaluation
from repro.util.errors import ConfigurationError
from tests.conftest import ENGINES, spmd

N = 16


def _setup(comm, periodic=True, n=N):
    bounds = (-np.pi, np.pi) if periodic else (-1.0, 1.0)
    mesh = SurfaceMesh(
        comm, (bounds[0],) * 2, (bounds[1],) * 2, (n, n), (periodic,) * 2
    )
    pm = ProblemManager(mesh)
    apply_initial_condition(
        pm, InitialCondition(kind="multi_mode", magnitude=0.05, period=4)
    )
    X, Y = np.broadcast_arrays(*mesh.owned_coordinates())
    omega = np.stack(
        [np.cos(X) * np.sin(Y), -np.sin(X) * np.cos(Y), 0.1 * np.cos(X)],
        axis=-1,
    )
    return mesh, pm, omega


def _relative_error(comm_program_args):
    """Run tree vs exact on one rank, return the relative W error."""
    theta, backend, periodic = comm_program_args

    def program(comm):
        mesh, pm, omega = _setup(comm, periodic=periodic)
        exact = ExactBRSolver(mesh.cart, mesh, eps=0.1, backend=backend)
        tree = TreeBRSolver(
            mesh.cart, mesh, eps=0.1, theta=theta, leaf_size=8,
            backend=backend,
        )
        we = exact.compute_velocities(pm.z.own, omega)
        wt = tree.compute_velocities(pm.z.own, omega)
        return float(np.linalg.norm(wt - we) / np.linalg.norm(we))

    return spmd(1, program)[0]


class TestConvergenceMatrix:
    """theta x backend x periodicity: the ISSUE 4 acceptance matrix."""

    THETAS = (0.0, 0.3, 0.7)

    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize("periodic", (True, False))
    def test_converges_to_exact(self, backend, periodic):
        errors = {
            theta: _relative_error((theta, backend, periodic))
            for theta in self.THETAS
        }
        # theta = 0 degenerates to exact pair sums (same pairs, possibly
        # different summation order).
        assert errors[0.0] < 1e-12, errors
        # Error shrinks monotonically as the MAC tightens.
        assert errors[0.0] <= errors[0.3] <= errors[0.7], errors
        # And even the loose setting is a genuine approximation.
        assert errors[0.7] < 0.1, errors

    def test_backends_agree(self):
        errors = [
            _relative_error((0.5, backend, False))
            for backend in ENGINES
        ]
        first = errors[0]
        for err in errors[1:]:
            assert abs(err - first) < 1e-10


class TestTreeSolver:
    def test_result_independent_of_decomposition(self):
        def program(comm):
            mesh, pm, omega = _setup(comm)
            solver = TreeBRSolver(mesh.cart, mesh, eps=0.1, theta=0.5,
                                  leaf_size=8)
            out = solver.compute_velocities(pm.z.own, omega)
            blocks = comm.gather(
                (mesh.owned_space.mins, out), root=0
            )
            if comm.rank != 0:
                return None
            full = np.zeros((N, N, 3))
            for mins, block in blocks:
                i0, j0 = mins
                ni, nj = block.shape[:2]
                full[i0: i0 + ni, j0: j0 + nj] = block
            return full

        serial = spmd(1, program)[0]
        parallel = spmd(4, program)[0]
        np.testing.assert_allclose(parallel, serial, rtol=1e-10, atol=1e-14)

    def test_near_field_independent_of_decomposition(self):
        """At leaf_size 32 every rank sums near sub-panels, and the
        sub-panel path agrees between 1 and 4 ranks."""
        def program(comm):
            mesh, pm, omega = _setup(comm)
            solver = TreeBRSolver(mesh.cart, mesh, eps=0.1, theta=0.5,
                                  leaf_size=32)
            out = solver.compute_velocities(pm.z.own, omega)
            blocks = comm.gather((mesh.owned_space.mins, out), root=0)
            near = comm.allgather(solver.interaction_stats()["near_pairs"])
            if comm.rank != 0:
                return None
            full = np.zeros((N, N, 3))
            for (i0, j0), block in blocks:
                full[i0: i0 + block.shape[0], j0: j0 + block.shape[1]] = block
            return full, near

        serial, near_1 = spmd(1, program)[0]
        parallel, near_4 = spmd(4, program)[0]
        assert min(near_1 + near_4) > 0
        np.testing.assert_allclose(parallel, serial, rtol=1e-10, atol=1e-14)

    def test_phase_sequence_recorded(self):
        trace = mpi.CommTrace()

        def program(comm):
            mesh, pm, omega = _setup(comm)
            solver = TreeBRSolver(mesh.cart, mesh, eps=0.1, theta=0.5,
                                  leaf_size=8)
            solver.compute_velocities(pm.z.own, omega)
            return solver.interaction_stats()

        results = spmd(4, program, trace=trace)
        assert all(r["far_pairs"] > 0 for r in results)
        gathers = trace.filter(kind="allgather", phase="tree_gather")
        assert len(gathers) == 4
        kernels = {ev.kernel for ev in trace.compute_events}
        assert {"tree_moments", "mac_walk", "tree_farfield"} <= kernels

    def test_interactions_scale_subquadratically(self):
        def program(comm):
            mesh, pm, omega = _setup(comm, n=32)
            solver = TreeBRSolver(mesh.cart, mesh, eps=0.1, theta=0.5,
                                  leaf_size=16)
            solver.compute_velocities(pm.z.own, omega)
            return solver.last_pair_count

        pairs = spmd(1, program)[0]
        assert 0 < pairs < (32 * 32) ** 2 / 4

    def test_validation(self):
        def program(comm):
            mesh, _, _ = _setup(comm)
            with pytest.raises(ConfigurationError):
                TreeBRSolver(mesh.cart, mesh, eps=0.1, theta=1.0)
            with pytest.raises(ConfigurationError):
                TreeBRSolver(mesh.cart, mesh, eps=0.1, theta=-0.1)
            with pytest.raises(ConfigurationError):
                TreeBRSolver(mesh.cart, mesh, eps=0.1, leaf_size=0)
            return True

        assert spmd(1, program)[0]


class TestSolverIntegration:
    def test_registry_lists_tree(self):
        assert available_br_solvers() == ["exact", "cutoff", "tree"]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(theta=1.5)
        with pytest.raises(ConfigurationError):
            SolverConfig(leaf_size=0)
        with pytest.raises(ConfigurationError):
            Solver_config = SolverConfig(order="high", br_solver="octree")
            mpi.run_spmd(1, lambda comm: Solver(
                comm, Solver_config, InitialCondition(kind="flat")
            ))

    def test_high_order_tree_run(self):
        config = SolverConfig(
            num_nodes=(12, 12), periodic=(False, False), order="high",
            br_solver="tree", theta=0.5, leaf_size=8, dt=0.005,
        )
        ic = InitialCondition(kind="single_mode", magnitude=0.05)

        def program(comm):
            solver = Solver(comm, config, ic)
            solver.run(2)
            return solver.diagnostics()

        diag = mpi.run_spmd(2, program)[0]
        assert diag["steps"] == 2
        assert np.isfinite(diag["amplitude"])

    def test_tree_matches_exact_solver_run_at_theta_zero(self):
        ic = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)

        def run(br_solver, **overrides):
            config = SolverConfig(
                num_nodes=(12, 12), periodic=(False, False), order="high",
                br_solver=br_solver, dt=0.005, **overrides,
            )

            def program(comm):
                solver = Solver(comm, config, ic)
                solver.run(2)
                return solver.diagnostics()

            return mpi.run_spmd(1, program)[0]

        exact = run("exact")
        tree = run("tree", theta=0.0, leaf_size=8)
        assert np.isclose(tree["amplitude"], exact["amplitude"],
                          rtol=1e-10, atol=1e-12)
        assert np.isclose(tree["vorticity_norm"], exact["vorticity_norm"],
                          rtol=1e-10, atol=1e-12)


class TestMachinePattern:
    def test_tree_cheaper_than_exact_at_scale(self):
        from repro.machine.patterns import exact_evaluation

        shape = (512, 512)
        tree = step_time(tree_evaluation(64, shape, LASSEN, theta=0.5))
        exact = step_time(exact_evaluation(64, shape, LASSEN))
        assert tree < exact

    def test_tighter_theta_costs_more(self):
        shape = (256, 256)
        loose = step_time(tree_evaluation(16, shape, LASSEN, theta=0.7))
        tight = step_time(tree_evaluation(16, shape, LASSEN, theta=0.2))
        assert tight > loose

    def test_phases_present(self):
        model = tree_evaluation(16, (128, 128), LASSEN)
        assert {"halo", "tree_gather", "tree_build", "tree_walk",
                "br_compute", "stencil"} <= set(model.phases)

    def test_scheduler_dispatches_tree(self):
        from repro.campaign.deck import RunSpec
        from repro.campaign.scheduler import evaluation_model

        spec = RunSpec(
            config=SolverConfig(order="high", br_solver="tree",
                                periodic=(False, False), theta=0.4),
            ic=InitialCondition(kind="flat"),
            ranks=4, steps=5,
        )
        model = evaluation_model(spec)
        assert "tree_gather" in model.phases


#: Digest of the final global ``z`` / ``w`` of a 16² high-order tree run
#: (θ = 0.5, blocked engine) after 20 steps, keyed by rank count.  A
#: change here is a numerics change: see ``NUMERICS_VERSION``.
TREE_STATES = {
    1: "01a16f634c007737",
    2: "01a16f634c007737",
}

#: The arithmetic canary of the host the digests were recorded on.
ARITHMETIC_CANARY = "9ead8a9764082226"


@pytest.mark.parametrize("ranks", list(TREE_STATES))
def test_tree_state_pinned(ranks):
    from repro.core.diagnostics import gather_global_state
    from repro.core.solver import arithmetic_canary, state_digest

    if arithmetic_canary() != ARITHMETIC_CANARY:
        pytest.skip("snapshot recorded on a host with other BLAS/SIMD rounding")
    config = SolverConfig(
        num_nodes=(16, 16), order="high", periodic=(False, False),
        br_solver="tree", theta=0.5, dt=0.002,
    )
    ic = InitialCondition(kind="multi_mode", magnitude=0.05, period=4)

    def program(comm):
        solver = Solver(comm, config, ic)
        solver.run(20)
        return gather_global_state(solver.pm)

    z, w = spmd(ranks, program)[0]
    assert state_digest(z, w) == TREE_STATES[ranks]


def test_gather_copies_each_byte_once(monkeypatch):
    """Each rank receives every rank's (positions | vorticity) block as a
    borrowed view and copies it once, straight into the tree's sources:
    when the tree is built, a rank holds its own payload, its owned
    coordinates and one copy of the gathered points — not the returned
    blocks and their concatenation besides."""
    import threading
    import tracemalloc

    from repro.core import br_tree

    n, ranks = 64, 2
    gate = threading.Barrier(ranks)
    held = []
    real_build = br_tree.build_quadtree
    measuring = threading.Event()

    def build(*args, **kwargs):
        if measuring.is_set():
            gate.wait()                 # every rank has its sources
            held.append(tracemalloc.get_traced_memory()[0])
            gate.wait()
        return real_build(*args, **kwargs)

    monkeypatch.setattr(br_tree, "build_quadtree", build)

    def program(comm):
        mesh, pm, omega = _setup(comm, n=n)
        solver = TreeBRSolver(mesh.cart, mesh, eps=0.1, theta=0.5,
                              leaf_size=8)
        for _ in range(2):      # the gather's pooled send buffers settle
            solver.compute_velocities(pm.z.own, omega)
        gate.wait()
        if comm.rank == 0:
            tracemalloc.start()
            measuring.set()
        gate.wait()
        try:
            solver.compute_velocities(pm.z.own, omega)
        finally:
            gate.wait()
            if comm.rank == 0:
                measuring.clear()
                tracemalloc.stop()
        return pm.z.own[..., 0].size

    owned = spmd(ranks, program)
    payload = 6 * 8                                   # bytes per point
    bound = 1.2 * sum(2 * payload * k + payload * n * n for k in owned)
    assert len(held) == ranks and min(held) < bound
