"""ZModel wiring: order requirements, phases, parameter effects."""

from collections import Counter

import numpy as np
import pytest

from repro import mpi
from repro.backend import get_backend
from repro.batch import ScenarioFleet
from repro.core import (
    InitialCondition,
    ProblemManager,
    Solver,
    SolverConfig,
    SurfaceMesh,
    apply_initial_condition,
)
from repro.core import operators as ops
from repro.core.zmodel import Order, ZModel, ZModelParameters
from repro.fft import DistributedFFT2D, riesz_multiplier
from repro.util.errors import ConfigurationError
from tests.conftest import spmd


class TestOrderParsing:
    def test_strings(self):
        assert Order.parse("low") is Order.LOW
        assert Order.parse("HIGH") is Order.HIGH
        assert Order.parse(Order.MEDIUM) is Order.MEDIUM

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            Order.parse("ultra")


class TestZModelValidation:
    def _mesh_pm(self, comm, periodic=True):
        bounds = np.pi if periodic else 1.0
        mesh = SurfaceMesh(comm, (-bounds, -bounds), (bounds, bounds),
                           (16, 16), (periodic, periodic))
        pm = ProblemManager(mesh)
        apply_initial_condition(pm, InitialCondition(kind="flat"))
        return mesh, pm

    def test_low_requires_fft(self):
        def program(comm):
            _, pm = self._mesh_pm(comm)
            with pytest.raises(ConfigurationError):
                ZModel(pm, "low", ZModelParameters())
            return True

        assert spmd(1, program)[0]

    def test_low_requires_periodic(self):
        def program(comm):
            mesh, pm = self._mesh_pm(comm, periodic=False)
            # Construct an FFT anyway: the order check must fire first.
            with pytest.raises(ConfigurationError):
                fft = DistributedFFT2D(mesh.cart, (16, 16))
                ZModel(pm, "low", ZModelParameters(), fft=fft)
            return True

        assert spmd(1, program)[0]

    def test_high_requires_br_solver(self):
        def program(comm):
            _, pm = self._mesh_pm(comm)
            with pytest.raises(ConfigurationError):
                ZModel(pm, "high", ZModelParameters())
            return True

        assert spmd(1, program)[0]

    def test_fft_shape_mismatch(self):
        def program(comm):
            mesh, pm = self._mesh_pm(comm)
            fft = DistributedFFT2D(mesh.cart, (8, 8))
            with pytest.raises(ConfigurationError):
                ZModel(pm, "low", ZModelParameters(), fft=fft)
            return True

        assert spmd(1, program)[0]


class TestParameterEffects:
    def _derivatives(self, comm, **params):
        cfg = SolverConfig(
            num_nodes=(16, 16), low=(-np.pi, -np.pi), high=(np.pi, np.pi),
            order="low", dt=0.01, **params,
        )
        solver = Solver(
            comm, cfg, InitialCondition(kind="single_mode", magnitude=0.05)
        )
        # Seed some vorticity so μ and A pathways are active.
        X, Y = np.broadcast_arrays(*solver.mesh.owned_coordinates())
        w = np.stack([np.sin(X), np.cos(Y)], axis=-1)
        solver.pm.set_state(solver.pm.z.own.copy(), w)
        return solver.zmodel.compute_derivatives()

    def test_atwood_scales_vorticity_production(self):
        def program(comm):
            _, w1 = self._derivatives(comm, atwood=0.25, bernoulli=0.0, mu=0.0)
            _, w2 = self._derivatives(comm, atwood=0.5, bernoulli=0.0, mu=0.0)
            return w1, w2

        w1, w2 = spmd(1, program)[0]
        # γ̇ ∝ A; subtract the common μΔγ (zero here).
        np.testing.assert_allclose(w2, 2.0 * w1, rtol=1e-10)

    def test_viscosity_adds_laplacian(self):
        def program(comm):
            _, w0 = self._derivatives(comm, mu=0.0, bernoulli=0.0)
            _, w1 = self._derivatives(comm, mu=0.5, bernoulli=0.0)
            return w0, w1

        w0, w1 = spmd(1, program)[0]
        diff = w1 - w0
        # sin(x) Laplacian ≈ -sin(x): μΔγ term visible and bounded.
        assert np.abs(diff).max() > 0.1
        assert np.isfinite(diff).all()

    def test_bernoulli_term_second_order(self):
        """β|W|²/2 is negligible for tiny amplitudes, active for large."""

        def program(comm):
            z_small_0, _ = self._derivatives(comm, bernoulli=0.0)
            z_small_1, _ = self._derivatives(comm, bernoulli=1.0)
            return np.abs(z_small_1 - z_small_0).max()

        # ż itself doesn't contain Φ: identical by construction.
        assert spmd(1, program)[0] == 0.0

    def test_evaluation_counter(self):
        def program(comm):
            cfg = SolverConfig(num_nodes=(16, 16), order="low", dt=0.01)
            solver = Solver(comm, cfg, InitialCondition(kind="flat"))
            solver.run(2)
            return solver.zmodel.evaluations

        assert spmd(1, program)[0] == 6  # RK3: three per step

    def test_trace_phases_low_order(self):
        trace = mpi.CommTrace()
        cfg = SolverConfig(num_nodes=(16, 16), order="low", dt=0.01)

        def program(comm):
            Solver(comm, cfg, InitialCondition(kind="flat")).step()

        spmd(4, program, trace=trace)
        phases = set(trace.phases())
        assert {"halo", "fft", "stencil"} <= phases
        assert "br_ring" not in phases


def _textbook_w3(gamma, extent):
    """Two forwards, one backward: ``Re F⁻¹[i (k₁γ̂2 − k₂γ̂1) / (2|k|)]``,
    the formulation the packed transform pair replaced."""
    n1, n2 = gamma.shape[:2]
    kx, ky = np.meshgrid(
        2 * np.pi * np.fft.fftfreq(n1, d=extent[0] / n1),
        2 * np.pi * np.fft.fftfreq(n2, d=extent[1] / n2),
        indexing="ij",
    )
    kmag = np.hypot(kx, ky)
    kmag[0, 0] = np.inf
    g1_hat = np.fft.fft2(gamma[..., 0])
    g2_hat = np.fft.fft2(gamma[..., 1])
    return np.fft.ifft2(1j * (kx * g2_hat - ky * g1_hat) / (2 * kmag)).real


class TestPackedSpectralVelocity:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    @pytest.mark.parametrize("shape", [(16, 12), (15, 9), (16, 9), (15, 12)])
    def test_matches_textbook_formula_on_rough_input(self, shape, nranks, rng):
        """Random (non-smooth) γ pins the Nyquist zeroing of k′: even
        axes carry a Nyquist mode, odd ones do not."""
        gamma = rng.normal(size=shape + (2,))
        extent = (2 * np.pi, 3.0)
        want = _textbook_w3(gamma, extent)
        assert riesz_multiplier(shape, extent)[0, 0] == 0.0  # no mean flow

        def program(comm):
            mesh = SurfaceMesh(comm, (0.0, 0.0), extent, shape, (True, True))
            pm = ProblemManager(mesh)
            fft = DistributedFFT2D(mesh.cart, shape)
            model = ZModel(pm, "low", ZModelParameters(), fft=fft)
            box = fft.brick_box.slices()
            pm.set_state(np.zeros(fft.brick_box.shape + (3,)), gamma[box])
            before = pm.w.own.copy()
            got = model._spectral_velocity(pm.w.planes)
            assert np.array_equal(pm.w.own, before)  # input never written
            np.testing.assert_allclose(
                got, want[box], rtol=0, atol=1e-13 * np.abs(want).max()
            )
            return True

        assert all(spmd(nranks, program))

    @pytest.mark.parametrize("nranks, alltoallv_per_rank", [(1, 0), (2, 2), (4, 4)])
    def test_one_evaluation_hop_counts(self, nranks, alltoallv_per_rank):
        """One LOW evaluation = one transposed pair: a (2, 1) grid pays
        one real hop per transform, (2, 2) pencils two, one rank none."""
        trace = mpi.CommTrace()
        cfg = SolverConfig(num_nodes=(16, 16), order="low", dt=0.01)
        ic = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)

        def program(comm):
            solver = Solver(comm, cfg, ic)
            before = solver.pm.w.own.copy()
            solver.zmodel.compute_derivatives()
            return np.array_equal(solver.pm.w.own, before)

        assert all(spmd(nranks, program, trace=trace))
        for rank in range(nranks):
            kinds = [ev.kind for ev in trace.events
                     if ev.rank == rank and ev.phase == "fft"]
            assert kinds == ["alltoallv"] * alltoallv_per_rank


def _graph_config(order="low", nodes=(24, 24)):
    return SolverConfig(
        num_nodes=nodes, low=(-np.pi, -np.pi), high=(np.pi, np.pi),
        order=order, dt=0.01,
    )


GRAPH_IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)


class TestGraphSurface:
    """At low order ż = (0, 0, W₃): the lateral positions are the mesh
    coordinates the initial condition set, bit for bit, for all time."""

    @pytest.mark.parametrize("backend", ["numpy", "blocked"])
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_lateral_positions_never_move(self, nranks, backend):
        def program(comm):
            solver = Solver(comm, _graph_config(), GRAPH_IC, backend=backend)
            X, Y = np.broadcast_arrays(*solver.mesh.owned_coordinates())
            solver.run(3)
            z = solver.pm.z.own
            return (np.array_equal(z[..., 0], X) and np.array_equal(z[..., 1], Y)
                    and bool(np.abs(z[..., 2]).max() > 0))

        assert all(spmd(nranks, program))

    def test_fleet_lateral_positions_never_move(self):
        config = _graph_config(nodes=(16, 16))
        fleet = ScenarioFleet(config, retain_state=True)
        ids = fleet.add_many([
            (config, InitialCondition(kind="multi_mode", magnitude=0.05,
                                      period=3, seed=k), 3)
            for k in range(4)
        ])
        results = fleet.run()
        X, Y = np.broadcast_arrays(*spmd(
            1, lambda comm: Solver(comm, config, GRAPH_IC).mesh.owned_coordinates()
        )[0])
        for sid in ids:
            z = results[sid]["z"]
            assert np.array_equal(z[..., 0], X)
            assert np.array_equal(z[..., 1], Y)

    def test_medium_lateral_positions_move(self):
        def program(comm):
            solver = Solver(comm, _graph_config("medium", nodes=(16, 16)),
                            GRAPH_IC, backend="numpy")
            X, Y = np.broadcast_arrays(*solver.mesh.owned_coordinates())
            solver.step()
            z = solver.pm.z.own
            return not (np.array_equal(z[..., 0], X) and np.array_equal(z[..., 1], Y))

        assert spmd(1, program)[0]


class TestGraphForm:
    """sqrt(1 + p² + q²) of the graph of z₃ is the general |t₁ × t₂|."""

    @pytest.mark.parametrize("backend", ["numpy", "blocked"])
    @pytest.mark.parametrize("kind", ["multi_mode", "single_mode"])
    def test_graph_area_element_is_the_general_one(self, kind, backend):
        ic = InitialCondition(kind=kind, magnitude=0.3)
        config = _graph_config(nodes=(64, 48))

        def program(comm):
            solver = Solver(comm, config, ic, backend=backend)
            solver.step()
            pm, bk = solver.pm, get_backend(backend)
            pm.gather_state()
            z_full = ops.as_stack(pm.z.full)
            deth, omega = solver.zmodel._geometry(z_full, ops.as_stack(pm.w.planes))
            dx_, dy_ = solver.mesh.global_mesh.spacings
            general = ops.area_element(ops.cross(
                np.moveaxis(bk.stencil_dx(z_full, dx_), 1, -1),
                np.moveaxis(bk.stencil_dy(z_full, dy_), 1, -1),
            ))
            assert omega is None and deth.min() >= 1.0
            assert deth.max() > 1.01  # the surface is not flat
            return float(np.abs(deth / general - 1.0).max())

        assert max(spmd(2, program)) <= 1e-14


#: One 2-rank 32² LOW step, recorded before low order became a graph
#: surface: (phase, kind) → (messages, bytes) of the halo and FFT hops,
#: and kernel → {(items, flops, bytes_moved): events} of the modeled
#: geometry and RK3 costs, which price the general surface.
LOW_STEP_COMM = {
    ("fft", "alltoallv"): (12, 98304),
    ("halo", "recv"): (56, 76544),
    ("halo", "send"): (56, 76544),
}
LOW_STEP_COMPUTE = {
    "geometry": {(512, 20480.0, 45056.0): 6},
    "rk3_axpy": {(2560, 12800.0, 81920.0): 6},
}


class TestLowOrderTraceContract:
    def test_messages_and_modeled_costs_do_not_move(self):
        trace = mpi.CommTrace()
        config = SolverConfig(num_nodes=(32, 32), order="low", dt=0.01)
        spmd(2, lambda comm: Solver(comm, config, GRAPH_IC).step(), trace=trace)
        messages, nbytes = Counter(), Counter()
        for ev in trace.events:
            if ev.phase in ("halo", "fft"):
                messages[ev.phase, ev.kind] += 1
                nbytes[ev.phase, ev.kind] += ev.nbytes
        assert {k: (messages[k], nbytes[k]) for k in messages} == LOW_STEP_COMM
        compute = {kernel: Counter() for kernel in LOW_STEP_COMPUTE}
        for cev in trace.compute_events:
            if cev.kernel in compute:
                compute[cev.kernel][(cev.items, cev.flops, cev.bytes_moved)] += 1
        assert {k: dict(v) for k, v in compute.items()} == LOW_STEP_COMPUTE
