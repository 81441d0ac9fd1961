"""Boundary conditions, ProblemManager, ICs, SolverConfig, diagnostics."""

import numpy as np
import pytest

from repro import mpi
from repro.core import (
    BoundaryType,
    InitialCondition,
    ProblemManager,
    Solver,
    SolverConfig,
    SurfaceMesh,
    apply_initial_condition,
    gather_global_state,
    ownership_stats,
    vorticity_magnitude,
)
from repro.util.errors import ConfigurationError
from tests.conftest import spmd


class TestBoundaryCondition:
    def test_periodic_position_shift(self):
        """Ghost x-positions across the periodic seam differ by the extent."""

        def program(comm):
            mesh = SurfaceMesh(comm, (0, 0), (2, 2), (12, 12), (True, True))
            pm = ProblemManager(mesh)
            apply_initial_condition(pm, InitialCondition(kind="flat"))
            # After gather_state, ghosts should continue the coordinate
            # line linearly: z1(ghost) = z1(own edge) - dx on the low side.
            z = pm.z.full
            dx = mesh.global_mesh.spacings[0]
            if mesh.global_boundary[0][0]:
                diff = z[0, 2, 2:-2] - z[0, 1, 2:-2]
                return np.allclose(diff, dx)
            return True

        assert all(spmd(4, program))

    def test_free_extrapolation_linear(self):
        def program(comm):
            mesh = SurfaceMesh(comm, (0, 0), (1, 1), (12, 12), (False, False))
            pm = ProblemManager(mesh)
            apply_initial_condition(
                pm, InitialCondition(kind="flat", tilt=1.0)
            )
            # A linear field must extrapolate exactly into the ghosts.
            z = pm.z.full
            if mesh.global_boundary[0][0]:
                # Ghost rows continue z1 = X linearly.
                step = z[0, 1, 3] - z[0, 0, 3]
                return np.isclose(step, mesh.global_mesh.spacings[0])
            return True

        assert all(spmd(4, program))

    def test_types_derived_from_mesh(self):
        def program(comm):
            mesh = SurfaceMesh(comm, (0, 0), (1, 1), (8, 8), (True, False))
            pm = ProblemManager(mesh)
            return [t.value for t in pm.bc.types]

        assert spmd(1, program)[0] == ["periodic", "free"]


class TestInitialConditions:
    @pytest.mark.parametrize(
        "kind", ["single_mode", "multi_mode", "sech2", "gaussian", "flat"]
    )
    def test_decomposition_independence(self, kind):
        """Serial and 4-rank initializations agree on the global state."""
        ic = InitialCondition(kind=kind, magnitude=0.05, period=2.0, seed=42)

        def program(comm):
            mesh = SurfaceMesh(comm, (-1, -1), (1, 1), (16, 16), (True, True))
            pm = ProblemManager(mesh)
            apply_initial_condition(pm, ic)
            return gather_global_state(pm)

        serial = spmd(1, program)[0]
        parallel = spmd(4, program)[0]
        np.testing.assert_array_equal(serial[0], parallel[0])
        np.testing.assert_array_equal(serial[1], parallel[1])

    def test_magnitude_respected(self):
        ic = InitialCondition(kind="single_mode", magnitude=0.125, period=1.0)

        def program(comm):
            mesh = SurfaceMesh(comm, (-1, -1), (1, 1), (32, 32), (True, True))
            pm = ProblemManager(mesh)
            apply_initial_condition(pm, ic)
            return float(np.max(np.abs(pm.z.own[..., 2])))

        assert spmd(1, program)[0] == pytest.approx(0.125, rel=1e-9)

    def test_horizontal_positions_match_parameters(self):
        def program(comm):
            mesh = SurfaceMesh(comm, (-1, -1), (1, 1), (8, 8), (True, True))
            pm = ProblemManager(mesh)
            apply_initial_condition(pm, InitialCondition(kind="gaussian"))
            X, Y = np.broadcast_arrays(*mesh.owned_coordinates())
            return (
                np.array_equal(pm.z.own[..., 0], X)
                and np.array_equal(pm.z.own[..., 1], Y)
                and np.all(pm.w.own == 0.0)
            )

        assert all(spmd(4, program))

    def test_unknown_kind_raises(self):
        def program(comm):
            mesh = SurfaceMesh(comm, (-1, -1), (1, 1), (8, 8), (True, True))
            pm = ProblemManager(mesh)
            with pytest.raises(ConfigurationError):
                apply_initial_condition(pm, InitialCondition(kind="nope"))
            return True

        assert spmd(1, program)[0]

    def test_multimode_seed_changes_field(self):
        def field(seed):
            def program(comm):
                mesh = SurfaceMesh(comm, (-1, -1), (1, 1), (16, 16), (True, True))
                pm = ProblemManager(mesh)
                apply_initial_condition(
                    pm, InitialCondition(kind="multi_mode", seed=seed, period=3)
                )
                return pm.z.own[..., 2].copy()

            return spmd(1, program)[0]

        assert not np.array_equal(field(1), field(2))
        assert np.array_equal(field(3), field(3))


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.effective_dt() > 0
        assert cfg.effective_eps() > 0

    def test_stable_dt_scales_with_physics(self):
        a = SolverConfig(atwood=0.5, gravity=10.0).stable_dt()
        b = SolverConfig(atwood=0.5, gravity=40.0).stable_dt()
        assert a / b == pytest.approx(2.0)

    def test_eps_default_tracks_spacing(self):
        coarse = SolverConfig(num_nodes=(32, 32)).effective_eps()
        fine = SolverConfig(num_nodes=(64, 64)).effective_eps()
        assert coarse == pytest.approx(2 * fine)

    def test_explicit_overrides(self):
        cfg = SolverConfig(dt=0.123, eps=0.456)
        assert cfg.effective_dt() == 0.123
        assert cfg.effective_eps() == 0.456

    def test_invalid_values_raise(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=-1.0).effective_dt()
        with pytest.raises(ConfigurationError):
            SolverConfig(eps=0.0).effective_eps()

    def test_spatial_bounds_default(self):
        low, high = SolverConfig(low=(-2, -2), high=(2, 2)).spatial_bounds()
        assert low[0] == -2 and high[0] == 2
        assert low[2] < 0 < high[2]

    def test_construction_rejects_bad_values_early(self):
        with pytest.raises(ConfigurationError, match="num_nodes"):
            SolverConfig(num_nodes=(0, 64))
        with pytest.raises(ConfigurationError, match="num_nodes"):
            SolverConfig(num_nodes=(64, -1))
        with pytest.raises(ConfigurationError, match="cutoff"):
            SolverConfig(cutoff=0.0)
        with pytest.raises(ConfigurationError, match="atwood"):
            SolverConfig(atwood=-0.1)
        with pytest.raises(ConfigurationError, match="atwood"):
            SolverConfig(atwood=1.5)
        with pytest.raises(ConfigurationError, match="cfl"):
            SolverConfig(cfl=0.0)
        # Boundary values are legal.
        assert SolverConfig(atwood=0.0).atwood == 0.0
        assert SolverConfig(atwood=1.0).atwood == 1.0

    def test_low_order_requires_periodic(self):
        cfg = SolverConfig(periodic=(False, False), order="low")

        def program(comm):
            with pytest.raises(ConfigurationError):
                Solver(comm, cfg, InitialCondition())
            return True

        assert spmd(1, program)[0]

    def test_unknown_br_solver_raises_at_construction(self):
        # The config constructor validates against the same registry the
        # CLI lists — a bogus solver never reaches the Solver stack.
        with pytest.raises(ConfigurationError, match="br_solver"):
            SolverConfig(order="high", br_solver="fmm")

    def test_num_nodes_below_stencil_floor_rejected(self):
        # Depth-2 halos need at least 4 owned nodes per axis.
        with pytest.raises(ConfigurationError, match="num_nodes"):
            SolverConfig(num_nodes=(2, 64))
        with pytest.raises(ConfigurationError, match="num_nodes"):
            SolverConfig(num_nodes=(64, 3))
        assert SolverConfig(num_nodes=(4, 4)).num_nodes == (4, 4)

    def test_non_positive_cfl_rejected(self):
        with pytest.raises(ConfigurationError, match="cfl"):
            SolverConfig(cfl=0.0)
        with pytest.raises(ConfigurationError, match="cfl"):
            SolverConfig(cfl=-0.25)


class TestDiagnostics:
    def test_gather_global_state_assembles(self):
        def program(comm):
            mesh = SurfaceMesh(comm, (-1, -1), (1, 1), (12, 12), (True, True))
            pm = ProblemManager(mesh)
            apply_initial_condition(
                pm, InitialCondition(kind="single_mode", magnitude=0.1)
            )
            z, w = gather_global_state(pm)
            if comm.rank == 0:
                return z.shape, w.shape, float(z[..., 2].max())
            assert z is None and w is None
            return None

        results = spmd(4, program)
        shape_z, shape_w, peak = results[0]
        assert shape_z == (12, 12, 3) and shape_w == (12, 12, 2)
        assert peak == pytest.approx(0.1, abs=1e-9)

    def test_vorticity_magnitude(self):
        w = np.zeros((2, 2, 2))
        w[0, 0] = [3.0, 4.0]
        assert vorticity_magnitude(w)[0, 0] == pytest.approx(5.0)

    def test_ownership_stats(self):
        stats = ownership_stats(np.array([10, 10, 10, 30]))
        assert stats.total == 60
        assert stats.imbalance == pytest.approx(30 / 15)
        assert stats.fractions.max() == pytest.approx(0.5)
        assert "imbalance" in stats.describe()

    def test_ownership_stats_even(self):
        stats = ownership_stats(np.full(8, 5))
        assert stats.imbalance == pytest.approx(1.0)
        assert stats.spread == pytest.approx(0.0)
