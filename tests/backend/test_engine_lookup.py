"""One engine runs every solve: the two-name lookup that the kernels and
the solver-level ``backend=`` keyword go through, and the run-time
switches that no longer exist."""

import numpy as np
import pytest

from repro import mpi
from repro.backend import ArrayBackend, BlockedBackend, NumpyBackend, get_backend
from repro.cli.rocketrig import main
from repro.core import InitialCondition, Solver, SolverConfig
from repro.core.solver import state_digest
from repro.util.errors import ConfigurationError


class TestLookup:
    def test_none_is_blocked(self):
        assert isinstance(get_backend(), BlockedBackend)
        assert get_backend(None) is get_backend("blocked")

    def test_the_two_names(self):
        assert isinstance(get_backend("blocked"), BlockedBackend)
        assert isinstance(get_backend("numpy"), NumpyBackend)
        assert get_backend("numpy") is get_backend("numpy")

    @pytest.mark.parametrize("engine", [BlockedBackend(tile=64), NumpyBackend()])
    def test_an_instance_passes_through(self, engine):
        assert get_backend(engine) is engine

    @pytest.mark.parametrize("name", ["auto", "NumPy", "cupy", ""])
    def test_an_unknown_name_lists_both_engines(self, name):
        with pytest.raises(ConfigurationError) as err:
            get_backend(name)
        assert "'blocked'" in str(err.value) and "'numpy'" in str(err.value)

    def test_abstract_interface_cannot_instantiate(self):
        with pytest.raises(TypeError):
            ArrayBackend()  # type: ignore[abstract]


CONFIG = SolverConfig(num_nodes=(12, 12), order="high", dt=0.002, eps=0.1)
IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)


def final_digest(backend=None):
    """State digest of a two-step one-rank run of :data:`CONFIG`."""

    def program(comm):
        solver = Solver(comm, CONFIG, IC, backend=backend)
        solver.run(2)
        return state_digest(solver.pm.z.own, solver.pm.w.own)

    return mpi.run_spmd(1, program)[0]


class TestSolverKeyword:
    def test_a_solver_runs_blocked_at_every_layer(self):
        def program(comm):
            solver = Solver(comm, CONFIG, IC)
            return (solver.backend, solver.zmodel.backend,
                    solver.integrator.backend, solver.br_solver.backend)

        engines = mpi.run_spmd(1, program)[0]
        assert all(engine is get_backend("blocked") for engine in engines)

    @pytest.mark.parametrize("spec", ["numpy", NumpyBackend()])
    def test_the_reference_is_reached_by_keyword(self, spec):
        def program(comm):
            solver = Solver(comm, CONFIG, IC, backend=spec)
            return (solver.backend, solver.zmodel.backend,
                    solver.integrator.backend, solver.br_solver.backend)

        engines = mpi.run_spmd(1, program)[0]
        assert all(engine is get_backend(spec) for engine in engines)

    def test_an_unknown_engine_fails_at_build(self):
        def program(comm):
            with pytest.raises(ConfigurationError, match="tpu"):
                Solver(comm, CONFIG, IC, backend="tpu")
            return True

        assert mpi.run_spmd(1, program) == [True]

    def test_the_config_has_no_engine_field(self):
        with pytest.raises(TypeError, match="backend"):
            SolverConfig(backend="blocked")  # type: ignore[call-arg]


class TestNoRunTimeSwitch:
    @pytest.mark.parametrize("argv", [
        ["--backend", "numpy"], ["-b", "numpy"], ["--list-backends"],
    ], ids=" ".join)
    def test_engine_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "rocketrig: error:" in capsys.readouterr().err

    def test_the_environment_changes_no_digest(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        plain = final_digest()
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert final_digest() == plain == final_digest("blocked")
        # The reference engine's rounding differs on this run, so the
        # equality above would show an environment-selected engine.
        assert final_digest("numpy") != plain


class TestSatelliteValidation:
    """eps_factor and mu are validated in SolverConfig.__post_init__."""

    def test_eps_factor_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="eps_factor"):
            SolverConfig(eps_factor=0.0)
        with pytest.raises(ConfigurationError, match="eps_factor"):
            SolverConfig(eps_factor=-0.5)

    def test_mu_must_be_nonnegative(self):
        with pytest.raises(ConfigurationError, match="mu"):
            SolverConfig(mu=-1e-9)
        assert SolverConfig(mu=0.0).mu == 0.0
        assert SolverConfig(mu=0.3).mu == 0.3

    def test_valid_eps_factor_still_drives_effective_eps(self):
        cfg = SolverConfig(num_nodes=(10, 10), low=(0, 0), high=(1, 1),
                           eps_factor=2.0)
        assert np.isclose(cfg.effective_eps(), 2.0 * 0.1)
