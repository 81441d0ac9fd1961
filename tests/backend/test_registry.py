"""Backend registry: resolution, defaults and validation."""

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend,
    BlockedBackend,
    NumpyBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
)
from repro.util.errors import ConfigurationError


class TestResolution:
    def test_reference_and_blocked_always_registered(self):
        names = available_backends()
        assert names[0] == "numpy"
        assert "blocked" in names

    def test_get_by_name(self):
        assert isinstance(get_backend("numpy"), NumpyBackend)
        assert isinstance(get_backend("blocked"), BlockedBackend)

    def test_instances_pass_through(self):
        bk = BlockedBackend(tile=64)
        assert get_backend(bk) is bk

    def test_name_is_case_insensitive(self):
        assert get_backend("NumPy").name == "numpy"

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigurationError, match="available"):
            get_backend("gpu-magic")

    def test_registered_instances_are_singletons(self):
        assert get_backend("blocked") is get_backend("blocked")


class TestDefaults:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "numpy"
        assert get_backend(None).name == "numpy"
        assert get_backend("auto").name == "numpy"

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "blocked")
        assert get_backend(None).name == "blocked"
        assert get_backend("auto").name == "blocked"
        # Explicit names always win over the environment.
        assert get_backend("numpy").name == "numpy"

    def test_bogus_env_var_raises_with_names(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "warp-drive")
        with pytest.raises(ConfigurationError, match="warp-drive"):
            get_backend("auto")


class TestRegistration:
    def test_duplicate_name_requires_replace(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend(NumpyBackend())

    def test_replace_allows_reregistration(self):
        original = get_backend("numpy")
        try:
            replacement = NumpyBackend()
            register_backend(replacement, replace=True)
            assert get_backend("numpy") is replacement
        finally:
            register_backend(original, replace=True)

    def test_non_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="ArrayBackend"):
            register_backend(object())  # type: ignore[arg-type]

    def test_uppercase_name_rejected(self):
        """Lookups lowercase names, so registration must too."""

        class Loud(NumpyBackend):
            name = "FastGPU"

        with pytest.raises(ConfigurationError, match="lowercase"):
            register_backend(Loud())

    def test_abstract_name_rejected(self):
        class Anonymous(NumpyBackend):
            name = "abstract"

        with pytest.raises(ConfigurationError, match="concrete name"):
            register_backend(Anonymous())

    def test_abstract_interface_cannot_instantiate(self):
        with pytest.raises(TypeError):
            ArrayBackend()  # type: ignore[abstract]


class TestSolverConfigBackendField:
    def test_backend_field_threads_to_solver(self):
        from repro import mpi
        from repro.core import InitialCondition, Solver, SolverConfig

        cfg = SolverConfig(num_nodes=(8, 8), order="low", dt=0.01,
                           backend="blocked")

        def program(comm):
            solver = Solver(comm, cfg, InitialCondition(kind="flat"))
            assert isinstance(solver.backend, BlockedBackend)
            assert solver.zmodel.backend is solver.backend
            assert solver.integrator.backend is solver.backend
            return solver.backend.name

        assert mpi.run_spmd(1, program) == ["blocked"]

    def test_unknown_backend_fails_at_build_not_config(self):
        from repro import mpi
        from repro.core import InitialCondition, Solver, SolverConfig

        cfg = SolverConfig(num_nodes=(8, 8), order="low", backend="tpu")

        def program(comm):
            with pytest.raises(ConfigurationError, match="tpu"):
                Solver(comm, cfg, InitialCondition(kind="flat"))
            return True

        assert mpi.run_spmd(1, program) == [True]

    def test_blank_backend_rejected_at_config(self):
        from repro.core import SolverConfig

        with pytest.raises(ConfigurationError, match="backend"):
            SolverConfig(backend="  ")


class TestSatelliteValidation:
    """PR-2 satellites: eps_factor and mu joined __post_init__ validation."""

    def test_eps_factor_must_be_positive(self):
        from repro.core import SolverConfig

        with pytest.raises(ConfigurationError, match="eps_factor"):
            SolverConfig(eps_factor=0.0)
        with pytest.raises(ConfigurationError, match="eps_factor"):
            SolverConfig(eps_factor=-0.5)

    def test_mu_must_be_nonnegative(self):
        from repro.core import SolverConfig

        with pytest.raises(ConfigurationError, match="mu"):
            SolverConfig(mu=-1e-9)
        assert SolverConfig(mu=0.0).mu == 0.0
        assert SolverConfig(mu=0.3).mu == 0.3

    def test_valid_eps_factor_still_drives_effective_eps(self):
        from repro.core import SolverConfig

        cfg = SolverConfig(num_nodes=(10, 10), low=(0, 0), high=(1, 1),
                           eps_factor=2.0)
        assert np.isclose(cfg.effective_eps(), 2.0 * 0.1)
