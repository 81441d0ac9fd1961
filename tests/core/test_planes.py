"""The state is component planes; what leaves the solver is component-last.

``ProblemManager.z`` / ``w`` store ``(…, c, n1 + 4, n2 + 4)`` planes, so
every per-component kernel reads contiguous rows.  Pinned here: the
planes are contiguous (solo and in a fleet stack), a low-order
evaluation hands the backend stencils nothing else, the halo gathers
planes as global periodic slicing would, a checkpoint of component-last
``(N1, N2, 3)`` arrays resumes bitwise, and ``state_diagnostics`` keeps
the parent layout's bits.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import mpi
from repro.backend import get_backend
from repro.batch import ScenarioFleet
from repro.core import InitialCondition, Solver, SolverConfig, SurfaceMesh
from repro.core.diagnostics import gather_global_state
from repro.core.solver import arithmetic_canary
from repro.grid import NodeArray
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from tests.conftest import spmd

PI = np.pi
IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=3)


def _config(**overrides):
    base = dict(num_nodes=(16, 12), low=(-PI, -PI), high=(PI, PI),
                order="low", dt=0.01, mu=0.05, eps=0.1)
    base.update(overrides)
    return SolverConfig(**base)


def _planes_contiguous(a):
    """Every trailing ``(n1, n2)`` plane of ``a`` is C-contiguous."""
    return all(a[idx].flags.c_contiguous for idx in np.ndindex(a.shape[:-2]))


def _fleet(config, members=4, backend=None):
    fleet = ScenarioFleet(config, backend=backend)
    ids = fleet.add_many([
        (replace(config, atwood=0.1 + 0.1 * k), IC, 3) for k in range(members)
    ])
    return fleet, ids


class TestLayout:
    def test_solo_state_is_contiguous_planes(self):
        def program(comm):
            pm = Solver(comm, _config(), IC).pm
            local = pm.mesh.local_shape
            return (
                pm.z.full.shape == (3,) + local and pm.w.full.shape == (2,) + local
                and _planes_contiguous(pm.z.full) and _planes_contiguous(pm.w.full)
                and pm.z.own.shape == pm.mesh.owned_shape + (3,)
                and np.shares_memory(pm.z.own, pm.z.full)
            )

        assert all(spmd(2, program))

    def test_fleet_stack_is_contiguous_planes(self):
        fleet, _ = _fleet(_config())
        fleet.step()
        pm = fleet._integrator.pm
        assert pm.z.full.shape[:2] == (4, 3) and pm.w.full.shape[:2] == (4, 2)
        assert _planes_contiguous(pm.z.full) and _planes_contiguous(pm.w.full)


class TestStencilInputs:
    @pytest.mark.parametrize("backend", ["numpy", "blocked"])
    @pytest.mark.parametrize("where", ["solo", "fleet"])
    def test_low_order_hands_stencils_contiguous_planes(
        self, backend, where, monkeypatch
    ):
        engine = get_backend(backend)
        seen = []
        for name in ("stencil_dx", "stencil_dy", "stencil_laplacian"):
            def spy(self, full, *args, _real=getattr(engine, name), _name=name):
                seen.append((_name, _planes_contiguous(full)))
                return _real(full, *args)

            monkeypatch.setattr(type(engine), name, spy)
        config = _config()
        if where == "solo":
            spmd(2, lambda comm: Solver(comm, config, IC, backend=backend)
                 .zmodel.compute_derivatives())
        else:
            _fleet(config, backend=backend)[0].step()
        assert {name for name, _ in seen} == {
            "stencil_dx", "stencil_dy", "stencil_laplacian"
        }
        assert all(contiguous for _, contiguous in seen)


class TestPlanarHalo:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_gather_matches_global_periodic_slicing(self, nranks):
        """A ``(2, 3, …)`` stack of planes and a one-plane field in one
        gather: every ghost, corners included, is the global array's
        periodic neighbour."""
        shape = (12, 10)
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(2, 3) + shape)
        field = rng.normal(size=shape)

        def program(comm):
            mesh = SurfaceMesh(comm, (0, 0), (1, 1), shape, (True, True))
            h = mesh.halo_width
            (i0, j0), (ni, nj) = mesh.owned_space.mins, mesh.owned_shape
            planes = NodeArray(mesh, 3)
            planes.full = np.full((2,) + planes.shape, np.nan)
            planes.planes[...] = stack[..., i0:i0 + ni, j0:j0 + nj]
            phi = np.full(mesh.local_shape, np.nan)
            phi[mesh.own_slices] = field[i0:i0 + ni, j0:j0 + nj]
            mesh.gather([planes.full, phi])
            rows = (np.arange(i0 - h, i0 + ni + h) % shape[0])[:, None]
            cols = (np.arange(j0 - h, j0 + nj + h) % shape[1])[None, :]
            return (np.array_equal(planes.full, stack[..., rows, cols])
                    and np.array_equal(phi, field[rows, cols]))

        assert all(spmd(nranks, program))


class TestCheckpoint:
    @pytest.mark.parametrize("nranks", [1, 2])
    def test_component_last_checkpoint_resumes_bitwise(self, nranks, tmp_path):
        config = _config(order="medium")
        path = str(tmp_path / "state.npz")

        def straight(comm):
            solver = Solver(comm, config, IC)
            solver.run(2)
            half = gather_global_state(solver.pm)
            solver.run(2)
            return half, gather_global_state(solver.pm)

        def resumed(comm):
            solver = Solver.from_checkpoint(comm, config, path, IC)
            solver.run(2)
            return gather_global_state(solver.pm)

        (z_half, w_half), want = spmd(nranks, straight)[0]
        assert z_half.shape == (16, 12, 3) and w_half.shape == (16, 12, 2)
        save_checkpoint(path, positions=z_half, vorticity=w_half,
                        time=2 * config.dt, step=2)
        got = spmd(nranks, resumed)[0]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_solver_writes_component_last_arrays(self, tmp_path):
        path = str(tmp_path / "state.npz")

        def program(comm):
            solver = Solver(comm, _config(), IC)
            solver.run(1)
            solver.save_checkpoint(path)
            return gather_global_state(solver.pm)

        z, w = spmd(2, program)[0]
        state = load_checkpoint(path)
        assert np.array_equal(state["positions"], z)
        assert np.array_equal(state["vorticity"], w)


#: ``(amplitude, vorticity_norm)`` as ``float.hex`` after three steps of a
#: 16×12 run with μ = 0.05, recorded with the component-last state this
#: layout replaced.  The one-rank low-order norm is the entry a sum over
#: the planes' memory order would move.
PARENT_DIAGNOSTICS = {
    ("low", 1, "blocked"): ("0x1.73bb7c4d84a75p-5", "0x1.cd42a35beb8c4p-3"),
    ("low", 2, "numpy"): ("0x1.73bb7c4d84a75p-5", "0x1.cd42a35beb8c4p-3"),
    ("medium", 1, "numpy"): ("0x1.72bd5a8bdb53fp-5", "0x1.ccac6d85be243p-3"),
    ("high", 2, "blocked"): ("0x1.72bd58bc2a951p-5", "0x1.ccac020b8f9e7p-3"),
}

#: The same for the four members (Atwood 0.1, 0.2, 0.3, 0.4) of a
#: low-order blocked fleet.
PARENT_FLEET_DIAGNOSTICS = [
    ("0x1.71fb07dc6808ep-5", "0x1.704bb15110d0fp-5"),
    ("0x1.726b10b902234p-5", "0x1.7079348e64d79p-4"),
    ("0x1.72db26d7fd1e4p-5", "0x1.147d1593ab275p-3"),
    ("0x1.734b4a956a45fp-5", "0x1.70d469ff0ad01p-3"),
]

#: Arithmetic of the recording host (:func:`arithmetic_canary`).
ARITHMETIC_CANARY = "9ead8a9764082226"


def _hex(diagnostics):
    return (diagnostics["amplitude"].hex(), diagnostics["vorticity_norm"].hex())


class TestDiagnosticsPin:
    @pytest.fixture(autouse=True)
    def _recording_host(self):
        if arithmetic_canary() != ARITHMETIC_CANARY:
            pytest.skip("pin recorded on a host with other BLAS/SIMD rounding")

    @pytest.mark.parametrize("key", list(PARENT_DIAGNOSTICS), ids=str)
    def test_solo_diagnostics_equal_parent(self, key):
        order, nranks, backend = key
        config = _config(order=order)

        def program(comm):
            solver = Solver(comm, config, IC, backend=backend)
            solver.run(3)
            return solver.diagnostics()

        assert _hex(mpi.run_spmd(nranks, program)[0]) == PARENT_DIAGNOSTICS[key]

    def test_fleet_diagnostics_equal_parent(self):
        fleet, ids = _fleet(_config())
        results = fleet.run()
        got = [_hex(results[sid]["diagnostics"]) for sid in ids]
        assert got == PARENT_FLEET_DIAGNOSTICS
