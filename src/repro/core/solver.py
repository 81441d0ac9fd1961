"""Top-level Solver: configuration, wiring and the run loop (paper §3.1).

``Solver`` mirrors Beatnik's driver-facing class: it "initializes and
invokes other classes based on parameters passed by the driver program
and runs the simulation for the specified number of timesteps."  A
:class:`SolverConfig` is the Python analogue of a rocket-rig input deck.

Typical use::

    from repro import mpi
    from repro.core import Solver, SolverConfig, InitialCondition

    config = SolverConfig(num_nodes=(64, 64), order="low")
    ic = InitialCondition(kind="multi_mode", magnitude=0.05, period=4)

    def program(comm):
        solver = Solver(comm, config, ic)
        solver.run(20)
        return solver.diagnostics()

    results = mpi.run_spmd(4, program)
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.core.br_cutoff import CutoffBRSolver
from repro.core.br_exact import ExactBRSolver
from repro.core.br_tree import TreeBRSolver
from repro.core.initial_conditions import InitialCondition, apply_initial_condition
from repro.core.operators import as_stack
from repro.core.problem_manager import ProblemManager
from repro.core.surface_mesh import SurfaceMesh
from repro.core.time_integrator import TimeIntegrator
from repro.core.zmodel import Order, ZModel, ZModelParameters
from repro.fft.config import FftConfig
from repro.fft.dfft import DistributedFFT2D
from repro.grid.global_mesh import GlobalMesh2D
from repro.mpi.comm import Comm
from repro.util.errors import ConfigurationError, RunDivergedError

__all__ = [
    "NUMERICS_VERSION", "SolverConfig", "Solver", "arithmetic_canary",
    "available_br_solvers", "build_integrator", "check_health",
    "state_diagnostics", "state_digest",
]

#: Version of the numerics behind a stored result: the campaign store
#: stamps it on every completed record and re-runs a record carrying any
#: other stamp.  Bump it on any change to the state digests pinned by
#: ``TestParentPin`` (``tests/backend/test_panel_pool.py``),
#: ``tests/core/test_cutoff_chunks.py`` or ``tests/core/test_tree.py``,
#: or to ``tests/golden/figures``,
#: and record the new hash of those pins in
#: ``tests/campaign/test_numerics_stamp.py``, whose guard fails until
#: both are done.  2: one-rank cutoff runs whose cutoff spans the domain
#: sum their pairs densely.  3: every cutoff run sums the chunk pairs its
#: bounding-box search lists (``core.br_cutoff``).  4: low order evolves
#: a graph surface — z₃ and γ alone; z₁, z₂ stay the mesh coordinates.
#: 5: the tree solver decides per piece and sums its near field as
#: listed sub-panels (``core.br_tree``).  6: the cutoff solver chunks
#: its points in spatial order (compact tiles) and sums owned and ghost
#: pairs in one listed call.  7: the blocked engine's dense panels take
#: r² from one GEMM on compact, panel-centred coordinates.
NUMERICS_VERSION = 7


def state_digest(*arrays: np.ndarray) -> str:
    """sha256 prefix of the arrays' bytes, in order: a run's final owned
    ``z_0, w_0, z_1, w_1, …`` in rank order.  Equal digests mean
    ``np.array_equal`` states."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()[:16]


@functools.cache
def arithmetic_canary() -> str:
    """Digest of this host's arithmetic for the operations a run uses
    (BLAS GEMMs, einsum reductions, FFTs, powers), once per process.

    A host whose SIMD/BLAS kernels round differently gets another
    canary, so two runs' :func:`state_digest` values are comparable only
    when their canaries agree.  The seven results are hashed one at a
    time and the square root is taken in place: the same bytes as
    hashing them together, at half the peak memory.
    """
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(256, 256)), rng.normal(size=(256, 6))
    d = rng.normal(size=(40, 1600, 3))

    def root_of_square():
        t = d * d
        return np.sqrt(t, out=t)

    h = hashlib.sha256()
    for result in (
        lambda: a @ b, lambda: a @ a, lambda: np.einsum("ijk,ijk->ij", d, d),
        lambda: np.einsum("ij,ij->i", d[0], d[0]),
        lambda: (d * d + 0.1) ** -1.5, lambda: np.fft.fft(d[..., 0], axis=1),
        root_of_square,
    ):
        h.update(np.ascontiguousarray(result()))
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class SolverConfig:
    """A rocket-rig input deck.

    Attributes mirror Beatnik's driver options; the decks used by each
    paper experiment are in ``benchmarks/bench_fig*.py``.

    Notes
    -----
    * ``eps`` (Krasny desingularization) defaults to
      ``eps_factor × min(Δα)`` when unset.
    * ``dt`` defaults to ``cfl / σ_max`` with σ_max = sqrt(A g k_max),
      the fastest linear RT growth rate on the grid.
    * ``spatial_low/high`` bound the 3D spatial mesh of the cutoff
      solver; unset, they cover the parameter domain horizontally and
      ±25 % of its extent vertically.
    * ``br_solver`` selects the Birkhoff-Rott far-field strategy (see
      :func:`available_br_solvers`): ``exact`` (all pairs, ring pass),
      ``cutoff`` (drop interactions beyond ``cutoff``) or ``tree``
      (Barnes-Hut multipole approximation; ``theta`` bounds the
      geometric error of every accepted far-field interaction and
      ``leaf_size`` sets the near-field granularity).
    * Every solve runs on the ``blocked`` engine (see
      :mod:`repro.backend`); ``backend`` is a retired deck key that
      loads only at ``"blocked"``.
    """

    num_nodes: tuple[int, int] = (64, 64)
    low: tuple[float, float] = (-1.0, -1.0)
    high: tuple[float, float] = (1.0, 1.0)
    periodic: tuple[bool, bool] = (True, True)
    order: str = "low"
    br_solver: str = "exact"          # see available_br_solvers()
    atwood: float = 0.5
    gravity: float = 10.0
    mu: float = 0.0
    bernoulli: float = 1.0
    eps: Optional[float] = None
    eps_factor: float = 1.0
    dt: Optional[float] = None
    cfl: float = 0.25
    cutoff: float = 0.5
    theta: float = 0.5
    leaf_size: int = 32
    br_images: bool = False
    spatial_low: Optional[tuple[float, float, float]] = None
    spatial_high: Optional[tuple[float, float, float]] = None
    fft_config: FftConfig = field(default_factory=FftConfig)

    def __post_init__(self) -> None:
        # The depth-2 halo stencils (and the FFT brick remap) need at
        # least 4 nodes per axis; rejecting here beats the opaque shape
        # errors a 2×2 grid used to trigger deep in FFT/stencil setup.
        if any(n < 4 for n in self.num_nodes):
            raise ConfigurationError(
                f"num_nodes entries must be >= 4, got {self.num_nodes}"
            )
        if self.br_solver not in _BR_SOLVER_BUILDERS:
            raise ConfigurationError(
                f"unknown br_solver {self.br_solver!r}; "
                f"available: {available_br_solvers()}"
            )
        if self.cutoff <= 0:
            raise ConfigurationError(f"cutoff must be positive, got {self.cutoff}")
        if not 0.0 <= self.theta < 1.0:
            raise ConfigurationError(
                f"theta (tree multipole acceptance) must lie in [0, 1), "
                f"got {self.theta}"
            )
        if self.leaf_size < 1:
            raise ConfigurationError(
                f"leaf_size must be >= 1, got {self.leaf_size}"
            )
        if not 0.0 <= self.atwood <= 1.0:
            raise ConfigurationError(
                f"atwood must lie in [0, 1], got {self.atwood}"
            )
        if self.cfl <= 0:
            raise ConfigurationError(f"cfl must be positive, got {self.cfl}")
        if self.eps_factor <= 0:
            raise ConfigurationError(
                f"eps_factor must be positive, got {self.eps_factor}"
            )
        if self.mu < 0:
            raise ConfigurationError(
                f"mu (artificial viscosity) must be >= 0, got {self.mu}"
            )

    # -- derived values -------------------------------------------------------

    def spacing(self) -> tuple[float, float]:
        """Node spacing per axis, by the mesh's convention."""
        return GlobalMesh2D.create(
            self.low, self.high, self.num_nodes, self.periodic
        ).spacings

    def effective_eps(self) -> float:
        if self.eps is not None:
            if self.eps <= 0:
                raise ConfigurationError(f"eps must be positive, got {self.eps}")
            return self.eps
        return self.eps_factor * min(self.spacing())

    def stable_dt(self) -> float:
        """CFL-limited timestep from the linear RT dispersion relation."""
        ag = abs(self.atwood * self.gravity)
        if ag == 0.0:
            return 1e-2
        kmax = math.pi / min(self.spacing())
        sigma = math.sqrt(ag * kmax)
        return self.cfl / sigma

    def effective_dt(self) -> float:
        if self.dt is not None:
            if self.dt <= 0:
                raise ConfigurationError(f"dt must be positive, got {self.dt}")
            return self.dt
        return self.stable_dt()

    def amplitude_bound(self) -> float:
        """Largest sound interface amplitude ``max|z₃|``: 10× the longest
        lateral extent.  A run past it has diverged (see :func:`check_health`)."""
        return 10.0 * max(self.high[0] - self.low[0], self.high[1] - self.low[1])

    def spatial_bounds(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        if self.spatial_low is not None and self.spatial_high is not None:
            return tuple(self.spatial_low), tuple(self.spatial_high)  # type: ignore[return-value]
        ext = max(self.high[0] - self.low[0], self.high[1] - self.low[1])
        zpad = 0.25 * ext
        return (
            (self.low[0], self.low[1], -zpad),
            (self.high[0], self.high[1], zpad),
        )

def check_health(
    z: np.ndarray, w: np.ndarray, bound: float, step, rank: int = 0
) -> "list[Optional[RunDivergedError]]":
    """Per member of the owned ``z`` / ``w`` (one block, or a ``(B, …)``
    stack with ``step`` a ``(B,)`` array): ``None`` when it is finite
    with ``max|z₃| < bound`` (:meth:`SolverConfig.amplitude_bound`), else
    the :class:`RunDivergedError` naming the first failing field."""
    z, w = as_stack(z), as_stack(w)
    finite_z = np.isfinite(z).all(axis=(1, 2, 3))
    finite_w = np.isfinite(w).all(axis=(1, 2, 3))
    amplitude = np.abs(z[..., 2]).max(axis=(1, 2), initial=0.0)
    steps = np.broadcast_to(step, amplitude.shape)
    errors: list[Optional[RunDivergedError]] = [None] * len(amplitude)
    for b in np.flatnonzero(~(finite_z & finite_w & (amplitude < bound))):
        if not finite_z[b] or not finite_w[b]:
            field = "z" if not finite_z[b] else "w"
            errors[b] = RunDivergedError(int(steps[b]), field, rank, "is not finite")
        else:
            errors[b] = RunDivergedError(
                int(steps[b]), "z", rank,
                f"amplitude {amplitude[b]:.4g} >= bound {bound:.4g}",
            )
    return errors


def state_diagnostics(
    comm: Comm, z: np.ndarray, w: np.ndarray, time, steps, dt
) -> list[dict[str, float]]:
    """:meth:`Solver.diagnostics` of each member of the owned ``z`` /
    ``w`` (one block, or a ``(B, …)`` stack with ``time`` / ``steps`` /
    ``dt`` as ``(B,)`` arrays, component-last), reduced over ``comm``.
    The vorticity norm, a pairwise sum whose rounding follows memory
    order, runs on a contiguous copy."""
    from repro.mpi.ops import MAX

    z, w = as_stack(z), as_stack(w)
    time, steps, dt = (np.broadcast_to(v, z.shape[:1]) for v in (time, steps, dt))
    return [
        {
            "time": float(time[b]),
            "steps": float(steps[b]),
            "amplitude": comm.allreduce(float(np.max(np.abs(z[b, ..., 2]))), op=MAX),
            "vorticity_norm": math.sqrt(comm.allreduce(
                float(np.sum(np.ascontiguousarray(w[b]) ** 2)))),
            "dt": float(dt[b]),
        }
        for b in range(z.shape[0])
    ]


def _build_exact(comm: Comm, mesh: SurfaceMesh, config: SolverConfig,
                 eps: float, backend) -> ExactBRSolver:
    return ExactBRSolver(
        comm, mesh, eps, periodic_images=config.br_images, backend=backend
    )


def _build_cutoff(comm: Comm, mesh: SurfaceMesh, config: SolverConfig,
                  eps: float, backend) -> CutoffBRSolver:
    s_low, s_high = config.spatial_bounds()
    return CutoffBRSolver(
        comm, mesh, eps, config.cutoff, s_low, s_high,
        backend=backend,
    )


def _build_tree(comm: Comm, mesh: SurfaceMesh, config: SolverConfig,
                eps: float, backend) -> TreeBRSolver:
    return TreeBRSolver(
        comm, mesh, eps, theta=config.theta, leaf_size=config.leaf_size,
        backend=backend,
    )


#: BR-solver registry: config names -> builders.  The CLI's
#: ``--list-solvers`` and the deck validation both read this, so
#: documentation and dispatch cannot drift apart.
_BR_SOLVER_BUILDERS = {
    "exact": _build_exact,
    "cutoff": _build_cutoff,
    "tree": _build_tree,
}


def available_br_solvers() -> list[str]:
    """Registered Birkhoff-Rott solver names, in registry order."""
    return list(_BR_SOLVER_BUILDERS)


def build_integrator(
    pm: ProblemManager, config: SolverConfig, backend
) -> TimeIntegrator:
    """The FFT, BR solver, Z-Model and RK3 integrator over ``pm`` that
    ``config`` selects — the one wiring of :class:`Solver` and of
    :class:`~repro.batch.ScenarioFleet` (which then sets per-scenario
    ``ZModel.params``, BR ``eps`` and ``dt`` for each stack it steps)."""
    order = Order.parse(config.order)
    mesh = pm.mesh
    fft = None
    if order in (Order.LOW, Order.MEDIUM):
        fft = DistributedFFT2D(mesh.cart, config.num_nodes, config.fft_config)
    br = None
    if order in (Order.MEDIUM, Order.HIGH):
        build = _BR_SOLVER_BUILDERS[config.br_solver]
        br = build(mesh.cart, mesh, config, config.effective_eps(), backend)
    params = ZModelParameters(
        atwood=config.atwood,
        gravity=config.gravity,
        mu=config.mu,
        bernoulli=config.bernoulli,
    )
    zmodel = ZModel(pm, order, params, fft=fft, br_solver=br, backend=backend)
    return TimeIntegrator(pm, zmodel, backend=backend)


class Solver:
    """Builds the module stack from a config and runs timesteps.

    ``backend`` is the engine every hot path of this solver runs on
    (:func:`~repro.backend.get_backend`: ``None`` is ``blocked``); only
    reference runs in tests pass another.
    """

    def __init__(
        self, comm: Comm, config: SolverConfig, ic: InitialCondition,
        *, backend: "ArrayBackend | str | None" = None,
    ) -> None:
        self.comm = comm
        self.config = config
        self.order = Order.parse(config.order)
        self.backend = get_backend(backend)

        self.mesh = SurfaceMesh(
            comm, config.low, config.high, config.num_nodes, config.periodic
        )
        self.pm = ProblemManager(self.mesh)
        apply_initial_condition(self.pm, ic)

        self.integrator = build_integrator(self.pm, config, self.backend)
        self.zmodel = self.integrator.zmodel
        self.br_solver = self.zmodel.br_solver
        self.dt = config.effective_dt()
        self.time = 0.0
        self.step_count = 0

    # -- stepping ------------------------------------------------------------

    def step(self) -> None:
        """Advance one timestep (three ZModel evaluations), then check
        this rank's owned state with :func:`check_health`.  A diverged
        rank raises; its peers are torn down by the SPMD abort path, so
        the check adds no collective."""
        self.integrator.step(self.dt)
        self.time += self.dt
        self.step_count += 1
        self.comm.trace.metrics.counter("solver.steps").inc()
        error, = check_health(
            self.pm.z.own, self.pm.w.own, self.config.amplitude_bound(),
            self.step_count, self.comm.rank,
        )
        if error is not None:
            raise error

    def run(
        self,
        nsteps: int,
        on_step: Optional[Callable[["Solver"], None]] = None,
        write_freq: int = 0,
        writer: Optional[Callable[["Solver"], None]] = None,
    ) -> None:
        """Run ``nsteps`` timesteps, optionally invoking hooks.

        ``on_step(solver)`` fires after every step; ``writer(solver)``
        fires every ``write_freq`` steps (and after the last step).
        """
        if nsteps < 0:
            raise ConfigurationError(f"nsteps must be >= 0, got {nsteps}")
        for n in range(nsteps):
            self.step()
            if on_step is not None:
                on_step(self)
            if writer is not None and write_freq > 0 and (
                self.step_count % write_freq == 0 or n == nsteps - 1
            ):
                writer(self)

    # -- checkpoint / resume -----------------------------------------------------

    def save_checkpoint(self, path: str) -> Optional[str]:
        """Collectively write the global solver state to ``path``.

        All ranks must call this (it gathers the global surface); only
        rank 0 writes and returns the path, other ranks return ``None``.
        """
        from repro.core.diagnostics import gather_global_state
        from repro.io.checkpoint import save_checkpoint as _save

        z_global, w_global = gather_global_state(self.pm)
        if self.comm.rank != 0:
            return None
        return _save(
            path,
            positions=z_global,
            vorticity=w_global,
            time=self.time,
            step=self.step_count,
            metadata={
                "order": self.config.order,
                "br_solver": self.config.br_solver,
                "num_nodes": list(self.config.num_nodes),
                "dt": self.dt,
            },
        )

    @classmethod
    def from_checkpoint(
        cls,
        comm: Comm,
        config: SolverConfig,
        state: "str | dict[str, Any]",
        ic: Optional[InitialCondition] = None,
        *, backend: "ArrayBackend | str | None" = None,
    ) -> "Solver":
        """Rebuild a solver from a checkpoint written by :meth:`save_checkpoint`.

        ``state`` is either a checkpoint path or an already-loaded dict
        (as returned by :func:`repro.io.checkpoint.load_checkpoint`).
        Each rank installs its owned slice of the global arrays, so the
        resumed run is decomposition independent of the writing run.
        """
        from repro.io.checkpoint import load_checkpoint

        if isinstance(state, (str, bytes)) or hasattr(state, "__fspath__"):
            state = load_checkpoint(state)
        z_global = np.asarray(state["positions"])
        w_global = np.asarray(state["vorticity"])
        if z_global.shape[:2] != tuple(config.num_nodes):
            raise ConfigurationError(
                f"checkpoint mesh {z_global.shape[:2]} does not match "
                f"config num_nodes {tuple(config.num_nodes)}"
            )
        solver = cls(comm, config, ic or InitialCondition(kind="flat"),
                     backend=backend)
        space = solver.mesh.owned_space
        (i0, j0), (ni, nj) = space.mins, space.shape
        solver.pm.set_state(
            z_global[i0: i0 + ni, j0: j0 + nj],
            w_global[i0: i0 + ni, j0: j0 + nj],
        )
        solver.pm.gather_state()
        solver.time = float(state["time"])
        solver.step_count = int(state["step"])
        return solver

    # -- diagnostics -------------------------------------------------------------

    def diagnostics(self) -> dict[str, float]:
        return state_diagnostics(
            self.comm, self.pm.z.own, self.pm.w.own,
            self.time, self.step_count, self.dt,
        )[0]
