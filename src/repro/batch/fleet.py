"""ScenarioFleet: advance N small interfaces per kernel invocation.

One solver run = one interface; heavy traffic means thousands of
*small* concurrent simulations where per-run Python and dispatch
overhead dwarfs the math.  This module batches them: a struct-of-arrays
container (bluesky's ``Traffic`` shape) holds N independent same-grid
scenarios in stacked planes ``(N, 3, ny + 2h, nx + 2h)`` and advances
the whole fleet in lockstep — one call of each backend kernel per RK3
stage for each stack of up to 32 scenarios (every kernel takes a stack;
see :mod:`repro.backend.base`), with vectorized create/finish/remove so
completed scenarios compact out without stalling the rest.

Scenarios share the grid geometry (shape, extent, periodicity, order,
BR solver) — that is what :func:`fleet_key` hashes — but keep their own
physics: Atwood number, gravity, viscosity, Bernoulli constant,
desingularization ε, timestep and initial condition all live in
per-scenario ``(N,)`` vectors.

Parity contract: bitwise, by construction
-----------------------------------------
The fleet keeps the population and nothing else.  It wires one
one-rank module stack with :func:`repro.core.solver.build_integrator`
— the wiring :class:`~repro.core.solver.Solver` uses — and steps each
stack of scenarios through it: the stack is bound to the
:class:`~repro.core.problem_manager.ProblemManager`, the per-scenario
values to the ``ZModel.params`` fields, the BR solver's ``eps`` and the
``dt`` of :meth:`~repro.core.time_integrator.TimeIntegrator.step`.  The
halo gather, boundary plan, FFT, exact BR, Z-Model and RK3 code index
the grid axes from the right, every backend kernel computes a scenario
of a stack exactly as a stack of one, and the health check and
diagnostics are the solver's own (:func:`~repro.core.solver.check_health`,
:func:`~repro.core.solver.state_diagnostics`, on component-last views
as a solo run's).  So a fleet member's
state is ``np.array_equal`` to the same scenario run solo on one rank
(``tests/batch/test_fleet_is_solo.py``).

Telemetry: fleets publish ``batch.scenarios_active`` (gauge),
``batch.steps`` / ``batch.scenario_steps`` / ``batch.scenarios_completed``
(counters) and, through their one-rank communicator, the solver's own
phase spans (``halo``, ``stencil``, ``fft``, ``br_ring``,
``integrate``) and events on the trace they are given.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro import mpi
from repro.backend import ArrayBackend, get_backend
from repro.core.initial_conditions import InitialCondition, initial_state
from repro.core.problem_manager import ProblemManager
from repro.core.solver import (
    SolverConfig, build_integrator, check_health, state_diagnostics,
    state_digest,
)
from repro.core.surface_mesh import SurfaceMesh
from repro.core.zmodel import Order, ZModelParameters
from repro.grid.array import component_last
from repro.mpi.trace import CommTrace, NullTrace
from repro.util.errors import ConfigurationError

__all__ = ["ScenarioFleet", "fleet_key"]

#: Scenarios stepped together: temporaries stay flat in the fleet size
#: and cache-sized (``bench_batch``'s 64-scenario fleet: 2.1–2.5× over
#: solo runs as one stack, 2.7–2.9× as two); no result depends on it.
_STACK = 32

#: Per-scenario ``(N,)`` vectors, compacted with the stacked state.
_PHYSICS = ("atwood", "gravity", "mu", "bernoulli")
_VECTORS = _PHYSICS + ("eps", "dt", "time", "steps", "target")


def fleet_key(config: SolverConfig) -> Optional[tuple]:
    """Hashable batching key, or ``None`` if the config is ineligible.

    Two configs with equal keys can share one :class:`ScenarioFleet`:
    they agree on everything the stacked arrays and shared kernels need
    (grid shape/extent/periodicity, solve order, BR solver choice)
    while Atwood/gravity/mu/bernoulli/eps/dt/IC vary per scenario.
    Ineligible configs — approximate BR solvers (the cutoff/tree
    neighbor machinery is not batched yet), order/boundary combinations
    the solver itself rejects — return ``None`` so callers fall back to
    solo execution.
    """
    try:
        order = Order.parse(config.order)
    except ConfigurationError:
        return None
    periodic = (bool(config.periodic[0]), bool(config.periodic[1]))
    if order in (Order.LOW, Order.MEDIUM) and not all(periodic):
        return None
    br: tuple = (None, False)
    if order in (Order.MEDIUM, Order.HIGH):
        if config.br_solver != "exact":
            return None
        if config.br_images and not all(periodic):
            return None
        br = ("exact", bool(config.br_images))
    return (
        (int(config.num_nodes[0]), int(config.num_nodes[1])),
        (float(config.low[0]), float(config.low[1])),
        (float(config.high[0]), float(config.high[1])),
        periodic,
        order.value,
        br,
    )


class ScenarioFleet:
    """Struct-of-arrays engine advancing N scenarios in lockstep.

    Parameters
    ----------
    template:
        A :class:`SolverConfig` fixing the shared geometry (its
        per-scenario physics fields only seed defaults — every
        ``add()`` brings its own).  Must be fleet-eligible
        (``fleet_key(template) is not None``).
    trace:
        Optional :class:`CommTrace` receiving the solver's phase spans,
        events and ``batch.*`` metrics; defaults to a no-op
        :class:`NullTrace`.
    retain_state:
        When true, finished scenarios' results keep copies of the final
        owned ``z``/``w`` arrays (parity tests, benchmarks).
    backend:
        The engine the fleet steps on, as :class:`~repro.core.Solver`
        takes it (``None`` is ``blocked``).
    """

    def __init__(
        self,
        template: SolverConfig,
        *,
        trace: Optional[CommTrace] = None,
        retain_state: bool = False,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        key = fleet_key(template)
        if key is None:
            raise ConfigurationError(
                "config is not fleet-eligible (batched stepping needs the "
                "exact BR solver and solver-legal order/boundary "
                f"combinations): nodes={template.num_nodes} "
                f"order={template.order} br={template.br_solver} "
                f"periodic={template.periodic}"
            )
        self.key = key
        self.template = template
        self.trace = trace if trace is not None else NullTrace()
        self.metrics = self.trace.metrics
        self.retain_state = bool(retain_state)

        # The solver's module stack on one rank of this fleet's trace.
        self._comm = mpi.single_rank_comm(self.trace)
        surface = SurfaceMesh(
            self._comm, template.low, template.high, template.num_nodes,
            template.periodic,
        )
        self._integrator = build_integrator(
            ProblemManager(surface), template, get_backend(backend)
        )
        self.mesh = surface.global_mesh
        self._surface = surface
        self._own = (Ellipsis, *surface.own_slices)
        self._bound = template.amplitude_bound()

        # Struct-of-arrays state: stacked ghosted fields plus (N,)
        # per-scenario vectors, compacted together.
        self._z = np.zeros((0, 3) + surface.local_shape)
        self._w = np.zeros((0, 2) + surface.local_shape)
        self._vec = {name: np.zeros(0) for name in _VECTORS}
        self._ids: list[int] = []
        self._next_id = 0
        self.results: dict[int, dict] = {}
        self.fleet_steps = 0

    # -- population management -------------------------------------------

    @property
    def size(self) -> int:
        """Number of scenarios currently active in the batch."""
        return len(self._ids)

    def add(self, config: SolverConfig, ic: InitialCondition, steps: int) -> int:
        """Add one scenario; returns its fleet-unique scenario id."""
        return self.add_many([(config, ic, steps)])[0]

    def add_many(
        self,
        items: Sequence[tuple[SolverConfig, InitialCondition, int]],
    ) -> list[int]:
        """Vectorized create: append many scenarios in one extension.

        Every config must share this fleet's key; initial states are
        evaluated through the same helper the solo solver uses, stacked,
        and appended with one concatenate per state/parameter array.
        """
        if not items:
            return []
        for config, _ic, steps in items:
            if fleet_key(config) != self.key:
                raise ConfigurationError(
                    "scenario config does not match the fleet key "
                    f"(fleet: nodes={self.template.num_nodes} "
                    f"order={self.template.order}; got: "
                    f"nodes={config.num_nodes} order={config.order})"
                )
            if int(steps) < 0:
                raise ConfigurationError(
                    f"scenario steps must be >= 0, got {steps}"
                )
        nb = len(items)
        z_new = np.zeros((nb,) + self._z.shape[1:])
        w_new = np.zeros((nb,) + self._w.shape[1:])
        X, Y = self._surface.owned_coordinates()
        low = np.asarray(self.mesh.low, dtype=np.float64)
        extent = np.asarray(self.mesh.extent, dtype=np.float64)
        for i, (_config, ic, _steps) in enumerate(items):
            z, w = initial_state(ic, X, Y, low, extent)
            component_last(z_new[i][self._own])[...] = z
            component_last(w_new[i][self._own])[...] = w
        self._z = np.concatenate([self._z, z_new])
        self._w = np.concatenate([self._w, w_new])
        new = {
            name: [float(getattr(c, name)) for c, _, _ in items]
            for name in _PHYSICS
        }
        new["eps"] = [float(c.effective_eps()) for c, _, _ in items]
        new["dt"] = [float(c.effective_dt()) for c, _, _ in items]
        new["time"] = new["steps"] = np.zeros(nb)
        new["target"] = [int(s) for _, _, s in items]
        for name, values in new.items():
            self._vec[name] = np.concatenate([self._vec[name], values])
        ids = list(range(self._next_id, self._next_id + nb))
        self._next_id += nb
        self._ids.extend(ids)
        self.metrics.gauge("batch.scenarios_active").set(float(self.size))
        return ids

    def _compact(self, keep: np.ndarray) -> None:
        """Boolean-mask compaction of every stacked/per-scenario array."""
        self._z = self._z[keep]
        self._w = self._w[keep]
        self._vec = {name: v[keep] for name, v in self._vec.items()}
        self._ids = [sid for sid, k in zip(self._ids, keep) if k]

    # -- time stepping -----------------------------------------------------

    def step(self) -> None:
        """Advance every active scenario one TVD-RK3 step in lockstep:
        each stack of up to ``_STACK`` scenarios is bound to the module
        stack, with its per-scenario values, and stepped by it."""
        if self.size == 0:
            raise ConfigurationError("cannot step an empty fleet")
        integrator = self._integrator
        zmodel, pm = integrator.zmodel, integrator.pm
        for s in (slice(b, b + _STACK) for b in range(0, self.size, _STACK)):
            pm.z.full, pm.w.full = self._z[s], self._w[s]
            vec = {name: v[s] for name, v in self._vec.items()}
            zmodel.params = ZModelParameters(
                **{name: vec[name].reshape(-1, 1, 1) for name in _PHYSICS}
            )
            if zmodel.br_solver is not None:
                zmodel.br_solver.eps = vec["eps"]
            integrator.step(vec["dt"])
        self._vec["steps"] += 1
        self._vec["time"] += self._vec["dt"]
        self.fleet_steps += 1
        self.metrics.counter("batch.steps").inc()
        self.metrics.counter("batch.scenario_steps").inc(self.size)

    def _finish_ready(
        self, on_finish: Optional[Callable[[int, dict], None]] = None
    ) -> list[int]:
        """Record results for scenarios at target and compact them out.

        A member's result is its diagnostics and the
        :func:`state_digest` of its final owned ``z`` / ``w``, which is
        its one-rank solo run's digest.  A member whose state fails
        :func:`check_health` finishes early with ``{"error":
        RunDivergedError}`` as its result; its siblings keep stepping.
        """
        vec = self._vec
        z_own, w_own = (component_last(a[self._own]) for a in (self._z, self._w))
        errors = check_health(z_own, w_own, self._bound, vec["steps"])
        diverged = np.array([e is not None for e in errors], dtype=bool)
        done = np.flatnonzero((vec["steps"] >= vec["target"]) | diverged)
        if done.size == 0:
            return []
        sound = done[~diverged[done]]
        diags = dict(zip(sound, state_diagnostics(
            self._comm, z_own[sound], w_own[sound], vec["time"][sound],
            vec["steps"][sound], vec["dt"][sound],
        )))
        finished: list[int] = []
        for b in done:
            sid = self._ids[b]
            if diverged[b]:
                result: dict = {"error": errors[b]}
            else:
                result = {
                    "diagnostics": diags[b],
                    "digest": state_digest(z_own[b], w_own[b]),
                }
                if self.retain_state:
                    result["z"] = z_own[b].copy()
                    result["w"] = w_own[b].copy()
            self.results[sid] = result
            finished.append(sid)
        keep = np.ones(self.size, dtype=bool)
        keep[done] = False
        self._compact(keep)
        self.metrics.counter("batch.scenarios_completed").inc(len(finished))
        self.metrics.gauge("batch.scenarios_active").set(float(self.size))
        if on_finish is not None:
            for sid in finished:
                on_finish(sid, self.results[sid])
        return finished

    def run(
        self, on_finish: Optional[Callable[[int, dict], None]] = None
    ) -> dict[int, dict]:
        """Step until every scenario reaches its target; return results.

        Completed scenarios compact out of the batch as soon as they
        finish — a 100-step straggler never pays for 5-step neighbours.
        ``on_finish(scenario_id, result)`` fires at each completion,
        letting callers stream results (the campaign fast path records
        store entries from it).
        """
        self._finish_ready(on_finish)
        while self.size:
            self.step()
            self._finish_ready(on_finish)
        return self.results
