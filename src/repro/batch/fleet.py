"""ScenarioFleet: advance N small interfaces per kernel invocation.

One solver run = one interface; heavy traffic means thousands of
*small* concurrent simulations where per-run Python and dispatch
overhead dwarfs the math.  This module batches them: a struct-of-arrays
container (bluesky's ``Traffic`` shape) holds N independent same-grid
scenarios in stacked arrays ``(N, ny + 2h, nx + 2h, 3)`` and advances
the whole fleet in lockstep — one call of each backend kernel per RK3
stage for each stack of up to 32 scenarios (every kernel takes a stack;
see :mod:`repro.backend.base`), with vectorized create/finish/remove so
completed scenarios compact out without stalling the rest.

Scenarios share the grid geometry (shape, extent, periodicity, order,
BR solver) — that is what :func:`fleet_key` hashes — but keep their own
physics: Atwood number, gravity, viscosity, Bernoulli constant,
desingularization ε, timestep and initial condition all live in
per-scenario ``(N,)`` vectors threaded through the batched kernels.

Parity contract
---------------
A fleet-stepped scenario reproduces the same scenario run solo through
:class:`repro.core.solver.Solver` to 1e-12 on every registered backend
(bitwise on the numpy reference): the fleet runs the solver's own
pieces on its stacks — initial state evaluation
(:func:`repro.core.initial_conditions.initial_state`), the boundary
plan of a one-rank :class:`~repro.core.boundary.BoundaryCondition`
built once per fleet, the RK3 stage coefficients
(:data:`repro.core.time_integrator.STAGE_COEFFS`) and the Z-Model source
terms (:func:`repro.core.zmodel.potential`,
:func:`repro.core.zmodel.vorticity_rate`) — and every backend kernel
computes a scenario of a stack exactly as a stack of one.  Only the
one-block periodic halo self-copy is the fleet's own.
The benchmark gate in ``benchmarks/bench_batch.py`` and the suite in
``tests/batch/`` enforce this.

Telemetry: fleets publish ``batch.scenarios_active`` (gauge),
``batch.steps`` / ``batch.scenario_steps`` / ``batch.scenarios_completed``
(counters) and per-stage spans (``batch_halo``, ``batch_stencil``,
``batch_fft``, ``batch_br``, ``batch_integrate``) on the trace they are
given.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from repro import mpi
from repro.backend import get_backend
from repro.core.boundary import BoundaryCondition
from repro.core.br_exact import image_shifts
from repro.core.initial_conditions import InitialCondition, initial_state
from repro.core.kernels import PAIR_FLOPS
from repro.core.solver import SolverConfig, check_health
from repro.core.surface_mesh import SurfaceMesh
from repro.core.time_integrator import STAGE_COEFFS
from repro.core.zmodel import Order, potential, vorticity_rate
from repro.core import operators as ops
from repro.fft.dfft import riesz_multiplier
from repro.mpi.trace import CommTrace, NullTrace
from repro.util.errors import ConfigurationError, RunDivergedError

__all__ = ["ScenarioFleet", "fleet_key"]

_HALO = 2
_PAIR_BYTES = 9 * 8.0

#: Scenarios stepped together: temporaries stay flat in the fleet size
#: and cache-sized (``bench_batch``'s 64-scenario fleet: 2.1–2.5× over
#: solo runs as one stack, 2.7–2.9× as two); no result depends on it.
_STACK = 32


def fleet_key(config: SolverConfig) -> Optional[tuple]:
    """Hashable batching key, or ``None`` if the config is ineligible.

    Two configs with equal keys can share one :class:`ScenarioFleet`:
    they agree on everything the stacked arrays and shared kernels need
    (grid shape/extent/periodicity, solve order, BR solver choice,
    compute engine, as resolved: ``"auto"`` shares the fleet of the
    engine it selects) while Atwood/gravity/mu/bernoulli/eps/dt/IC vary
    per scenario.  Ineligible configs — approximate BR solvers (the
    cutoff/tree neighbor machinery is not batched yet), order/boundary
    combinations the solver itself rejects, an unknown engine — return
    ``None`` so callers fall back to solo execution.
    """
    try:
        order = Order.parse(config.order)
        engine = get_backend(config.backend).name
    except (ConfigurationError, ValueError):
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
        engine,
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
        Optional :class:`CommTrace` receiving per-stage spans, compute
        events and ``batch.*`` metrics; defaults to a no-op
        :class:`NullTrace`.
    retain_state:
        When true, finished scenarios' results keep copies of the final
        owned ``z``/``w`` arrays (parity tests, benchmarks).
    """

    def __init__(
        self,
        template: SolverConfig,
        *,
        trace: Optional[CommTrace] = None,
        retain_state: bool = False,
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
        self.order = Order.parse(template.order)
        self.backend = get_backend(template.backend)
        self.trace = trace if trace is not None else NullTrace()
        self.metrics = self.trace.metrics
        self.retain_state = bool(retain_state)

        # The boundary plan of the same grid on one rank: its selectors
        # index the grid axes, so it applies to whole stacks.
        surface = SurfaceMesh(
            mpi.single_rank_comm(), template.low, template.high,
            template.num_nodes, template.periodic,
        )
        self._bc = BoundaryCondition(surface)
        self.mesh = surface.global_mesh
        self.shape = self.mesh.num_nodes
        n0, n1 = self.shape
        h = _HALO
        self._full_shape = (n0 + 2 * h, n1 + 2 * h)
        X, Y = self.mesh.node_coordinates(self.mesh.node_space)
        self._X, self._Y = X, Y
        self._dx, self._dy = self.mesh.spacings
        self._prefactor = self.mesh.cell_area / (4.0 * np.pi)
        self._bound = template.amplitude_bound()

        self._need_fft = self.order in (Order.LOW, Order.MEDIUM)
        self._need_br = self.order in (Order.MEDIUM, Order.HIGH)
        if self._need_fft:
            self._riesz = riesz_multiplier(self.shape, self.mesh.extent)
        self._shifts = (
            image_shifts(self.mesh.extent) if template.br_images
            else [(0.0, 0.0)]
        )

        # Struct-of-arrays state: stacked ghosted fields plus (N,)
        # per-scenario parameter/progress vectors, compacted together.
        self._z = np.zeros((0,) + self._full_shape + (3,))
        self._w = np.zeros((0,) + self._full_shape + (2,))
        self._atwood = np.zeros(0)
        self._gravity = np.zeros(0)
        self._mu = np.zeros(0)
        self._bernoulli = np.zeros(0)
        self._dt = np.zeros(0)
        self._eps2 = np.zeros(0)
        self._time = np.zeros(0)
        self._steps_done = np.zeros(0, dtype=np.int64)
        self._steps_target = np.zeros(0, dtype=np.int64)
        self._ids: list[int] = []
        self._next_id = 0
        self.results: dict[int, dict] = {}
        self.fleet_steps = 0

    # -- population management -------------------------------------------

    @property
    def size(self) -> int:
        """Number of scenarios currently active in the batch."""
        return len(self._ids)

    @property
    def active_ids(self) -> tuple[int, ...]:
        """Scenario ids still being advanced, in batch order."""
        return tuple(self._ids)

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
        n0, n1 = self.shape
        h = _HALO
        z_new = np.zeros((nb,) + self._full_shape + (3,))
        w_new = np.zeros((nb,) + self._full_shape + (2,))
        low = np.asarray(self.mesh.low, dtype=np.float64)
        extent = np.asarray(self.mesh.extent, dtype=np.float64)
        for i, (_config, ic, _steps) in enumerate(items):
            z_own, w_own = initial_state(ic, self._X, self._Y, low, extent)
            z_new[i, h : h + n0, h : h + n1, :] = z_own
            w_new[i, h : h + n0, h : h + n1, :] = w_own

        self._z = np.concatenate([self._z, z_new])
        self._w = np.concatenate([self._w, w_new])
        self._atwood = np.concatenate(
            [self._atwood, [float(c.atwood) for c, _, _ in items]]
        )
        self._gravity = np.concatenate(
            [self._gravity, [float(c.gravity) for c, _, _ in items]]
        )
        self._mu = np.concatenate(
            [self._mu, [float(c.mu) for c, _, _ in items]]
        )
        self._bernoulli = np.concatenate(
            [self._bernoulli, [float(c.bernoulli) for c, _, _ in items]]
        )
        self._dt = np.concatenate(
            [self._dt, [float(c.effective_dt()) for c, _, _ in items]]
        )
        self._eps2 = np.concatenate(
            [self._eps2, [float(c.effective_eps()) ** 2 for c, _, _ in items]]
        )
        self._time = np.concatenate([self._time, np.zeros(nb)])
        self._steps_done = np.concatenate(
            [self._steps_done, np.zeros(nb, dtype=np.int64)]
        )
        self._steps_target = np.concatenate(
            [self._steps_target, np.asarray([int(s) for _, _, s in items],
                                            dtype=np.int64)]
        )
        ids = list(range(self._next_id, self._next_id + nb))
        self._next_id += nb
        self._ids.extend(ids)
        self.metrics.gauge("batch.scenarios_active").set(float(self.size))
        return ids

    def remove(self, scenario_id: int) -> bool:
        """Drop an active scenario without recording a result."""
        if scenario_id not in self._ids:
            return False
        keep = np.ones(self.size, dtype=bool)
        keep[self._ids.index(scenario_id)] = False
        self._compact(keep)
        self.metrics.gauge("batch.scenarios_active").set(float(self.size))
        return True

    def _compact(self, keep: np.ndarray) -> None:
        """Boolean-mask compaction of every stacked/per-scenario array."""
        self._z = self._z[keep]
        self._w = self._w[keep]
        self._atwood = self._atwood[keep]
        self._gravity = self._gravity[keep]
        self._mu = self._mu[keep]
        self._bernoulli = self._bernoulli[keep]
        self._dt = self._dt[keep]
        self._eps2 = self._eps2[keep]
        self._time = self._time[keep]
        self._steps_done = self._steps_done[keep]
        self._steps_target = self._steps_target[keep]
        self._ids = [sid for sid, k in zip(self._ids, keep) if k]

    # -- state access ------------------------------------------------------

    def _index(self, scenario_id: int) -> int:
        try:
            return self._ids.index(scenario_id)
        except ValueError:
            raise ConfigurationError(
                f"scenario {scenario_id} is not active in this fleet"
            ) from None

    def _owned(self, a: np.ndarray) -> np.ndarray:
        h = _HALO
        n0, n1 = self.shape
        return a[:, h : h + n0, h : h + n1]

    def state(self, scenario_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Copies of an active scenario's owned ``(z, w)`` arrays."""
        b = self._index(scenario_id)
        return (
            self._owned(self._z)[b].copy(),
            self._owned(self._w)[b].copy(),
        )

    def diagnostics(self, scenario_id: int) -> dict[str, float]:
        """Per-scenario diagnostics matching ``Solver.diagnostics()``."""
        return self._diag_at(self._index(scenario_id))

    def _diag_at(self, b: int) -> dict[str, float]:
        z_own = self._owned(self._z)[b]
        w_own = self._owned(self._w)[b]
        return {
            "time": float(self._time[b]),
            "steps": float(self._steps_done[b]),
            "amplitude": float(np.max(np.abs(z_own[..., 2]))),
            "vorticity_norm": math.sqrt(float(np.sum(w_own**2))),
            "dt": float(self._dt[b]),
        }

    # -- halo / boundary sequence -----------------------------------------
    #
    # The single-rank gather on every scenario at once: periodic
    # self-wrap (axis 0 over owned columns, then axis 1 over the full
    # extent — exactly HaloExchange._slabs), then the solver's boundary
    # plan.

    def _wrap_halo(self, a: np.ndarray) -> None:
        h = _HALO
        n0, n1 = self.shape
        if self.mesh.periodic[0]:
            a[:, 0:h, h : h + n1] = a[:, n0 : n0 + h, h : h + n1]
            a[:, n0 + h : n0 + 2 * h, h : h + n1] = a[:, h : 2 * h, h : h + n1]
        if self.mesh.periodic[1]:
            a[:, :, 0:h] = a[:, :, n1 : n1 + h]
            a[:, :, n1 + h : n1 + 2 * h] = a[:, :, h : 2 * h]

    def _gather_state(self, z: np.ndarray, w: np.ndarray) -> None:
        with self.trace.phase("batch_halo"):
            self._wrap_halo(z)
            self._wrap_halo(w)
            self._bc.apply_position(z)
            self._bc.apply_field(w)

    def _gather_field(self, full: np.ndarray) -> None:
        with self.trace.phase("batch_halo"):
            self._wrap_halo(full)
            self._bc.apply_field(full)

    # -- physics -----------------------------------------------------------

    def _spectral_velocity(self, w_own: np.ndarray) -> np.ndarray:
        """Stacked twin of ``ZModel._spectral_velocity`` (same arithmetic)."""
        with self.trace.phase("batch_fft"):
            packed = np.ascontiguousarray(w_own).view(np.complex128)[..., 0]
            spectrum = np.fft.fft(np.fft.fft(packed, axis=2), axis=1)
            spectrum *= self._riesz
            w3 = np.fft.ifft(np.fft.ifft(spectrum, axis=1), axis=2).real
        out = np.zeros(w3.shape + (3,))
        out[..., 2] = w3
        return out

    def _br_velocity(
        self, z_own: np.ndarray, omega: np.ndarray, eps2: np.ndarray
    ) -> np.ndarray:
        nb = z_own.shape[0]
        targets = np.ascontiguousarray(z_own.reshape(nb, -1, 3))
        om = np.ascontiguousarray(omega.reshape(nb, -1, 3))
        out = np.zeros_like(targets)
        pref = np.full(nb, self._prefactor)
        with self.trace.phase("batch_br"):
            t0 = self.trace.clock()
            for sx, sy in self._shifts:
                sources = targets
                if sx or sy:
                    sources = targets + np.array([sx, sy, 0.0])
                self.backend.br_allpairs(
                    targets, sources, om, eps2, pref, out,
                    symmetric=(not sx and not sy),
                )
            pairs = float(nb) * float(targets.shape[1]) ** 2 * len(self._shifts)
            self.trace.record_compute(
                "br_allpairs", 0,
                flops=PAIR_FLOPS * pairs, bytes_moved=_PAIR_BYTES * pairs,
                items=int(pairs), t_wall=self.trace.clock_since(t0),
            )
        return out.reshape(z_own.shape)

    def _derivatives(self, s: slice) -> tuple[np.ndarray, np.ndarray]:
        """Batched replay of ``ZModel.compute_derivatives`` for the
        scenarios ``s`` of the fleet."""
        bk = self.backend
        h = _HALO
        n0, n1 = self.shape
        z_full, w_full = self._z[s], self._w[s]
        self._gather_state(z_full, w_full)
        z_own = self._owned(z_full)
        w_own = self._owned(w_full)
        with self.trace.phase("batch_stencil"):
            t1 = bk.stencil_dx(z_full, self._dx)
            t2 = bk.stencil_dy(z_full, self._dy)
            normal = ops.cross(t1, t2)
            deth = ops.area_element(normal)
            if self._need_br:
                omega = w_own[..., 0:1] * t1 + w_own[..., 1:2] * t2
            del t1, t2, normal      # a fleet's peak memory is temporaries

        w_fft = self._spectral_velocity(w_own) if self._need_fft else None
        w_br = (
            self._br_velocity(z_own, omega, self._eps2[s])
            if self._need_br else None
        )
        w_total = w_br if self._need_br else w_fft
        w_phi = w_fft if self._need_fft else w_br

        gravity, bernoulli, atwood, mu = (
            v[s].reshape(-1, 1, 1)
            for v in (self._gravity, self._bernoulli, self._atwood, self._mu)
        )
        phi_full = np.zeros((z_full.shape[0],) + self._full_shape + (1,))
        phi_full[:, h : h + n0, h : h + n1, 0] = potential(
            z_own, w_phi, gravity, bernoulli
        )
        self._gather_field(phi_full)

        with self.trace.phase("batch_stencil"):
            wdot = vorticity_rate(
                bk, phi_full, w_full, deth, (self._dx, self._dy), atwood, mu
            )
        return np.ascontiguousarray(w_total), wdot

    # -- time stepping -----------------------------------------------------

    def step(self) -> None:
        """Advance every active scenario one TVD-RK3 step in lockstep."""
        if self.size == 0:
            raise ConfigurationError("cannot step an empty fleet")
        bk = self.backend
        for s in (slice(b, b + _STACK) for b in range(0, self.size, _STACK)):
            z_own = self._owned(self._z[s])
            w_own = self._owned(self._w[s])
            z0 = z_own.copy()
            w0 = w_own.copy()
            for au, a0, adu in STAGE_COEFFS:
                zdot, wdot = self._derivatives(s)
                with self.trace.phase("batch_integrate"):
                    coeff = adu * self._dt[s]
                    bk.rk3_axpy(z_own, z_own, au, z0, a0, zdot, coeff)
                    bk.rk3_axpy(w_own, w_own, au, w0, a0, wdot, coeff)
                del zdot, wdot
        self._steps_done += 1
        self._time += self._dt
        self.fleet_steps += 1
        self.metrics.counter("batch.steps").inc()
        self.metrics.counter("batch.scenario_steps").inc(self.size)

    def _finish_ready(
        self, on_finish: Optional[Callable[[int, dict], None]] = None
    ) -> list[int]:
        """Record results for scenarios at target and compact them out.

        A member whose state fails :func:`check_health` finishes early
        with ``{"error": RunDivergedError}`` as its result; its siblings
        keep stepping.
        """
        z_own, w_own = self._owned(self._z), self._owned(self._w)
        sound = (
            np.isfinite(z_own).all(axis=(1, 2, 3))
            & np.isfinite(w_own).all(axis=(1, 2, 3))
            & (np.abs(z_own[..., 2]).max(axis=(1, 2), initial=0.0) < self._bound)
        )
        done = np.nonzero((self._steps_done >= self._steps_target) | ~sound)[0]
        if done.size == 0:
            return []
        h = _HALO
        n0, n1 = self.shape
        finished: list[int] = []
        for b in done:
            sid = self._ids[int(b)]
            if not sound[b]:
                try:
                    check_health(z_own[b], w_own[b], self._bound,
                                 int(self._steps_done[b]))
                except RunDivergedError as exc:
                    self.results[sid] = {"error": exc}
                    finished.append(sid)
                    continue
            result: dict = {"diagnostics": self._diag_at(int(b))}
            if self.retain_state:
                result["z"] = self._z[b, h : h + n0, h : h + n1, :].copy()
                result["w"] = self._w[b, h : h + n0, h : h + n1, :].copy()
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
