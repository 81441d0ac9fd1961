"""TVD third-order Runge-Kutta time integration (paper §3.1).

Beatnik's ``TimeIntegrator`` advances position and vorticity with a
third-order Runge-Kutta method, invoking the ZModel three times per
timestep.  We use the Shu-Osher TVD-RK3 scheme:

    u⁽¹⁾ = uⁿ + Δt L(uⁿ)
    u⁽²⁾ = ¾ uⁿ + ¼ (u⁽¹⁾ + Δt L(u⁽¹⁾))
    uⁿ⁺¹ = ⅓ uⁿ + ⅔ (u⁽²⁾ + Δt L(u⁽²⁾))

with u = (z, γ) on owned nodes — of z, only the components the ZModel
moves (:attr:`ZModel.moving`): at low order ż = (0, 0, W₃), so the
lateral positions are never written and stay the mesh coordinates.
Every stage starts with a fresh halo gather inside
:meth:`ZModel.compute_derivatives`, so the three evaluations per step
each trigger the full communication pipeline — the property that makes
Beatnik a communication benchmark.  Third-order accuracy is pinned by a
convergence test on a linear model problem.

Each stage is one fused backend axpy per field,

    u ← a_u·u + a_0·u⁰ + a_Δ·Δt·L(u),

applied in place on the owned state (no per-stage full-state
temporaries beyond the single u⁰ snapshot per step), and recorded as a
``rk3_axpy`` roofline compute event in the ``integrate`` phase — the
same totals for every backend.  A ``(B, …)`` stack of scenarios (a
:class:`~repro.batch.ScenarioFleet` slice) steps the same way, with one
``dt`` per scenario.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.core.operators import as_stack
from repro.core.problem_manager import ProblemManager
from repro.core.zmodel import ZModel
from repro.util.errors import ConfigurationError

__all__ = ["TimeIntegrator", "STAGE_COEFFS"]

#: Per-element cost of one fused stage update (3 mul + 2 add) and its
#: memory traffic (read u, u0, du; write u).
AXPY_FLOPS = 5.0
_AXPY_BYTES = 4 * 8.0

#: (a_u, a_0, a_Δ) per stage: u ← a_u·u + a_0·u⁰ + a_Δ·dt·L(u).
STAGE_COEFFS = (
    (0.0, 1.0, 1.0),
    (0.25, 0.75, 0.25),
    (2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0),
)


class TimeIntegrator:
    """Shu-Osher TVD-RK3 over the (z, γ) surface state."""

    STAGES = len(STAGE_COEFFS)

    def __init__(
        self,
        pm: ProblemManager,
        zmodel: ZModel,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        if zmodel.pm is not pm:
            raise ConfigurationError("ZModel must be bound to the same ProblemManager")
        self.pm = pm
        self.zmodel = zmodel
        self.backend = get_backend(backend)

    def step(self, dt: "float | np.ndarray") -> None:
        """Advance the ProblemManager state by one timestep of size dt
        (a float, or a ``(B,)`` array for a stack of B scenarios)."""
        if np.any(np.asarray(dt) <= 0):
            raise ConfigurationError(f"dt must be positive, got {dt}")
        pm = self.pm
        bk = self.backend
        trace = pm.mesh.cart.trace
        rank = pm.mesh.cart.rank
        z, w = as_stack(pm.z.own), as_stack(pm.w.own)
        # The modeled cost is the general surface's; only the moving
        # components of z are written (z₃ alone at low order).
        elements = z.size + w.size
        z = z[..., self.zmodel.moving]
        z0 = z.copy()
        w0 = w.copy()

        for au, a0, adu in STAGE_COEFFS:
            zdot, wdot = self.zmodel.compute_derivatives()
            with trace.phase("integrate"):
                t0 = trace.clock()
                bk.rk3_axpy(z, z, au, z0, a0, zdot.reshape(z.shape), adu * dt)
                bk.rk3_axpy(w, w, au, w0, a0, wdot.reshape(w.shape), adu * dt)
                trace.record_compute(
                    "rk3_axpy", rank,
                    flops=AXPY_FLOPS * elements,
                    bytes_moved=_AXPY_BYTES * elements,
                    items=elements, t_wall=trace.clock_since(t0),
                )
            del zdot, wdot          # freed before the next evaluation


def rk3_scalar_reference(lam: complex, u0: complex, dt: float, nsteps: int) -> complex:
    """Reference TVD-RK3 on u' = λu (used by order-of-accuracy tests)."""
    u = complex(u0)
    for _ in range(nsteps):
        k1 = u + dt * lam * u
        k2 = 0.75 * u + 0.25 * (k1 + dt * lam * k1)
        u = (u + 2.0 * (k2 + dt * lam * k2)) / 3.0
    return u
