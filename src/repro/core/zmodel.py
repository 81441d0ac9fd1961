"""ZModel: low/medium/high-order interface derivatives (paper §2, §3.1).

Computes the time derivatives of interface position ``z`` and vorticity
``w = (γ1, γ2)`` from the current surface state, at one of three model
orders that differ in *how the Birkhoff-Rott (BR) velocity is obtained*
— and therefore in what they make the communication system do:

=========  =======================  ==========================  ===========
Order      position velocity ż      velocity in the γ̇ potential  needs
=========  =======================  ==========================  ===========
LOW        spectral (FFT Riesz)     spectral                    FFT, periodic
MEDIUM     Birkhoff-Rott solver     spectral                    FFT + BR solver
HIGH       Birkhoff-Rott solver     Birkhoff-Rott               BR solver only
=========  =======================  ==========================  ===========

(The paper: the low-order solver approximates the BR integral with
FFTs; the medium-order solver couples the FFT solver and the far-field
solver, "using FFTs for calculating changes in vorticity"; the
high-order solver evaluates the BR integral directly and is the only
order that works with non-periodic boundaries.)

Model equations
---------------
Surface vorticity vector      ``ω = γ1 ∂₁z + γ2 ∂₂z``
Spectral (flat-linearized) BR ``Ŵ₃ = i (k₁ γ̂2 − k₂ γ̂1) / (2|k|)``,
                              evaluated packed:
                              ``W₃ = Re F⁻¹[ (k₁′ − i k₂′)/(2|k|) · F[γ1 + iγ2] ]``
Direct BR quadrature          see :mod:`repro.core.kernels`
Potential                     ``Φ = g z₃ − β |W|²/2``
Evolution                     ``ż = W``,
                              ``γ̇1 = 2A ∂₂Φ / |n| + μ Δ_s γ1``,
                              ``γ̇2 = −2A ∂₁Φ / |n| + μ Δ_s γ2``
Low order                     ``W = (0, 0, W₃)``, so ``z₁ = α₁`` and
                              ``z₂ = α₂`` for all time: the surface is
                              the graph of ``z₃``, with tangents
                              ``t₁ = (1, 0, ∂₁z₃)``, ``t₂ = (0, 1, ∂₂z₃)``
                              and ``|n| = sqrt(1 + (∂₁z₃)² + (∂₂z₃)²)``

At low order the model therefore differentiates ``z₃`` alone, returns
``ż`` as the one moving component ``W₃`` and the potential from
``W₃²``; :attr:`ZModel.moving` tells the time integrator which
components of ``z`` it steps.  The halo still carries all of ``z``.

Linearized about a flat interface this reproduces the Rayleigh-Taylor
dispersion relation σ = sqrt(A g |k|) (pinned by tests), and the ⊥
gradient structure of the baroclinic source is what makes the spectral
and direct BR velocities consistent with each other.

The packed form costs one forward and one backward complex transform
where the textbook form costs two forwards and one backward.  With
``ĉ = γ̂1 + iγ̂2`` the product ``(k₁ − i k₂) ĉ / (2|k|)`` is
``[(k₁γ̂1 + k₂γ̂2) + i (k₁γ̂2 − k₂γ̂1)] / (2|k|)``: γ̂ is Hermitian (γ is
real) and ``k`` is odd, so the first bracket is anti-Hermitian — its
inverse transform is purely imaginary — and the second is exactly
``Ŵ₃``, Hermitian, with a real inverse.  The one place ``k`` is not odd
is the Nyquist row/column of an even-length axis (``−k`` aliases onto
``k``); there the textbook ``Ŵ₃`` term is itself anti-Hermitian and
``Re F⁻¹`` silently drops it, so ``k′`` zeroes that entry of the odd
factor (``|k|`` keeps it) and the two forms agree to round-off on any
real input, not only smooth ones.  The multiplier is built once per
model by :func:`repro.fft.dfft.riesz_multiplier` in the layout the
forward transform leaves the spectrum in.

The ZModel performs *no direct communication* — it calls the halo
gather (via :class:`~repro.core.problem_manager.ProblemManager`), the
distributed FFT, and the BR solver, each of which communicates in its
own phase, mirroring Beatnik's class structure.

Stacks
------
It evaluates a ``(B, …)`` stack of B same-grid scenarios on one rank (a
:class:`~repro.batch.ScenarioFleet` slice) with the same code: each
stage runs on the stack the backend kernels take (a solo block is a
stack of one), and the :class:`ZModelParameters` fields may be
``(B, 1, 1)`` arrays, one value per scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Protocol

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.core import operators as ops
from repro.core.problem_manager import ProblemManager
from repro.fft.dfft import DistributedFFT2D, riesz_multiplier
from repro.util.errors import ConfigurationError
from repro.util.roofline import RIESZ_BYTES, RIESZ_FLOPS

__all__ = [
    "Order", "ZModelParameters", "ZModel", "BRSolverProtocol", "potential",
    "vorticity_rate",
]


class Order(Enum):
    """Z-Model solution order (template tag in Beatnik's C++)."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @classmethod
    def parse(cls, value: "Order | str") -> "Order":
        if isinstance(value, Order):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            raise ConfigurationError(
                f"unknown order {value!r}; options: low, medium, high"
            ) from None


class BRSolverProtocol(Protocol):
    """Interface every Birkhoff-Rott solver implements."""

    name: str

    def compute_velocities(
        self, z_own: np.ndarray, omega_own: np.ndarray
    ) -> np.ndarray: ...


@dataclass(frozen=True)
class ZModelParameters:
    """Physical and regularization parameters of the Z-Model.

    Each field is a float, or a ``(B, 1, 1)`` array of per-scenario
    values when the model evaluates a stack.

    Attributes
    ----------
    atwood:
        Atwood number A = (ρ₂ − ρ₁)/(ρ₂ + ρ₁); A·g > 0 is the unstable
        (rocket-rig) configuration.
    gravity:
        Acceleration magnitude g in the z direction.
    mu:
        Artificial-viscosity coefficient on the vorticity (μ Δ_s γ);
        0 disables it.
    bernoulli:
        β factor on the |W|²/2 term of the potential; 0 reduces γ̇ to
        the purely baroclinic linear source.
    """

    atwood: float = 0.5
    gravity: float = 10.0
    mu: float = 0.0
    bernoulli: float = 1.0


def potential(z_own, w_sq, gravity, bernoulli) -> np.ndarray:
    """Φ = g z₃ − β |W|²/2 on owned nodes, from ``w_sq`` = |W|².

    ``gravity`` / ``bernoulli`` are floats or ``(B, 1, 1)`` arrays,
    broadcasting over the node axes of the ``(B, n1, n2, ·)`` stacks.
    """
    return gravity * z_own[..., 2] - 0.5 * bernoulli * w_sq


def vorticity_rate(
    bk: ArrayBackend, phi_full, w_full, deth, spacings, atwood, mu
) -> np.ndarray:
    """γ̇ = (2A ∂₂Φ, −2A ∂₁Φ) / |n| + μ Δ_s γ on the owned nodes of a stack.

    ``phi_full`` / ``w_full`` are ghosted ``(B, n1 + 4, n2 + 4, 1)`` /
    ``(…, 2)`` stacks and ``deth`` the ``(B, n1, n2)`` area element;
    ``atwood`` / ``mu`` are floats or ``(B, 1, 1)`` arrays.  The viscous
    term is skipped when every μ is zero.
    """
    dx_, dy_ = spacings
    dphi1 = bk.stencil_dx(phi_full, dx_)[..., 0]
    dphi2 = bk.stencil_dy(phi_full, dy_)[..., 0]
    wdot = np.empty(deth.shape + (2,))
    wdot[..., 0] = 2.0 * atwood * dphi2 / deth
    wdot[..., 1] = -2.0 * atwood * dphi1 / deth
    if np.count_nonzero(mu):
        wdot[..., 0] += mu * bk.stencil_laplacian(w_full[..., 0], dx_, dy_)
        wdot[..., 1] += mu * bk.stencil_laplacian(w_full[..., 1], dx_, dy_)
    return wdot


class ZModel:
    """Derivative computation bound to one ProblemManager."""

    def __init__(
        self,
        pm: ProblemManager,
        order: Order | str,
        params: ZModelParameters,
        fft: Optional[DistributedFFT2D] = None,
        br_solver: Optional[BRSolverProtocol] = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        self.pm = pm
        self.order = Order.parse(order)
        self.params = params
        self.fft = fft
        self.br_solver = br_solver
        self.backend = get_backend(backend)
        mesh = pm.mesh
        if self.order in (Order.LOW, Order.MEDIUM):
            if fft is None:
                raise ConfigurationError(f"{self.order} order requires an FFT solver")
            if not (all(mesh.global_mesh.periodic)):
                raise ConfigurationError(
                    "low- and medium-order solves require periodic boundaries "
                    "(the paper notes Beatnik's reliance on periodic FFT solvers)"
                )
            if tuple(fft.global_shape) != tuple(mesh.global_mesh.num_nodes):
                raise ConfigurationError(
                    f"FFT shape {fft.global_shape} != mesh {mesh.global_mesh.num_nodes}"
                )
            self._riesz = riesz_multiplier(
                fft.global_shape, mesh.global_mesh.extent, fft.spectrum_box
            )
        if self.order in (Order.MEDIUM, Order.HIGH) and br_solver is None:
            raise ConfigurationError(f"{self.order} order requires a BR solver")
        # The components of z that ż moves: z₃ alone at low order.
        self.moving = slice(2, 3) if self.order is Order.LOW else slice(0, 3)
        # Evaluation statistics (examples/benchmarks read these).
        self.evaluations = 0

    # -- pieces ------------------------------------------------------------

    def _spectral_velocity(self, w_own: np.ndarray) -> np.ndarray:
        """Low-order BR approximation W₃ on owned nodes: one packed
        transform pair (FFT).  W₁ = W₂ = 0."""
        assert self.fft is not None
        mesh = self.pm.mesh
        trace = mesh.cart.trace
        with trace.phase("fft"):
            # (γ1, γ2) pairs are the memory layout of γ1 + iγ2; the
            # transform runs on the trailing (grid) axes of the stack.
            packed = np.ascontiguousarray(w_own).view(np.complex128)[..., 0]
            spectrum = self.fft.forward_transposed(packed)
            t0 = trace.clock()
            spectrum *= self._riesz
            trace.record_compute(
                "riesz", mesh.cart.rank,
                flops=RIESZ_FLOPS * spectrum.size,
                bytes_moved=RIESZ_BYTES * spectrum.size,
                items=spectrum.size, t_wall=trace.clock_since(t0),
            )
            return self.fft.backward_transposed(spectrum).real

    def _geometry(
        self, z_full: np.ndarray, w_own: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """(|n|, ω) on owned nodes of a stack: the area element
        |t₁ × t₂| and the vorticity vector ω = γ1 t₁ + γ2 t₂ the BR
        solver takes (``None`` at low order, which has no BR solver).

        At low order the surface is the graph of z₃: t₁ = (1, 0, p) and
        t₂ = (0, 1, q) with p = ∂₁z₃, q = ∂₂z₃, so only z₃ is
        differentiated and |n| = sqrt(1 + p² + q²) ≥ 1.
        """
        dx_, dy_ = self.pm.mesh.global_mesh.spacings
        bk = self.backend
        if self.order is Order.LOW:
            z3 = z_full[..., 2:3]
            p = bk.stencil_dx(z3, dx_)[..., 0]
            q = bk.stencil_dy(z3, dy_)[..., 0]
            p *= p
            q *= q
            p += q
            p += 1.0
            return np.sqrt(p, out=p), None
        t1 = bk.stencil_dx(z_full, dx_)
        t2 = bk.stencil_dy(z_full, dy_)
        deth = ops.area_element(ops.cross(t1, t2))
        return deth, w_own[..., 0:1] * t1 + w_own[..., 1:2] * t2

    def _br_velocity(self, z_own: np.ndarray, omega_own: np.ndarray) -> np.ndarray:
        assert self.br_solver is not None
        return self.br_solver.compute_velocities(z_own, omega_own)

    def br_cache_stats(self) -> Optional[dict[str, int]]:
        """Spatial-cache statistics of the bound BR solver, if it keeps
        any (the cutoff solver's Verlet-skin rebuild/reuse counts)."""
        stats = getattr(self.br_solver, "cache_stats", None)
        return stats() if callable(stats) else None

    # -- main entry ------------------------------------------------------------

    def compute_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """(ż, γ̇) on owned nodes from the ProblemManager's current state.

        Gathers halos, applies boundary conditions, computes geometry,
        evaluates the order-appropriate velocities, and assembles the
        evolution equations.  Purely local except for the gather, FFT
        and BR-solver calls.  Both results have the shape of the owned
        state, one block's or a stack's, except that ż holds only the
        :attr:`moving` components of z (W₃ alone at low order).
        """
        pm = self.pm
        mesh = pm.mesh
        p = self.params
        trace = mesh.cart.trace
        pm.gather_state()

        lead = pm.z.full.shape[:-3]
        z_full, w_full, z_own, w_own = (
            ops.as_stack(a) for a in (pm.z.full, pm.w.full, pm.z.own, pm.w.own)
        )
        need_fft = self.order in (Order.LOW, Order.MEDIUM)
        need_br = self.order in (Order.MEDIUM, Order.HIGH)

        with trace.phase("stencil"):
            t0 = trace.clock()
            deth, omega = self._geometry(z_full, w_own)
            trace.record_compute(
                "geometry", mesh.cart.rank,
                flops=40.0 * deth.size,
                bytes_moved=11.0 * 8 * deth.size,
                items=deth.size, t_wall=trace.clock_since(t0),
            )

        w3 = self._spectral_velocity(w_own) if need_fft else None
        w_br = self._br_velocity(z_own, omega) if need_br else None

        w_total = w_br if need_br else w3[..., None]
        w_sq = w3 * w3 if need_fft else ops.dot(w_br, w_br)

        # The potential, haloed for its gradient.
        phi_own = potential(z_own, w_sq, p.gravity, p.bernoulli)
        phi_full = pm.full_from_own(phi_own[..., None])
        pm.gather_field(phi_full)

        with trace.phase("stencil"):
            t0 = trace.clock()
            wdot = vorticity_rate(
                self.backend, phi_full, w_full, deth, mesh.global_mesh.spacings,
                p.atwood, p.mu,
            )
            trace.record_compute(
                "vorticity_update", mesh.cart.rank,
                flops=30.0 * wdot[..., 0].size,
                bytes_moved=8.0 * 8 * wdot[..., 0].size,
                items=wdot[..., 0].size, t_wall=trace.clock_since(t0),
            )

        self.evaluations += 1
        return (
            np.ascontiguousarray(w_total).reshape(lead + w_total.shape[1:]),
            wdot.reshape(lead + wdot.shape[1:]),
        )
