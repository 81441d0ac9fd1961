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

At low order the model therefore differentiates the ``z₃`` plane
alone, returns ``ż`` as the one moving plane ``W₃`` and the potential
from ``W₃²``; :attr:`ZModel.moving` tells the time integrator which
planes of ``z`` it steps.  The halo still carries all of ``z``.

The state is component planes (:class:`~repro.grid.NodeArray`); only
``t₁ × t₂`` and ω are written into ``(…, 3)`` rows, the memory order
``|t₁ × t₂|`` (an ``einsum``) and the BR solvers round in.

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
model by :func:`repro.fft.dfft.riesz_multiplier` in the layout and the
memory order the forward transform leaves the spectrum in.

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
from repro.grid.array import component_last
from repro.util.errors import ConfigurationError
from repro.util.roofline import RIESZ_BYTES, RIESZ_FLOPS

__all__ = [
    "Order", "ZModelParameters", "ZModel", "BRSolverProtocol", "vorticity_rate",
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


def vorticity_rate(
    bk: ArrayBackend, phi_full, w_full, deth, spacings, atwood, mu
) -> np.ndarray:
    """γ̇ = (2A ∂₂Φ, −2A ∂₁Φ) / |n| + μ Δ_s γ on the owned nodes of a stack.

    ``phi_full`` / ``w_full`` are ghosted ``(B, n1 + 4, n2 + 4)`` /
    ``(B, 2, …)`` stacks, ``deth`` the ``(B, n1, n2)`` area element and
    the result ``(B, 2, n1, n2)``; ``atwood`` / ``mu`` are floats or
    ``(B, 1, 1)`` arrays.  The viscous term is skipped when every μ is 0.
    """
    dx_, dy_ = spacings
    dphi1 = bk.stencil_dx(phi_full, dx_)
    dphi2 = bk.stencil_dy(phi_full, dy_)
    wdot = np.empty(deth.shape[:1] + (2,) + deth.shape[1:])
    # Written in place: full-size temporaries here are the churn that
    # decides whether glibc trims a rank thread's heap every step.
    np.multiply(2.0 * atwood, dphi2, out=wdot[:, 0])
    np.multiply(-2.0 * atwood, dphi1, out=wdot[:, 1])
    np.divide(wdot, deth[:, None], out=wdot)
    if np.count_nonzero(mu):
        for k in range(2):
            wdot[:, k] += mu * bk.stencil_laplacian(w_full[:, k], dx_, dy_)
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
        # The component planes of z that ż moves: z₃ alone at low order.
        self.moving = slice(2, 3) if self.order is Order.LOW else slice(0, 3)
        # Evaluation statistics (examples/benchmarks read these).
        self.evaluations = 0

    # -- pieces ------------------------------------------------------------

    def _spectral_velocity(self, w_own: np.ndarray) -> np.ndarray:
        """Low-order BR approximation W₃ on owned nodes of the vorticity
        planes: one packed transform pair (FFT).  W₁ = W₂ = 0."""
        assert self.fft is not None
        mesh = self.pm.mesh
        trace = mesh.cart.trace
        with trace.phase("fft"):
            # γ1 + iγ2 in one array, transformed in place by the first
            # stage (on the grid axes of the stack) and freed after it.
            packed = np.empty(w_own[..., 0, :, :].shape, np.complex128)
            packed.real = w_own[..., 0, :, :]
            packed.imag = w_own[..., 1, :, :]
            spectrum = self.fft.forward_transposed(packed, overwrite_input=True)
            del packed
            t0 = trace.clock()
            spectrum *= self._riesz
            trace.record_compute(
                "riesz", mesh.cart.rank,
                flops=RIESZ_FLOPS * spectrum.size,
                bytes_moved=RIESZ_BYTES * spectrum.size,
                items=spectrum.size, t_wall=trace.clock_since(t0),
            )
            # W₃ leaves compact.  At low order this is the copy that
            # ``compute_derivatives`` makes of ż anyway, made early: the
            # complex result, twice its size, is freed before the rest
            # of the evaluation allocates, instead of at its end.
            return np.ascontiguousarray(self.fft.backward_transposed(spectrum).real)

    def _geometry(
        self, z_full: np.ndarray, w_own: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """(|n|, ω) on owned nodes of a stack of position / vorticity
        planes: the area element |t₁ × t₂| and the ``(B, n1, n2, 3)``
        rows of the vorticity vector ω = γ1 t₁ + γ2 t₂ the BR solver
        takes (``None`` at low order, which has no BR solver).

        At low order the surface is the graph of z₃: t₁ = (1, 0, p) and
        t₂ = (0, 1, q) with p = ∂₁z₃, q = ∂₂z₃, so only the z₃ plane is
        differentiated and |n| = sqrt(1 + p² + q²) ≥ 1.
        """
        dx_, dy_ = self.pm.mesh.global_mesh.spacings
        bk = self.backend
        if self.order is Order.LOW:
            z3 = z_full[:, 2]
            p = bk.stencil_dx(z3, dx_)
            q = bk.stencil_dy(z3, dy_)
            p *= p
            q *= q
            p += q
            p += 1.0
            return np.sqrt(p, out=p), None
        t1 = component_last(bk.stencil_dx(z_full, dx_))
        t2 = component_last(bk.stencil_dy(z_full, dy_))
        deth = ops.area_element(ops.cross(t1, t2))
        w = component_last(w_own)
        return deth, np.add(w[..., 0:1] * t1, w[..., 1:2] * t2,
                            out=np.empty(t1.shape))

    # -- main entry ------------------------------------------------------------

    def compute_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """(ż, γ̇) on owned nodes from the ProblemManager's current state.

        Gathers halos, applies boundary conditions, computes geometry,
        evaluates the order-appropriate velocities, and assembles the
        evolution equations.  Purely local except for the gather, FFT
        and BR-solver calls.  Both results are planes shaped like the
        owned planes of the state, one block's or a stack's, except that
        ż holds only the :attr:`moving` planes of z (W₃ alone at low
        order, a view of the BR velocity's rows otherwise).
        """
        pm = self.pm
        mesh = pm.mesh
        p = self.params
        trace = mesh.cart.trace
        pm.gather_state()

        lead = pm.z.full.shape[:-3]
        z_full, w_full, z_own, w_own = map(
            ops.as_stack, (pm.z.full, pm.w.full, pm.z.planes, pm.w.planes))
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
        w_br = (
            self.br_solver.compute_velocities(component_last(z_own), omega)
            if need_br else None
        )

        w_total = w_br.transpose(0, 3, 1, 2) if need_br else w3[:, None]
        w_sq = w3 * w3 if need_fft else ops.dot(w_br, w_br)

        # The potential Φ = g z₃ − β |W|²/2, written into the owned
        # window of its ghosted array and haloed for its gradient.
        phi_full = np.zeros(z_full.shape[:1] + mesh.local_shape)
        phi = phi_full[(Ellipsis, *mesh.own_slices)]
        np.multiply(p.gravity, z_own[:, 2], out=phi)
        w_sq *= 0.5 * p.bernoulli
        phi -= w_sq
        pm.gather_field(phi_full)

        with trace.phase("stencil"):
            t0 = trace.clock()
            wdot = vorticity_rate(
                self.backend, phi_full, w_full, deth, mesh.global_mesh.spacings,
                p.atwood, p.mu,
            )
            trace.record_compute(
                "vorticity_update", mesh.cart.rank,
                flops=30.0 * deth.size,
                bytes_moved=8.0 * 8 * deth.size,
                items=deth.size, t_wall=trace.clock_since(t0),
            )

        self.evaluations += 1
        return (
            w_total.reshape(lead + w_total.shape[1:]),
            wdot.reshape(lead + wdot.shape[1:]),
        )
