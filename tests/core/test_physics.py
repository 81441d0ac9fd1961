"""Physics pinning: RT dispersion, BR solver consistency, RK3 order.

These tests tie the implementation to the Z-Model's known linear
behaviour (σ = sqrt(A g |k|)) and to the internal consistency between
the spectral (low-order) and direct (high-order) Birkhoff-Rott
operators — the quantitative foundation under the benchmark.
"""

import numpy as np
import pytest

from repro import mpi
from repro.core import (
    InitialCondition,
    Solver,
    SolverConfig,
    fit_growth_rate,
    rt_dispersion_sigma,
)
from repro.core.kernels import br_velocity_allpairs
from repro.core.time_integrator import rk3_scalar_reference
from tests.conftest import spmd

ATWOOD, GRAVITY = 0.5, 4.0
KMAG = np.sqrt(2.0)  # single (1,1) mode on a 2π-periodic square
SIGMA = rt_dispersion_sigma(ATWOOD, GRAVITY, KMAG)
N = 32


def _eigenmode_config(order, br_solver="exact", br_images=False, cutoff=2.0):
    return SolverConfig(
        num_nodes=(N, N),
        low=(-np.pi, -np.pi),
        high=(np.pi, np.pi),
        periodic=(True, True),
        order=order,
        br_solver=br_solver,
        br_images=br_images,
        atwood=ATWOOD,
        gravity=GRAVITY,
        bernoulli=0.0,
        dt=0.01,
        eps=1e-9,
        cutoff=cutoff,
        spatial_low=(-4, -4, -2),
        spatial_high=(4, 4, 2),
    )


def _eigenmode_ratios(comm, cfg):
    """Install the linear growing eigenmode and measure ż₃/(σh), γ̇/(σγ)."""
    eps_amp = 1e-6
    solver = Solver(comm, cfg, InitialCondition(kind="flat"))
    X, Y = np.broadcast_arrays(*solver.mesh.owned_coordinates())
    h = eps_amp * np.cos(X) * np.cos(Y)
    g1 = (2 * ATWOOD * GRAVITY / SIGMA) * eps_amp * np.cos(X) * (-np.sin(Y))
    g2 = -(2 * ATWOOD * GRAVITY / SIGMA) * eps_amp * (-np.sin(X)) * np.cos(Y)
    z = solver.pm.z.own.copy()
    z[..., 2] = h
    solver.pm.set_state(z, np.stack([g1, g2], axis=-1))
    zdot, wdot = solver.zmodel.compute_derivatives()
    mask = np.abs(h) > 0.3 * eps_amp
    z_ratio = zdot[-1][mask] / (SIGMA * h[mask])
    maskw = np.abs(g1) > 0.3 * np.abs(g1).max()
    w_ratio = wdot[0][maskw] / (SIGMA * g1[maskw])
    return float(np.mean(z_ratio)), float(np.mean(w_ratio))


class TestEigenmode:
    def test_low_order_exact_dispersion(self):
        def program(comm):
            return _eigenmode_ratios(comm, _eigenmode_config("low"))

        z_ratio, w_ratio = spmd(4, program)[0]
        assert z_ratio == pytest.approx(1.0, abs=1e-6)
        assert w_ratio == pytest.approx(1.0, abs=1e-3)

    def test_high_order_with_images_near_dispersion(self):
        """Direct BR + periodic images: first-order quadrature ⇒ ~0.91 at N=32."""

        def program(comm):
            return _eigenmode_ratios(
                comm, _eigenmode_config("high", br_images=True)
            )

        z_ratio, w_ratio = spmd(2, program)[0]
        assert 0.85 < z_ratio < 1.0
        assert w_ratio == pytest.approx(1.0, abs=1e-3)

    def test_high_order_free_space_deficit(self):
        """Without images the free-space operator misses ~25 % (documented)."""

        def program(comm):
            return _eigenmode_ratios(comm, _eigenmode_config("high"))

        z_ratio, _ = spmd(2, program)[0]
        assert 0.55 < z_ratio < 0.9

    def test_cutoff_matches_exact_free_space(self):
        """Cutoff ≥ most of the domain ⇒ matches the free-space exact solver."""

        def exact(comm):
            return _eigenmode_ratios(comm, _eigenmode_config("high", "exact"))

        def cutoff(comm):
            return _eigenmode_ratios(
                comm, _eigenmode_config("high", "cutoff", cutoff=10.0)
            )

        ze, _ = spmd(4, exact)[0]
        zc, _ = spmd(4, cutoff)[0]
        assert zc == pytest.approx(ze, rel=1e-6)

    def test_medium_order_uses_br_for_position(self):
        """Medium order: ż from the BR solver, γ̇ potential from the FFT."""

        def program(comm):
            return _eigenmode_ratios(
                comm, _eigenmode_config("medium", br_images=True)
            )

        z_ratio, w_ratio = spmd(2, program)[0]
        assert 0.85 < z_ratio < 1.0     # BR velocity with quadrature deficit
        assert w_ratio == pytest.approx(1.0, abs=1e-3)  # spectral γ̇


class TestGrowthEvolution:
    def test_low_order_growth_rate(self):
        """Time-evolved amplitude growth matches sqrt(Ag|k|) within 2 %."""
        cfg = SolverConfig(
            num_nodes=(N, N), low=(-np.pi, -np.pi), high=(np.pi, np.pi),
            periodic=(True, True), order="low", atwood=ATWOOD, gravity=GRAVITY,
            bernoulli=0.0, dt=0.004,
        )
        ic = InitialCondition(kind="single_mode", magnitude=1e-7, period=1.0)

        def program(comm):
            s = Solver(comm, cfg, ic)
            times, amps = [], []
            for _ in range(700):
                s.step()
                if s.time >= 1.8:
                    times.append(s.time)
                    amps.append(s.diagnostics()["amplitude"])
            return fit_growth_rate(np.array(times), np.array(amps))

        rate = spmd(1, program)[0]
        assert rate == pytest.approx(SIGMA, rel=0.02)

    def test_flat_interface_stationary(self):
        cfg = SolverConfig(
            num_nodes=(16, 16), low=(-1, -1), high=(1, 1), order="low",
            dt=0.01,
        )

        def program(comm):
            s = Solver(comm, cfg, InitialCondition(kind="flat"))
            s.run(5)
            return s.diagnostics()["amplitude"], s.diagnostics()["vorticity_norm"]

        amp, vort = spmd(1, program)[0]
        assert amp == 0.0 and vort == 0.0

    def test_stable_configuration_oscillates(self):
        """A·g < 0 (light fluid on top): amplitude must not grow."""
        cfg = SolverConfig(
            num_nodes=(N, N), low=(-np.pi, -np.pi), high=(np.pi, np.pi),
            order="low", atwood=ATWOOD, gravity=-GRAVITY, bernoulli=0.0,
            dt=0.004,
        )
        ic = InitialCondition(kind="single_mode", magnitude=1e-6, period=1.0)

        def program(comm):
            s = Solver(comm, cfg, ic)
            amp0 = s.diagnostics()["amplitude"]
            s.run(400)
            return amp0, s.diagnostics()["amplitude"]

        amp0, amp1 = spmd(1, program)[0]
        assert amp1 < 3.0 * amp0


class TestBRKernels:
    def test_allpairs_self_term_is_zero(self):
        pts = np.array([[0.0, 0.0, 0.0]])
        om = np.array([[1.0, 2.0, 0.0]])
        out = br_velocity_allpairs(pts, pts, om, eps=0.1, dA=1.0)
        assert np.allclose(out, 0.0)

    def test_single_vortex_element_velocity(self):
        """One ω=ẑ source at origin: W = (dA/4π) ẑ×r/|r|³."""
        src = np.array([[0.0, 0.0, 0.0]])
        om = np.array([[0.0, 0.0, 1.0]])
        tgt = np.array([[1.0, 0.0, 0.0]])
        out = br_velocity_allpairs(tgt, src, om, eps=0.0, dA=4 * np.pi)
        assert np.allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_pairwise_sum_matches_allpairs(self, rng):
        """The kernel is the quadrature summed pair by pair."""
        pts = rng.uniform(-1, 1, size=(60, 3))
        om = rng.normal(size=(60, 3))
        dense = br_velocity_allpairs(pts, pts, om, eps=0.05, dA=0.1)
        pairwise = np.zeros_like(pts)
        for i, t in enumerate(pts):
            for s, w in zip(pts, om):
                d = t - s
                pairwise[i] += np.cross(w, d) * (d @ d + 0.05 ** 2) ** -1.5
        pairwise *= 0.1 / (4.0 * np.pi)
        np.testing.assert_allclose(dense, pairwise, rtol=1e-10, atol=1e-14)

    def test_batching_invariance(self, rng, monkeypatch):
        from repro.backend import numpy_backend

        tgt = rng.uniform(-1, 1, size=(30, 3))
        src = rng.uniform(-1, 1, size=(50, 3))
        om = rng.normal(size=(50, 3))
        b = br_velocity_allpairs(tgt, src, om, 0.1, 1.0, backend="numpy")
        monkeypatch.setattr(numpy_backend, "_ALLPAIRS_BATCH", 10)
        a = br_velocity_allpairs(tgt, src, om, 0.1, 1.0, backend="numpy")
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_linearity_in_vorticity(self, rng):
        tgt = rng.uniform(-1, 1, size=(10, 3))
        src = rng.uniform(-1, 1, size=(20, 3))
        om1 = rng.normal(size=(20, 3))
        om2 = rng.normal(size=(20, 3))
        w1 = br_velocity_allpairs(tgt, src, om1, 0.1, 1.0)
        w2 = br_velocity_allpairs(tgt, src, om2, 0.1, 1.0)
        w12 = br_velocity_allpairs(tgt, src, om1 + 2 * om2, 0.1, 1.0)
        np.testing.assert_allclose(w12, w1 + 2 * w2, rtol=1e-10, atol=1e-14)


class TestRK3:
    def test_third_order_convergence(self):
        """Global error on u' = λu shrinks ~8× per halving of dt."""
        lam = -1.0 + 0.5j
        exact = np.exp(lam)
        errors = []
        for nsteps in (8, 16, 32, 64):
            u = rk3_scalar_reference(lam, 1.0, 1.0 / nsteps, nsteps)
            errors.append(abs(u - exact))
        for e1, e2 in zip(errors, errors[1:]):
            assert e1 / e2 > 6.0

    def test_integrator_matches_scalar_reference(self):
        """The full TimeIntegrator on a flat mesh with γ decay... uses the
        same stage algebra as the scalar reference (μΔ acts like λ)."""
        # Flat surface, vorticity = single Fourier mode, A=0 disables the
        # baroclinic source; μΔ then gives exact exponential decay.
        Nn = 16
        L = 2 * np.pi
        mu = 0.05
        cfg = SolverConfig(
            num_nodes=(Nn, Nn), low=(0, 0), high=(L, L), order="low",
            atwood=0.0, gravity=0.0, mu=mu, bernoulli=0.0, dt=0.05,
        )

        def program(comm):
            s = Solver(comm, cfg, InitialCondition(kind="flat"))
            X, Y = np.broadcast_arrays(*s.mesh.owned_coordinates())
            w = np.stack([np.sin(X), np.zeros_like(X)], axis=-1)
            s.pm.set_state(s.pm.z.own.copy(), w)
            s.run(10)
            return float(np.max(np.abs(s.pm.w.own[..., 0]))), s.time

        amp, t = spmd(1, program)[0]
        # 4th-order FD eigenvalue of sin(x): λ = -μ k_eff², k_eff ≈ 1
        lam = -mu
        expected = abs(rk3_scalar_reference(lam, 1.0, 0.05, 10))
        assert amp == pytest.approx(expected, rel=1e-3)
