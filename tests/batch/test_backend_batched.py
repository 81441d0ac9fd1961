"""Batched ArrayBackend entry points vs their per-scenario scalar kernels."""

import numpy as np
import pytest

from repro.backend import available_backends, get_backend

TOL = 1e-12
B = 5  # scenarios per stack — odd, so blocked chunking hits a remainder


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def backends():
    return [get_backend(name) for name in available_backends()]


@pytest.mark.parametrize("name", available_backends())
class TestBatchedMatchesScalar:
    """Each *_batched result equals the scalar kernel looped per slice."""

    def test_br_allpairs_batched(self, name, rng):
        bk = get_backend(name)
        n = 48
        targets = rng.normal(size=(B, n, 3))
        omega = rng.normal(size=(B, n, 3))
        eps2 = rng.uniform(0.01, 0.1, size=B)
        pref = rng.uniform(0.5, 2.0, size=B)

        # Symmetric: sources are the targets (the self-interaction term).
        out = np.zeros((B, n, 3))
        bk.br_allpairs_batched(
            targets, targets, omega, eps2, pref, out, symmetric=True
        )
        expected = np.zeros((B, n, 3))
        for b in range(B):
            bk.br_allpairs(
                targets[b], targets[b], omega[b], float(eps2[b]),
                float(pref[b]), expected[b], symmetric=True,
            )
        assert np.max(np.abs(out - expected)) <= TOL

        # Asymmetric with distinct sources (periodic-image shifts), and
        # accumulation into non-zero out.
        sources = targets + np.array([6.28, 0.0, 0.0])
        out2 = out.copy()
        bk.br_allpairs_batched(
            targets, sources, omega, eps2, pref, out2, symmetric=False
        )
        expected2 = expected.copy()
        for b in range(B):
            bk.br_allpairs(
                targets[b], sources[b], omega[b], float(eps2[b]),
                float(pref[b]), expected2[b], symmetric=False,
            )
        assert np.max(np.abs(out2 - expected2)) <= TOL

    def test_br_allpairs_batched_chunked_fallback(self, name, rng):
        """A tiny batch_pairs budget (chunk < 1 scenario) still works."""
        bk = get_backend(name)
        n = 16
        targets = rng.normal(size=(B, n, 3))
        omega = rng.normal(size=(B, n, 3))
        eps2 = np.full(B, 0.05)
        pref = np.full(B, 1.3)
        out = np.zeros((B, n, 3))
        bk.br_allpairs_batched(
            targets, targets, omega, eps2, pref, out,
            symmetric=True, batch_pairs=n * n // 2,
        )
        expected = np.zeros((B, n, 3))
        for b in range(B):
            bk.br_allpairs(
                targets[b], targets[b], omega[b], 0.05, 1.3, expected[b],
                symmetric=True,
            )
        assert np.max(np.abs(out - expected)) <= TOL

    @pytest.mark.parametrize("axis", [0, 1])
    def test_fft_roundtrip_and_scalar_match(self, name, axis, rng):
        bk = get_backend(name)
        data = rng.normal(size=(B, 8, 12))
        fwd = bk.fft1d_batched(data, axis)
        assert fwd.shape == data.shape and fwd.dtype == np.complex128
        for b in range(B):
            assert np.max(np.abs(fwd[b] - bk.fft1d(data[b], axis))) <= TOL
        back = bk.ifft1d_batched(fwd, axis)
        assert np.max(np.abs(back.real - data)) <= TOL

    def test_stencils_batched(self, name, rng):
        bk = get_backend(name)
        full = rng.normal(size=(B, 12, 14, 3))
        dx = bk.stencil_dx_batched(full, 0.25)
        dy = bk.stencil_dy_batched(full, 0.5)
        lap = bk.stencil_laplacian_batched(full, 0.25, 0.5)
        assert dx.shape == dy.shape == lap.shape == (B, 8, 10, 3)
        for b in range(B):
            assert np.max(np.abs(dx[b] - bk.stencil_dx(full[b], 0.25))) <= TOL
            assert np.max(np.abs(dy[b] - bk.stencil_dy(full[b], 0.5))) <= TOL
            assert np.max(
                np.abs(lap[b] - bk.stencil_laplacian(full[b], 0.25, 0.5))
            ) <= TOL

    def test_rk3_axpy_batched_including_aliasing(self, name, rng):
        bk = get_backend(name)
        shape = (B, 6, 7, 3)
        u = rng.normal(size=shape)
        u0 = rng.normal(size=shape)
        du = rng.normal(size=shape)
        adu = rng.uniform(0.001, 0.01, size=B)
        au, a0 = 0.25, 0.75
        expected = (
            au * u + a0 * u0
            + adu.reshape(B, 1, 1, 1) * du
        )
        out = np.empty(shape)
        bk.rk3_axpy_batched(out, u, au, u0, a0, du, adu)
        assert np.max(np.abs(out - expected)) <= TOL
        # out aliasing u — the fleet's in-place update pattern.
        aliased = u.copy()
        bk.rk3_axpy_batched(aliased, aliased, au, u0, a0, du, adu)
        assert np.max(np.abs(aliased - expected)) <= TOL
        # out aliasing du.
        aliased_du = du.copy()
        bk.rk3_axpy_batched(aliased_du, u, au, u0, a0, aliased_du, adu)
        assert np.max(np.abs(aliased_du - expected)) <= TOL


class TestCrossBackendAgreement:
    """Fused blocked implementations agree with the numpy loop defaults."""

    def test_br_allpairs_batched_cross_backend(self, rng):
        n = 40
        targets = rng.normal(size=(B, n, 3))
        omega = rng.normal(size=(B, n, 3))
        eps2 = rng.uniform(0.01, 0.1, size=B)
        pref = rng.uniform(0.5, 2.0, size=B)
        outs = []
        for bk in backends():
            out = np.zeros((B, n, 3))
            bk.br_allpairs_batched(
                targets, targets, omega, eps2, pref, out, symmetric=True
            )
            outs.append(out)
        for out in outs[1:]:
            assert np.max(np.abs(out - outs[0])) <= TOL

    def test_stencils_cross_backend(self, rng):
        full = rng.normal(size=(B, 10, 10, 2))
        results = [
            (
                bk.stencil_dx_batched(full, 0.1),
                bk.stencil_laplacian_batched(full, 0.1, 0.1),
            )
            for bk in backends()
        ]
        ref = results[0]
        for got in results[1:]:
            for a, b in zip(got, ref):
                assert np.max(np.abs(a - b)) <= TOL
