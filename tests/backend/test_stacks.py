"""Every stacked kernel: a stack computes each member as a stack of one.

``br_allpairs``, the stencils and ``rk3_axpy`` have one entry point
each, taking a ``(B, ...)`` stack with per-scenario scalars as ``(B,)``
vectors; a solo run passes a stack of one.  A fleet-stepped scenario
therefore replays its solo run only if each member of a stack comes out
exactly as it does alone — pinned here bit for bit on every engine,
with an odd stack so the blocked kernel's chunking leaves a remainder.
The engines then agree with each other to the parity tolerance.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from tests.conftest import ENGINES

TOL = 1e-12
B = 5  # scenarios per stack — odd, so blocked chunking hits a remainder


def _each(stack):
    """The members of a stack, each as a stack of one."""
    return [stack[b : b + 1] for b in range(stack.shape[0])]


@pytest.mark.parametrize("name", ENGINES)
class TestStackEqualsStacksOfOne:
    @pytest.mark.parametrize("n", [48, 300])       # one panel; ragged panels
    def test_br_allpairs(self, name, n, rng):
        bk = get_backend(name)
        targets = rng.normal(size=(B, n, 3))
        omega = rng.normal(size=(B, n, 3))
        eps2 = rng.uniform(0.01, 0.1, size=B)
        pref = rng.uniform(0.5, 2.0, size=B)
        # Symmetric (the self-interaction term), then distinct sources
        # (periodic-image shifts) accumulated into a non-zero ``out``.
        shifted = targets + np.array([6.28, 0.0, 0.0])
        out = np.zeros((B, n, 3))
        bk.br_allpairs(targets, targets, omega, eps2, pref, out, symmetric=True)
        bk.br_allpairs(targets, shifted, omega, eps2, pref, out)
        for b, (t, s, om) in enumerate(zip(_each(targets), _each(shifted),
                                           _each(omega))):
            alone = np.zeros((1, n, 3))
            bk.br_allpairs(t, t, om, eps2[b:b + 1], pref[b:b + 1], alone,
                           symmetric=True)
            bk.br_allpairs(t, s, om, eps2[b:b + 1], pref[b:b + 1], alone)
            assert np.array_equal(out[b:b + 1], alone), b

    def test_br_allpairs_tiny_batch_pairs(self, name, rng, monkeypatch):
        """A pair budget under one scenario's pairs still works."""
        from repro.backend import numpy_backend

        bk = get_backend(name)
        n = 16
        targets = rng.normal(size=(B, n, 3))
        omega = rng.normal(size=(B, n, 3))
        eps2, pref = np.full(B, 0.05), np.full(B, 1.3)
        out = np.zeros((B, n, 3))
        monkeypatch.setattr(numpy_backend, "_ALLPAIRS_BATCH", n * n // 2)
        bk.br_allpairs(targets, targets, omega, eps2, pref, out,
                       symmetric=True)
        for b, (t, om) in enumerate(zip(_each(targets), _each(omega))):
            alone = np.zeros((1, n, 3))
            bk.br_allpairs(t, t, om, eps2[:1], pref[:1], alone, symmetric=True)
            assert np.array_equal(out[b:b + 1], alone), b

    @pytest.mark.parametrize("shape", [(B, 3, 12, 14), (B, 12, 14)])
    def test_stencils(self, name, shape, rng):
        bk = get_backend(name)
        full = rng.normal(size=shape)
        dx = bk.stencil_dx(full, 0.25)
        dy = bk.stencil_dy(full, 0.5)
        lap = bk.stencil_laplacian(full, 0.25, 0.5)
        assert dx.shape == dy.shape == lap.shape == shape[:-2] + (8, 10)
        for b, member in enumerate(_each(full)):
            assert np.array_equal(dx[b:b + 1], bk.stencil_dx(member, 0.25))
            assert np.array_equal(dy[b:b + 1], bk.stencil_dy(member, 0.5))
            assert np.array_equal(
                lap[b:b + 1], bk.stencil_laplacian(member, 0.25, 0.5)
            )

    @pytest.mark.parametrize("alias", ["u", "u0", "du", "none"])
    def test_rk3_axpy_including_aliasing(self, name, alias, rng):
        bk = get_backend(name)
        shape = (B, 6, 7, 3)
        u, u0, du = (rng.normal(size=shape) for _ in range(3))
        adu = rng.uniform(0.001, 0.01, size=B)
        au, a0 = 0.25, 0.75
        operands = {"u": u.copy(), "u0": u0.copy(), "du": du.copy()}
        out = operands[alias] if alias != "none" else np.empty(shape)
        bk.rk3_axpy(out, operands["u"], au, operands["u0"], a0,
                    operands["du"], adu)
        for b in range(B):
            one = slice(b, b + 1)
            alone = u[one].copy()
            bk.rk3_axpy(alone, u[one], au, u0[one], a0, du[one], adu[b])
            assert np.array_equal(out[one], alone), (alias, b)
        want = au * u + a0 * u0 + adu.reshape(B, 1, 1, 1) * du
        assert np.max(np.abs(out - want)) <= TOL


class TestCrossEngineAgreement:
    """The blocked stacked kernels agree with the numpy reference."""

    def test_br_allpairs(self, rng):
        n = 40
        targets = rng.normal(size=(B, n, 3))
        omega = rng.normal(size=(B, n, 3))
        eps2 = rng.uniform(0.01, 0.1, size=B)
        pref = rng.uniform(0.5, 2.0, size=B)
        outs = []
        for name in ENGINES:
            out = np.zeros((B, n, 3))
            get_backend(name).br_allpairs(
                targets, targets, omega, eps2, pref, out, symmetric=True
            )
            outs.append(out)
        for out in outs[1:]:
            assert np.max(np.abs(out - outs[0])) <= TOL

    def test_stencils(self, rng):
        full = rng.normal(size=(B, 2, 10, 10))
        results = [
            (bk.stencil_dx(full, 0.1), bk.stencil_dy(full, 0.2),
             bk.stencil_laplacian(full, 0.1, 0.2))
            for bk in map(get_backend, ENGINES)
        ]
        for got in results[1:]:
            for a, b in zip(got, results[0]):
                assert np.max(np.abs(a - b)) <= TOL
