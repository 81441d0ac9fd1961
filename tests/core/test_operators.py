"""Finite-difference operators: accuracy order and algebraic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import operators as ops
from repro.util.errors import ConfigurationError


def _periodic_field(n, fn):
    """Sample fn on a periodic grid of n points over [0, 2π) with a
    depth-2 ghost frame filled by periodicity."""
    x = np.linspace(0, 2 * np.pi, n, endpoint=False)
    h = 2
    dx = x[1] - x[0]
    xg = np.concatenate([x[-h:] - 2 * np.pi, x, x[:h] + 2 * np.pi])
    X, Y = np.meshgrid(xg, xg, indexing="ij")
    return fn(X, Y), dx


class TestDerivativeAccuracy:
    def test_dx_exact_on_low_modes(self):
        full, dx = _periodic_field(32, lambda X, Y: np.sin(X) * np.cos(Y))
        d = ops.dx(full, dx)
        x = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        X, Y = np.meshgrid(x, x, indexing="ij")
        expected = np.cos(X) * np.cos(Y)
        assert np.max(np.abs(d - expected)) < 1e-4

    def test_dy_antisymmetry(self):
        full, dx = _periodic_field(24, lambda X, Y: np.cos(2 * Y))
        d = ops.dy(full, dx)
        x = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        _, Y = np.meshgrid(x, x, indexing="ij")
        assert np.max(np.abs(d + 2 * np.sin(2 * Y))) < 6e-3

    @pytest.mark.parametrize("op_name", ["dx", "laplacian"])
    def test_fourth_order_convergence(self, op_name):
        errors = []
        for n in (16, 32, 64):
            full, dx = _periodic_field(n, lambda X, Y: np.sin(X) * np.sin(Y))
            x = np.linspace(0, 2 * np.pi, n, endpoint=False)
            X, Y = np.meshgrid(x, x, indexing="ij")
            if op_name == "dx":
                result = ops.dx(full, dx)
                exact = np.cos(X) * np.sin(Y)
            else:
                result = ops.laplacian(full, dx, dx)
                exact = -2.0 * np.sin(X) * np.sin(Y)
            errors.append(np.max(np.abs(result - exact)))
        # Order: error ratio per halving of dx should be ~16.
        r1 = errors[0] / errors[1]
        r2 = errors[1] / errors[2]
        assert r1 > 12.0 and r2 > 12.0

    def test_constant_field_derivatives_zero(self):
        full = np.full((12, 12), 7.5)
        assert np.allclose(ops.dx(full, 0.1), 0.0)
        assert np.allclose(ops.dy(full, 0.1), 0.0)
        assert np.allclose(ops.laplacian(full, 0.1, 0.1), 0.0, atol=1e-10)

    def test_linear_field_exact(self):
        x = np.arange(12) * 0.5
        X, Y = np.meshgrid(x, x, indexing="ij")
        full = 3.0 * X - 2.0 * Y
        assert np.allclose(ops.dx(full, 0.5), 3.0)
        assert np.allclose(ops.dy(full, 0.5), -2.0)

    def test_multicomponent_arrays(self):
        full = np.zeros((3, 12, 12))
        full[1] = np.arange(12)[:, None] * 1.0
        d = ops.dx(full, 1.0)
        assert d.shape == (3, 8, 8)
        assert np.allclose(d[1], 1.0)
        assert np.allclose(d[0], 0.0)

    def test_too_small_raises(self):
        with pytest.raises(ConfigurationError):
            ops.dx(np.zeros((4, 4)), 1.0)


class TestVectorAlgebra:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_cross_orthogonal(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(5, 5, 3))
        b = rng.normal(size=(5, 5, 3))
        c = ops.cross(a, b)
        assert np.allclose(ops.dot(c, a), 0.0, atol=1e-10)
        assert np.allclose(ops.dot(c, b), 0.0, atol=1e-10)

    def test_cross_matches_numpy(self, rng):
        a = rng.normal(size=(4, 4, 3))
        b = rng.normal(size=(4, 4, 3))
        assert np.allclose(ops.cross(a, b), np.cross(a, b))

    def test_norm(self, rng):
        a = rng.normal(size=(6, 6, 3))
        assert np.allclose(ops.norm(a), np.linalg.norm(a, axis=-1))

    def test_area_element_floor(self):
        n = np.zeros((3, 3, 3))
        deth = ops.area_element(n)
        assert np.all(deth > 0.0)


def _tangents_and_normal(z, h):
    t1, t2 = (np.moveaxis(d, 0, -1) for d in (ops.dx(z, h), ops.dy(z, h)))
    return t1, t2, ops.cross(t1, t2)


class TestSurfaceNormal:
    def test_flat_surface(self):
        x = np.arange(12) * 0.25
        X, Y = np.meshgrid(x, x, indexing="ij")
        z = np.stack([X, Y, np.zeros_like(X)])
        t1, t2, n = _tangents_and_normal(z, 0.25)
        assert np.allclose(t1, [1, 0, 0])
        assert np.allclose(t2, [0, 1, 0])
        assert np.allclose(n, [0, 0, 1])
        assert np.allclose(ops.area_element(n), 1.0)

    def test_tilted_surface(self):
        x = np.arange(12) * 0.25
        X, Y = np.meshgrid(x, x, indexing="ij")
        z = np.stack([X, Y, 0.5 * X])
        t1, t2, n = _tangents_and_normal(z, 0.25)
        assert np.allclose(t1, [1, 0, 0.5])
        assert np.allclose(n, [-0.5, 0, 1.0])
        assert np.allclose(ops.area_element(n), np.sqrt(1.25))
