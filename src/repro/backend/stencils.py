"""Reference 4th-order stencil kernels shared by backends and operators.

The "two-node-deep stencil" math of :mod:`repro.core.operators` lives
here, one layer down, so compute backends can use it without importing
the core package (backends sit below core in the layering).  The
formulas (spacing ``d``):

* first derivative:  ``(f[-2] - 8 f[-1] + 8 f[+1] - f[+2]) / (12 d)``
* second derivative: ``(-f[-2] + 16 f[-1] - 30 f[0] + 16 f[+1] - f[+2]) / (12 d²)``

All functions take a *full* ghosted ``(…, n1 + 4, n2 + 4)`` array (halo
depth 2, grid axes trailing) and return the owned ``(…, n1, n2)``.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ConfigurationError

__all__ = ["HALO", "interior", "check", "dx", "dy", "laplacian"]

HALO = 2


def interior(full: np.ndarray, oi: int, oj: int) -> np.ndarray:
    """Owned-region view shifted by (oi, oj) nodes (|oi|,|oj| ≤ halo)."""
    h = HALO
    ni = full.shape[-2] - 2 * h
    nj = full.shape[-1] - 2 * h
    return full[..., h + oi: h + oi + ni, h + oj: h + oj + nj]


def check(full: np.ndarray) -> None:
    if full.ndim < 2 or min(full.shape[-2:]) < 2 * HALO + 1:
        raise ConfigurationError(
            f"array {full.shape} too small for depth-{HALO} stencils"
        )


def dx(full: np.ndarray, spacing: float) -> np.ndarray:
    """4th-order ∂/∂α₁ (grid axis −2) on owned nodes."""
    check(full)
    return (
        interior(full, -2, 0)
        - 8.0 * interior(full, -1, 0)
        + 8.0 * interior(full, 1, 0)
        - interior(full, 2, 0)
    ) / (12.0 * spacing)


def dy(full: np.ndarray, spacing: float) -> np.ndarray:
    """4th-order ∂/∂α₂ (grid axis −1) on owned nodes."""
    check(full)
    return (
        interior(full, 0, -2)
        - 8.0 * interior(full, 0, -1)
        + 8.0 * interior(full, 0, 1)
        - interior(full, 0, 2)
    ) / (12.0 * spacing)


def laplacian(full: np.ndarray, dx_: float, dy_: float) -> np.ndarray:
    """4th-order surface-parameter Laplacian ∂²/∂α₁² + ∂²/∂α₂²."""
    check(full)
    d2x = (
        -interior(full, -2, 0)
        + 16.0 * interior(full, -1, 0)
        - 30.0 * interior(full, 0, 0)
        + 16.0 * interior(full, 1, 0)
        - interior(full, 2, 0)
    ) / (12.0 * dx_ * dx_)
    d2y = (
        -interior(full, 0, -2)
        + 16.0 * interior(full, 0, -1)
        - 30.0 * interior(full, 0, 0)
        + 16.0 * interior(full, 0, 1)
        - interior(full, 0, 2)
    ) / (12.0 * dy_ * dy_)
    return d2x + d2y
