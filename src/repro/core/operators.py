"""Finite-difference operators on the ghosted surface mesh.

Beatnik computes surface normals, finite differences and Laplacians
with "two-node-deep stencils" (paper §3.1) — here realized as 4th-order
central differences, whose 5-point stencils read exactly two ghost
nodes per side and therefore require the depth-2 halo the grid layer
provides.

The stencils take a *full* ``(…, ni + 2h, nj + 2h)`` local array (grid
axes trailing, ghosts included) and return the result on *owned* nodes
only; ``h`` must be ≥ 2.  The vector algebra takes ``(…, 3)`` rows.

Stencils (spacing ``d``):

* first derivative:  ``(f[-2] - 8 f[-1] + 8 f[+1] - f[+2]) / (12 d)``
* second derivative: ``(-f[-2] + 16 f[-1] - 30 f[0] + 16 f[+1] - f[+2]) / (12 d²)``

Convergence order is pinned by tests against analytic fields.
"""

from __future__ import annotations

import numpy as np

from repro.backend.stencils import dx, dy, laplacian

__all__ = [
    "as_stack",
    "dx",
    "dy",
    "laplacian",
    "cross",
    "dot",
    "norm",
    "area_element",
]

# dx / dy / laplacian are re-exported from repro.backend.stencils — the
# single home of the reference stencil formulas, shared with the compute
# backends (which must not import the core layer).


def as_stack(a: np.ndarray) -> np.ndarray:
    """One block's ``(c, ni, nj)`` planes (or their ``(ni, nj, c)`` view)
    as a stack of one, a ``(B, …)`` stack as given."""
    return a.reshape((-1,) + a.shape[-3:])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise 3D cross product for (..., 3) arrays."""
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise dot product over the trailing component axis."""
    return np.einsum("...k,...k->...", a, b)


def norm(a: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean norm over the trailing component axis."""
    return np.sqrt(dot(a, a))


def area_element(n_unnormalized: np.ndarray, floor: float = 1e-300) -> np.ndarray:
    """|t1 × t2| = sqrt(det h): the surface area element.

    Clamped away from zero so degenerate (pinched) surface points do not
    produce division blowups in the vorticity update.
    """
    return np.maximum(norm(n_unnormalized), floor)
