"""Vectorized Birkhoff-Rott force kernels.

The Birkhoff-Rott velocity of interface point ``t`` induced by the
vortex sheet is the regularized (Krasny-desingularized) quadrature

    W(t) = (ΔA / 4π) Σ_j  ω_j × (t − s_j) / (|t − s_j|² + ε²)^{3/2}

where ``s_j`` are source points, ``ω_j`` their surface vorticity
vectors, ΔA the parameter-space cell area and ε the desingularization
length.  The ``j`` term with ``s_j = t`` contributes exactly zero
(the numerator vanishes), so self-interaction needs no special casing.

Three evaluation strategies share this module, and one kernel,
``ArrayBackend.br_allpairs``:

* :func:`br_velocity_allpairs` — dense target×source blocks, used by
  the exact (ring-pass) solver;
* :func:`br_velocity_within` — the cutoff solver's sum: the all-pairs
  kernel under a cutoff mask, over only the chunk pairs the bounding-box
  search listed;
* :func:`br_velocity_listed` — the tree solver's near field: the
  all-pairs kernel over the (piece, piece) sub-panels its walk listed,
  unmasked.

This module is the *accounting* layer: it validates shapes, resolves
the compute backend (:mod:`repro.backend`) that does the actual pair
math, and records the roofline compute events (≈ 30 flops and 9 reads
per pair).  The recorded totals are a function of the logical pair
count only — swapping backends, exploiting the symmetric-block
shortcut or skipping the sub-panels a chunk list leaves out never
changes what the machine model sees: the cutoff sum records the pairs
within the cutoff, not the candidates it formed.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.util.errors import ConfigurationError

__all__ = [
    "br_velocity_allpairs", "br_velocity_listed", "br_velocity_within",
    "PAIR_FLOPS",
]

PAIR_FLOPS = 30.0  # diff(3) + r² (5) + rsqrt³ (~6) + cross (9) + axpy (7)
_PAIR_BYTES = 9 * 8.0


def _stack(points: np.ndarray) -> np.ndarray:
    """``(n, 3)`` points as a stack of one; ``(B, n, 3)`` stacks as given."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return pts if pts.ndim == 3 else pts[None]


def br_velocity_allpairs(
    targets: np.ndarray,
    sources: np.ndarray,
    omega: np.ndarray,
    eps: "float | np.ndarray",
    dA: float,
    *,
    trace=None,
    rank: int = 0,
    backend: "ArrayBackend | str | None" = None,
    symmetric: bool = False,
) -> np.ndarray:
    """Dense BR velocity of every target due to every source.

    Points are ``(n, 3)`` arrays, or ``(B, n, 3)`` stacks of B
    independent scenarios with ``eps`` a float or one ε per scenario;
    the result has the shape of ``targets``.  ``symmetric=True`` tells
    the backend that ``targets`` and ``sources`` are the same point set
    in the same order (the exact solver's own-block hop), enabling
    pair-geometry reuse.
    """
    bk = get_backend(backend)
    tgt, src, om = _stack(targets), _stack(sources), _stack(omega)
    if src.shape != om.shape:
        raise ConfigurationError(
            f"sources {src.shape} and omega {om.shape} must match"
        )
    if symmetric and tgt.shape != src.shape:
        raise ConfigurationError(
            f"symmetric=True requires matching point sets, got targets "
            f"{tgt.shape} vs sources {src.shape}"
        )
    nb, nt, ns = tgt.shape[0], tgt.shape[1], src.shape[1]
    out = np.zeros(tgt.shape)
    if nt == 0 or ns == 0:
        return out if np.ndim(targets) == 3 else out[0]
    prefactor = np.full(nb, dA / (4.0 * np.pi))
    eps2 = np.broadcast_to([float(e) ** 2 for e in np.ravel(eps)], (nb,))
    t0 = trace.clock() if trace is not None else None
    bk.br_allpairs(tgt, src, om, eps2, prefactor, out, symmetric=symmetric)
    if trace is not None:
        pairs = float(nb) * float(nt) * float(ns)
        trace.record_compute(
            "br_allpairs", rank,
            flops=PAIR_FLOPS * pairs, bytes_moved=_PAIR_BYTES * pairs,
            items=int(pairs), t_wall=trace.clock_since(t0),
        )
    return out if np.ndim(targets) == 3 else out[0]


def br_velocity_listed(
    points: np.ndarray,
    omega: np.ndarray,
    blocks,
    pairs: int,
    eps: float,
    dA: float,
    *,
    trace=None,
    rank: int = 0,
    backend: "ArrayBackend | str | None" = None,
) -> np.ndarray:
    """BR velocity of ``(n, 3)`` points over every pair of the sub-panels
    ``blocks`` lists of them against themselves (no mask; the tree
    solver's near field).

    ``pairs`` is the caller's count of the real pairs those sub-panels
    hold (padding left out), which one ``br_neighbors`` event records.
    """
    bk = get_backend(backend)
    pts, om = _stack(points), _stack(omega)
    out = np.zeros(pts.shape)
    t0 = trace.clock() if trace is not None else None
    bk.br_allpairs(pts, pts, om, np.array([float(eps) ** 2]),
                   np.array([dA / (4.0 * np.pi)]), out, blocks=blocks)
    if trace is not None:
        trace.record_compute(
            "br_neighbors", rank,
            flops=PAIR_FLOPS * pairs, bytes_moved=_PAIR_BYTES * pairs,
            items=pairs, t_wall=trace.clock_since(t0),
        )
    return out[0]


def br_velocity_within(
    points: np.ndarray,
    sources: np.ndarray,
    source_omega: np.ndarray,
    cutoff: float,
    eps: float,
    dA: float,
    blocks,
    *,
    trace=None,
    rank: int = 0,
    backend: "ArrayBackend | str | None" = None,
) -> tuple[np.ndarray, int]:
    """BR velocity of ``(n, 3)`` points over the ``sources`` within
    ``cutoff`` (inclusive); the sources begin with the points themselves
    and go on with their ghosts (the cutoff solver).

    ``blocks`` is the symmetric chunk list of the points against the
    sources (:func:`~repro.spatial.neighbors.chunk_pairs`): one masked
    all-pairs call forms only the listed sub-panels, the owned × owned
    ones once for both directions.  Returns the velocity and the pair
    count (ordered pairs, self pairs included) and records one
    ``br_neighbors`` event over those pairs.
    """
    bk = get_backend(backend)
    pts, src, om = _stack(points), _stack(sources), _stack(source_omega)
    out = np.zeros(pts.shape)
    t0 = trace.clock() if trace is not None else None
    pairs = int(bk.br_allpairs(
        pts, src, om, np.array([float(eps) ** 2]),
        np.array([dA / (4.0 * np.pi)]), out,
        cutoff2=np.array([float(cutoff) ** 2]), blocks=blocks,
    )[0])
    if trace is not None:
        trace.record_compute(
            "br_neighbors", rank,
            flops=PAIR_FLOPS * pairs, bytes_moved=_PAIR_BYTES * pairs,
            items=pairs, t_wall=trace.clock_since(t0),
        )
    return out[0], pairs
