"""Diagnostics: global gathers, growth rates, load-imbalance statistics.

Provides the measurement machinery behind the paper's evaluation
figures: RT growth-rate estimation (validates the physics), global
surface assembly (feeds the VTK writer for Figures 1/2), and the
particles-per-rank ownership statistics of Figures 6/7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.problem_manager import ProblemManager

__all__ = [
    "gather_global_state",
    "fit_growth_rate",
    "rt_dispersion_sigma",
    "OwnershipStats",
    "ownership_stats",
    "vorticity_magnitude",
]


def gather_global_state(
    pm: ProblemManager,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Assemble the full (N1, N2, ·) position and vorticity on rank 0.

    Returns ``(z_global, w_global)`` on rank 0 and ``(None, None)``
    elsewhere.  Used by the writer and by serial-vs-distributed
    equivalence tests.
    """
    comm = pm.mesh.cart
    payload = (
        pm.mesh.owned_space.mins,
        pm.z.own.copy(),
        pm.w.own.copy(),
    )
    gathered = comm.gather(payload, root=0)
    if comm.rank != 0:
        return None, None
    n1, n2 = pm.mesh.global_mesh.num_nodes
    z_global = np.zeros((n1, n2, 3))
    w_global = np.zeros((n1, n2, 2))
    for (mins, z_own, w_own) in gathered:
        i0, j0 = mins
        ni, nj = z_own.shape[:2]
        z_global[i0: i0 + ni, j0: j0 + nj] = z_own
        w_global[i0: i0 + ni, j0: j0 + nj] = w_own
    return z_global, w_global


def vorticity_magnitude(w_own: np.ndarray) -> np.ndarray:
    """|γ| per node — the coloring used in the paper's Figures 1/2."""
    return np.sqrt(np.sum(np.asarray(w_own) ** 2, axis=-1))


def rt_dispersion_sigma(atwood: float, gravity: float, k: float) -> float:
    """Linear Rayleigh-Taylor growth rate σ = sqrt(A g k)."""
    return math.sqrt(abs(atwood * gravity * k))


def fit_growth_rate(times: np.ndarray, amplitudes: np.ndarray) -> float:
    """Least-squares slope of log(amplitude) vs time.

    For a linearly unstable mode A(t) ≈ A₀ cosh(σ t) → for σt ≳ 1 the
    log-slope approaches σ.  Callers select the time window; this
    helper just fits.
    """
    t = np.asarray(times, dtype=np.float64)
    a = np.asarray(amplitudes, dtype=np.float64)
    if t.size != a.size or t.size < 2:
        raise ValueError("need at least two (time, amplitude) samples")
    if np.any(a <= 0):
        raise ValueError("amplitudes must be positive for a log fit")
    slope, _ = np.polyfit(t, np.log(a), 1)
    return float(slope)


@dataclass(frozen=True)
class OwnershipStats:
    """Spatial ownership distribution across ranks (Figures 6/7)."""

    counts: np.ndarray          # particles per rank
    fractions: np.ndarray       # counts / total
    imbalance: float            # max/mean ratio (1.0 = perfectly even)
    spread: float               # max fraction − min fraction
    total: int

    def describe(self) -> str:
        return (
            f"total={self.total}, imbalance={self.imbalance:.3f}, "
            f"fraction range=[{self.fractions.min():.4%}, "
            f"{self.fractions.max():.4%}]"
        )


def ownership_stats(counts: np.ndarray) -> OwnershipStats:
    """Summarize a per-rank particle ownership vector."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    fractions = counts / max(total, 1)
    mean = counts.mean() if counts.size else 0.0
    imbalance = float(counts.max() / mean) if mean > 0 else 1.0
    spread = float(fractions.max() - fractions.min()) if counts.size else 0.0
    return OwnershipStats(
        counts=counts,
        fractions=fractions,
        imbalance=imbalance,
        spread=spread,
        total=total,
    )
