"""Rocket-rig initial conditions (paper §4).

The rocket-rig problem initializes the interface as a graph over the
parameter plane — ``z = (α₁, α₂, η(α₁, α₂))`` with zero initial
vorticity — where the perturbation η selects the benchmark case:

* ``single_mode`` — one cosine bump; with free boundaries this is the
  load-imbalance test case (Figure 2): the interface rolls up in the
  middle and spatial ownership skews.
* ``multi_mode`` — a seeded random superposition of Fourier modes;
  periodic, even load, and FFT-friendly (Figure 1).
* ``sech2`` / ``gaussian`` — localized bumps Beatnik's driver also
  offers, useful for convergence studies.

All initializers are *decomposition independent*: they evaluate closed
forms (or seed-determined global Fourier data) at the rank's own
coordinates, so an N-rank run and a serial run produce bitwise-similar
initial states — a property the integration tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.problem_manager import ProblemManager
from repro.util.errors import ConfigurationError

__all__ = [
    "InitialCondition",
    "apply_initial_condition",
    "available_ic_kinds",
    "initial_state",
]


@dataclass(frozen=True)
class InitialCondition:
    """Parameters of a rocket-rig perturbation.

    Attributes
    ----------
    kind:
        ``single_mode``, ``multi_mode``, ``sech2``, ``gaussian`` or
        ``flat``.
    magnitude:
        Peak amplitude ``m`` of the perturbation.
    period:
        Mode count ``p`` along each axis (``single_mode``) or the
        maximum mode index (``multi_mode``).
    seed:
        RNG seed for ``multi_mode`` phases/amplitudes.
    tilt:
        Optional linear tilt added to η (exercises non-trivial mean
        slopes; default 0).
    """

    kind: str = "single_mode"
    magnitude: float = 0.05
    period: float = 1.0
    seed: int = 12345
    tilt: float = 0.0

    def __post_init__(self) -> None:
        # Reject bad perturbations at construction: a typo'd kind or a
        # degenerate amplitude used to survive until the eta dispatch
        # fired mid-run (three RK3 stages deep, under SPMD threads).
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown initial-condition kind {self.kind!r}; "
                f"options: {available_ic_kinds()}"
            )
        if not isinstance(self.magnitude, (int, float)) or self.magnitude <= 0:
            raise ConfigurationError(
                f"initial-condition magnitude must be positive, "
                f"got {self.magnitude!r}"
            )
        if not isinstance(self.period, (int, float)) or self.period <= 0:
            raise ConfigurationError(
                f"initial-condition period must be positive, "
                f"got {self.period!r}"
            )

    def describe(self) -> str:
        return (
            f"{self.kind}(m={self.magnitude}, p={self.period}, seed={self.seed})"
        )


def _eta_single_mode(ic, X, Y, low, extent):
    """One cosine mode per axis, peak at the domain center."""
    xn = (X - low[0]) / extent[0]
    yn = (Y - low[1]) / extent[1]
    return ic.magnitude * np.cos(2.0 * np.pi * ic.period * xn) * np.cos(
        2.0 * np.pi * ic.period * yn
    )


def _eta_multi_mode(ic, X, Y, low, extent):
    """Seeded random superposition of periodic Fourier modes.

    Modes with 1 ≤ |k∞| ≤ period get random amplitude and phase; the
    result is normalized to peak magnitude ``m``.  Coefficients depend
    only on the seed, never on the decomposition.
    """
    kmax = max(int(ic.period), 1)
    rng = np.random.default_rng(ic.seed)
    xn = 2.0 * np.pi * (X - low[0]) / extent[0]
    yn = 2.0 * np.pi * (Y - low[1]) / extent[1]
    eta = np.zeros(np.broadcast_shapes(X.shape, Y.shape))
    for kx in range(0, kmax + 1):
        for ky in range(0, kmax + 1):
            amp = rng.normal()
            phx = rng.uniform(0, 2 * np.pi)
            phy = rng.uniform(0, 2 * np.pi)
            if kx == 0 and ky == 0:
                continue
            eta += amp * np.cos(kx * xn + phx) * np.cos(ky * yn + phy)
    norm = np.sqrt(sum(1 for kx in range(kmax + 1) for ky in range(kmax + 1)
                       if (kx, ky) != (0, 0)))
    return ic.magnitude * eta / max(norm, 1.0)


def _eta_sech2(ic, X, Y, low, extent):
    """sech² bump centered in the domain (Beatnik's ``sech2`` option)."""
    cx = low[0] + 0.5 * extent[0]
    cy = low[1] + 0.5 * extent[1]
    width = min(extent) / max(ic.period * 4.0, 1e-12)
    r = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)
    return ic.magnitude / np.cosh(r / width) ** 2


def _eta_gaussian(ic, X, Y, low, extent):
    cx = low[0] + 0.5 * extent[0]
    cy = low[1] + 0.5 * extent[1]
    sigma = min(extent) / max(ic.period * 6.0, 1e-12)
    r2 = (X - cx) ** 2 + (Y - cy) ** 2
    return ic.magnitude * np.exp(-r2 / (2.0 * sigma * sigma))


def _eta_flat(ic, X, Y, low, extent):
    return np.zeros(np.broadcast_shapes(X.shape, Y.shape))


_KINDS: dict[str, Callable] = {
    "single_mode": _eta_single_mode,
    "multi_mode": _eta_multi_mode,
    "sech2": _eta_sech2,
    "gaussian": _eta_gaussian,
    "flat": _eta_flat,
}


def available_ic_kinds() -> list[str]:
    """Registered perturbation kinds, in registry order.

    The single source of truth for every surface that enumerates
    initial conditions: :class:`InitialCondition` construction-time
    validation, the ``rocketrig --ic`` parser choices and help epilog,
    and the scenario-pack schema all answer from this list.
    """
    return list(_KINDS)


def initial_state(
    ic: InitialCondition,
    X: np.ndarray,
    Y: np.ndarray,
    low: np.ndarray,
    extent: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the rocket-rig initial state at the given coordinates.

    ``X`` and ``Y`` are any coordinate arrays that broadcast to the
    block: full meshgrids, or the axes shaped ``(n1, 1)`` and
    ``(1, n2)`` — cheaper, since a separable term is then evaluated per
    axis, and bitwise the same state.  Returns the interface position
    ``z = (X, Y, η)`` and the zero initial vorticity ``w``, both shaped
    off the broadcast block.  This is the single evaluation path
    shared by the per-rank solver setup
    (:func:`apply_initial_condition`) and the batched
    :class:`repro.batch.ScenarioFleet`, so a fleet-stepped scenario
    starts from bitwise the same state as its solo counterpart.
    """
    if ic.kind not in _KINDS:
        # Unreachable through the validated constructor; kept so raw
        # replace()/__new__-built instances still fail typed.
        raise ConfigurationError(
            f"unknown initial condition {ic.kind!r}; "
            f"options: {available_ic_kinds()}"
        )
    eta = _KINDS[ic.kind](ic, X, Y, low, extent)
    if ic.tilt:
        eta = eta + ic.tilt * (X - low[0]) / extent[0]

    shape = np.broadcast_shapes(X.shape, Y.shape)
    z = np.empty(shape + (3,))
    z[..., 0] = X
    z[..., 1] = Y
    z[..., 2] = eta
    w = np.zeros(shape + (2,))
    return z, w


def apply_initial_condition(pm: ProblemManager, ic: InitialCondition) -> None:
    """Initialize z/w on owned nodes and synchronize ghosts."""
    mesh = pm.mesh
    X, Y = mesh.owned_coordinates()
    z, w = initial_state(
        ic, X, Y, mesh.global_mesh.low, mesh.global_mesh.extent
    )
    pm.set_state(z, w)
    pm.gather_state()
