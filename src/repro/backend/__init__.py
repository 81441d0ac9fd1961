"""repro.backend — the compute engine of the dense hot paths.

The solver's hot-path math (BR pair accumulation, stencil operators,
fused RK3 updates) is expressed against the :class:`ArrayBackend`
interface, one entry point per kernel (the all-pairs, stencil and RK3
kernels take a stack of scenarios; a solo run is a stack of one).

One engine runs every solve, as Beatnik's execution space is fixed
when Kokkos is built: ``blocked`` — L2-sized panels, pair-symmetry
reuse, BLAS-fused cross-product reductions and segment-reduced sums.
``numpy`` is the reference (the library's original kernel numerics)
that parity tests and benchmark probes call by name; nothing at run
time selects it.  :func:`get_backend` maps a kernel's ``backend``
argument — an instance, one of the two names, or ``None`` for
``blocked`` — to its engine.

Both engines record identical roofline :class:`ComputeEvent` totals
(recording lives in the calling layers, not the backends), so machine-
model replays are backend-independent by construction.
"""

from __future__ import annotations

from repro.backend.base import ArrayBackend
from repro.backend.blocked import BlockedBackend
from repro.backend.numpy_backend import NumpyBackend
from repro.util.errors import ConfigurationError

__all__ = ["ArrayBackend", "BlockedBackend", "NumpyBackend", "get_backend"]

_ENGINES: dict[str, ArrayBackend] = {
    engine.name: engine for engine in (BlockedBackend(), NumpyBackend())
}


def get_backend(spec: "ArrayBackend | str | None" = None) -> ArrayBackend:
    """The engine ``spec`` names: an instance passes through, ``None``
    is ``blocked``, and ``"blocked"`` / ``"numpy"`` are the two names."""
    if isinstance(spec, ArrayBackend):
        return spec
    try:
        return _ENGINES["blocked" if spec is None else spec]
    except KeyError:
        raise ConfigurationError(
            f"unknown compute engine {spec!r}; engines: {sorted(_ENGINES)}"
        ) from None
