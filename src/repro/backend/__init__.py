"""repro.backend — pluggable compute engines for the dense hot paths.

The solver's hot-path math (BR pair accumulation, FFT stages, stencil
operators, fused RK3 updates) is
expressed against the :class:`ArrayBackend` interface and selected by
name through a registry — `SolverConfig.backend`, `rocketrig
--backend`, a campaign deck's ``backend`` axis, or the
``$REPRO_BACKEND`` environment variable all resolve through
:func:`get_backend`.

Shipped engines:

* ``numpy`` — the reference implementation (the library's original
  kernel numerics).
* ``blocked`` — L2-sized panels, pair-symmetry reuse, BLAS-fused
  cross-product reductions and segment-reduced CSR sums; ≥2× faster on
  the exact-BR hot path.
* ``numba`` — JIT pair loops; registered only when numba is
  importable (the error message says so otherwise).
* ``cupy`` — device-resident BR/FFT kernels; registered only when
  cupy and a CUDA device are present (``unavailable_backends()`` and
  ``rocketrig --list-backends`` surface the reason otherwise).

All engines record identical roofline :class:`ComputeEvent` totals
(recording lives in the calling layers, not the backends), so machine-
model replays are backend-independent by construction.
"""

from repro.backend.base import ArrayBackend
from repro.backend.blocked import BlockedBackend
from repro.backend.cupy_backend import CUPY_AVAILABLE, CupyBackend
from repro.backend.numba_backend import NUMBA_AVAILABLE, NumbaBackend
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import (
    available_backends,
    default_backend_name,
    describe_backends,
    get_backend,
    mark_unavailable,
    register_backend,
    unavailable_backends,
)

__all__ = [
    "ArrayBackend",
    "BlockedBackend",
    "CupyBackend",
    "NumbaBackend",
    "NumpyBackend",
    "available_backends",
    "default_backend_name",
    "describe_backends",
    "get_backend",
    "register_backend",
    "unavailable_backends",
]

register_backend(NumpyBackend())
register_backend(BlockedBackend())
if NUMBA_AVAILABLE:  # pragma: no cover - container image has no numba
    register_backend(NumbaBackend())
else:
    mark_unavailable("numba", "install numba to enable the JIT backend")
if CUPY_AVAILABLE:  # pragma: no cover - container image has no cupy
    register_backend(CupyBackend())
else:
    mark_unavailable(
        "cupy", "install cupy with a CUDA device to enable the GPU backend"
    )
