"""repro.backend — pluggable compute engines for the dense hot paths.

The solver's hot-path math (BR pair accumulation, stencil operators,
fused RK3 updates) is expressed against the :class:`ArrayBackend`
interface, one entry point per kernel (the all-pairs, stencil and RK3
kernels take a stack of scenarios; a solo run is a stack of one), and
selected by name through a registry: `SolverConfig.backend`,
`rocketrig --backend`, a campaign deck's ``backend`` axis, or the
``$REPRO_BACKEND`` environment variable all resolve through
:func:`get_backend`.

Shipped engines, both host-resident numpy:

* ``numpy`` — the reference implementation (the library's original
  kernel numerics).
* ``blocked`` — L2-sized panels, pair-symmetry reuse, BLAS-fused
  cross-product reductions and segment-reduced CSR sums; ≥2× faster on
  the exact-BR hot path.

Both engines record identical roofline :class:`ComputeEvent` totals
(recording lives in the calling layers, not the backends), so machine-
model replays are backend-independent by construction.
"""

from repro.backend.base import ArrayBackend
from repro.backend.blocked import BlockedBackend
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import (
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
)

__all__ = [
    "ArrayBackend",
    "BlockedBackend",
    "NumpyBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
]

register_backend(NumpyBackend())
register_backend(BlockedBackend())
