"""Serial FFT stage kernels and cost accounting.

The 1D transform stages of the distributed FFT: each is one
``numpy.fft`` call, and this module pins the transform conventions and
records the roofline compute events the machine model costs the local
work of each stage with.  The stages are not an
:class:`~repro.backend.ArrayBackend` kernel: every engine would make the
same ``numpy.fft`` call, so there is nothing for an engine to choose.
A radix-2 style operation count of ``5 N log2 N`` flops per
length-``N`` 1D complex transform is the standard estimate
(Cooley-Tukey), which is all the scaling model needs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["fft_along", "ifft_along", "fft_flops"]


def fft_flops(n: int, batch: int) -> float:
    """Estimated flops for ``batch`` complex 1D FFTs of length ``n``."""
    if n <= 1:
        return 0.0
    return 5.0 * n * np.log2(n) * batch


def fft_along(
    data: np.ndarray, axis: int, trace=None, rank: int = 0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Complex forward FFT along one axis (norm='backward').

    The distributed transform passes ``axis`` counted from the right, so
    each member of a ``(B, …)`` stack transforms exactly as it would alone.
    ``out`` receives the result; ``out=data`` transforms in place, with
    no temporary and bitwise the same values.
    """
    t0 = trace.clock() if trace is not None else None
    out = np.fft.fft(data, axis=axis, out=out)
    if trace is not None:
        n = data.shape[axis]
        batch = data.size // max(n, 1)
        trace.record_compute(
            "fft1d", rank,
            flops=fft_flops(n, batch),
            bytes_moved=2.0 * out.nbytes,
            items=data.size, t_wall=trace.clock_since(t0),
        )
    return out


def ifft_along(
    data: np.ndarray, axis: int, trace=None, rank: int = 0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Complex inverse FFT along one axis (norm='backward': scales 1/N);
    ``out`` as for :func:`fft_along`."""
    t0 = trace.clock() if trace is not None else None
    out = np.fft.ifft(data, axis=axis, out=out)
    if trace is not None:
        n = data.shape[axis]
        batch = data.size // max(n, 1)
        trace.record_compute(
            "ifft1d", rank,
            flops=fft_flops(n, batch),
            bytes_moved=2.0 * out.nbytes,
            items=data.size, t_wall=trace.clock_since(t0),
        )
    return out


