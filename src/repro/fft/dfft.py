"""Distributed 2D FFT over the brick decomposition (heFFTe analogue).

The transform pipeline is two *transposed halves* (FFTW's
``TRANSPOSED_OUT`` / ``TRANSPOSED_IN``) plus the hop that closes each
one back to bricks::

    forward_transposed                              cols_to_brick
    brick --remap--> rows --FFT axis 1--> rows      cols --remap--> brick
          --remap--> cols --FFT axis 0--> cols

    brick_to_cols        backward_transposed
    brick --remap--> cols --iFFT axis 0--> cols --remap--> rows
                          --iFFT axis 1--> rows --remap--> brick

``forward`` is ``cols_to_brick ∘ forward_transposed`` and ``backward``
is ``backward_transposed ∘ brick_to_cols``: the heFFTe-shaped
brick-in/brick-out transforms, sharing every stage with the halves.  A
caller that only multiplies the spectrum pointwise (the low-order
ZModel solver) uses the halves directly and applies its multiplier in
the cols layout (:attr:`DistributedFFT2D.spectrum_box`), where the
spectrum already lives — two redistributions per round trip that the
mathematics does not need.

Every stage works on the two trailing axes, so a plan transforms a
``(B, ni, nj)`` stack of same-grid fields (:mod:`repro.batch`) in the
messages of one field.

Elision rule: a hop whose source and destination layouts coincide on
every rank (brick ≡ rows pencil on a ``(P, 1)`` process grid; every hop
on one rank) hands its input through untouched — see
:class:`~repro.fft.remap.Remap`.  No stage writes into its input, so
the aliasing is safe.

The intermediate layouts and the communication backend are chosen by
:class:`~repro.fft.config.FftConfig` — the eight combinations of the
paper's Table 1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.fft.config import FftConfig
from repro.fft.layouts import layout_for_stage
from repro.fft.remap import Remap
from repro.fft.serial import fft_along, ifft_along
from repro.grid.indexspace import IndexSpace
from repro.mpi.cart import CartComm
from repro.util.errors import ConfigurationError

__all__ = ["DistributedFFT2D", "riesz_multiplier"]

_FFT_TAGS = 7500


def _wavenumbers(
    shape: tuple[int, int], extent: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Angular wavenumbers of both global axes (``np.fft.fftfreq`` order)."""
    n1, n2 = shape
    return (
        2.0 * np.pi * np.fft.fftfreq(n1, d=extent[0] / n1),
        2.0 * np.pi * np.fft.fftfreq(n2, d=extent[1] / n2),
    )


def riesz_multiplier(
    shape: tuple[int, int],
    extent: tuple[float, float],
    box: Optional[IndexSpace] = None,
) -> np.ndarray:
    """The packed low-order symbol ``(k₁′ − i k₂′) / (2|k|)`` on ``box``.

    For real γ1, γ2 the flat-linearized Birkhoff-Rott velocity is
    ``W₃ = Re F⁻¹[ m · F[γ1 + iγ2] ]`` with this ``m`` (derivation in
    :mod:`repro.core.zmodel`).  ``k′`` is ``k`` with the Nyquist entry of
    an even-length axis zeroed: there ``−k`` aliases onto ``k``, so the
    factor is not odd and its contribution is the anti-Hermitian part
    that taking the real part of the two-transform formula discards.
    ``|k|`` keeps the full wavenumbers; the ``k = 0`` mode maps to zero.

    ``box`` selects a sub-box of the global spectrum (a plan's
    :attr:`DistributedFFT2D.spectrum_box`); ``None`` is the whole of it.
    """
    ks = _wavenumbers(shape, extent)
    odd = [k.copy() for k in ks]
    for k in odd:
        if k.size % 2 == 0:
            k[k.size // 2] = 0.0
    sx, sy = box.slices() if box is not None else (slice(None), slice(None))
    two_k = 2.0 * np.hypot(ks[0][sx, None], ks[1][None, sy])
    two_k[two_k == 0.0] = np.inf
    mult = np.empty(two_k.shape, dtype=np.complex128)
    mult.real = odd[0][sx, None] / two_k
    mult.imag = -odd[1][None, sy] / two_k
    return mult


class DistributedFFT2D:
    """A reusable distributed-transform plan bound to a Cartesian comm."""

    def __init__(
        self,
        cart: CartComm,
        global_shape: tuple[int, int],
        config: FftConfig = FftConfig(),
    ) -> None:
        if cart.ndims != 2:
            raise ConfigurationError("DistributedFFT2D requires a 2D CartComm")
        self.cart = cart
        self.global_shape = (int(global_shape[0]), int(global_shape[1]))
        self.config = config

        dims = cart.dims
        shape = self.global_shape
        bricks = layout_for_stage("brick", shape, dims, config.pencils)
        rows = layout_for_stage("rows", shape, dims, config.pencils)
        cols = layout_for_stage("cols", shape, dims, config.pencils)
        self.brick_box: IndexSpace = bricks[cart.rank]
        #: This rank's box of the transposed spectrum (complete columns).
        self.spectrum_box: IndexSpace = cols[cart.rank]

        base = _FFT_TAGS + 64 * config.index
        self._to_rows = Remap(cart, bricks, rows, config, base + 0, "brick→rows")
        self._rows_to_cols = Remap(cart, rows, cols, config, base + 16, "rows→cols")
        self._cols_to_brick = Remap(cart, cols, bricks, config, base + 32, "cols→brick")
        # Backward runs the same hops mirrored.
        self._brick_to_cols = Remap(cart, bricks, cols, config, base + 48, "brick→cols")
        self._cols_to_rows = Remap(cart, cols, rows, config, base + 52, "cols→rows")
        self._rows_to_brick = Remap(cart, rows, bricks, config, base + 56, "rows→brick")

    # -- transforms ------------------------------------------------------------

    def forward_transposed(self, local: np.ndarray) -> np.ndarray:
        """Forward complex 2D FFT; brick in, :attr:`spectrum_box` out.

        ``local`` is this rank's brick of real or complex data (or a
        ``(B, …)`` stack of bricks); the return value is this rank's
        cols-layout box of the (unnormalized, ``norm='backward'``)
        global spectrum.
        """
        data = np.ascontiguousarray(local, dtype=np.complex128)
        trace, rank = self.cart.trace, self.cart.rank
        work = self._to_rows.apply(data)
        work = fft_along(work, axis=-1, trace=trace, rank=rank)
        work = self._rows_to_cols.apply(work)
        return fft_along(work, axis=-2, trace=trace, rank=rank)

    def backward_transposed(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse complex 2D FFT (scales by 1/(N1·N2));
        :attr:`spectrum_box` in, brick out."""
        data = np.ascontiguousarray(spectrum, dtype=np.complex128)
        if tuple(data.shape[-2:]) != self.spectrum_box.shape:
            raise ConfigurationError(
                f"backward_transposed input shape {data.shape} != spectrum "
                f"box {self.spectrum_box.shape}"
            )
        trace, rank = self.cart.trace, self.cart.rank
        work = ifft_along(data, axis=-2, trace=trace, rank=rank)
        work = self._cols_to_rows.apply(work)
        work = ifft_along(work, axis=-1, trace=trace, rank=rank)
        return self._rows_to_brick.apply(work)

    def forward(self, local: np.ndarray) -> np.ndarray:
        """Forward complex 2D FFT of the global array; brick in, brick out."""
        return self._cols_to_brick.apply(self.forward_transposed(local))

    def backward(self, local: np.ndarray) -> np.ndarray:
        """Inverse complex 2D FFT (scales by 1/(N1·N2)); brick in/out."""
        data = np.ascontiguousarray(local, dtype=np.complex128)
        return self.backward_transposed(self._brick_to_cols.apply(data))

    # -- spectral coordinates ------------------------------------------------------

