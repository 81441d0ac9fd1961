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

The spectrum is a transposed view: a hop into the cols layout
allocates an ``(…, m, N₁)`` buffer and returns it through
``swapaxes(-1, -2)``, so its logical shape is still
:attr:`DistributedFFT2D.spectrum_box` while the complete (transform)
axis is contiguous — FFTW's ``TRANSPOSED_OUT`` in memory as well as in
name.  Both axis-0 stages therefore run on contiguous lines, and the
inverse and ``cols_to_brick`` read the view where it lies.

Elision rule: a hop whose source and destination layouts coincide on
every rank (brick ≡ rows pencil on a ``(P, 1)`` process grid; every hop
on one rank) hands its input through untouched — see
:class:`~repro.fft.remap.Remap`.  No stage writes the caller's input
unless the caller hands it over (``overwrite_input``): a 1-D stage runs
in place only on an array the plan allocated in the same call (a real
hop's destination or an earlier stage's result) or was handed, whose
transform axis is contiguous, and otherwise writes a new array with
that axis contiguous — so the spectrum is a transposed view on one rank
too.  The caller's input may be a strided view; it is read where it
lies.

The intermediate layouts and the communication backend are chosen by
:class:`~repro.fft.config.FftConfig` — the eight combinations of the
paper's Table 1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.fft.config import FftConfig
from repro.fft.layouts import layout_for_stage
from repro.fft.remap import Remap, empty_lines
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
    The result is laid out as a plan's spectrum is: a ``swapaxes``
    view of a C-order ``(m, N₁)`` buffer, so multiplying a spectrum by
    it walks both in memory order.
    """
    ks = _wavenumbers(shape, extent)
    odd = [k.copy() for k in ks]
    for k in odd:
        if k.size % 2 == 0:
            k[k.size // 2] = 0.0
    sx, sy = box.slices() if box is not None else (slice(None), slice(None))
    two_k = 2.0 * np.hypot(ks[0][None, sx], ks[1][sy, None])
    two_k[two_k == 0.0] = np.inf
    mult = np.empty(two_k.shape, dtype=np.complex128)
    mult.real = odd[0][None, sx] / two_k
    mult.imag = -odd[1][sy, None] / two_k
    return mult.swapaxes(0, 1)


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
        self._rows_to_cols = Remap(cart, rows, cols, config, base + 16, "rows→cols",
                                   transposed=True)
        self._cols_to_brick = Remap(cart, cols, bricks, config, base + 32, "cols→brick")
        # Backward runs the same hops mirrored.
        self._brick_to_cols = Remap(cart, bricks, cols, config, base + 48, "brick→cols",
                                    transposed=True)
        self._cols_to_rows = Remap(cart, cols, rows, config, base + 52, "cols→rows")
        self._rows_to_brick = Remap(cart, rows, bricks, config, base + 56, "rows→brick")

    # -- transforms ------------------------------------------------------------

    def _stage(self, transform, work: np.ndarray, axis: int, owned: bool) -> np.ndarray:
        """One 1-D stage along ``axis``.

        It runs in place on an array this call allocated (``owned``)
        whose ``axis`` is contiguous, and otherwise writes a new array
        with ``axis`` contiguous.  The caller's array is never written.
        """
        if owned and work.strides[axis] == work.itemsize:
            out = work
        else:
            out = empty_lines(work.shape, np.complex128, axis)
        return transform(work, axis, trace=self.cart.trace, rank=self.cart.rank,
                         out=out)

    def forward_transposed(self, local, overwrite_input=False) -> np.ndarray:
        """Forward complex 2D FFT; brick in, :attr:`spectrum_box` out.

        ``local`` is this rank's brick of real or complex data (or a
        ``(B, …)`` stack of bricks), in any memory order: a strided view
        is read where it lies.  The return value is this rank's
        cols-layout box of the (unnormalized, ``norm='backward'``)
        global spectrum, a ``swapaxes(-1, -2)`` view of an
        ``(…, m, N₁)`` buffer: axis −2, the one transformed last, is
        contiguous.  ``overwrite_input`` (``scipy.fft``'s ``overwrite_x``)
        lets the first stage run in place on ``local``.
        """
        data = np.asarray(local, dtype=np.complex128)
        work = self._to_rows.apply(data)
        work = self._stage(fft_along, work, -1,
                           owned=overwrite_input or work is not local)
        work = self._rows_to_cols.apply(work)
        return self._stage(fft_along, work, -2, owned=True)

    def _inverse(self, work: np.ndarray, owned: bool) -> np.ndarray:
        """The inverse half from the cols layout back to bricks."""
        work = self._stage(ifft_along, work, -2, owned)
        work = self._cols_to_rows.apply(work)
        work = self._stage(ifft_along, work, -1, owned=True)
        return self._rows_to_brick.apply(work)

    def backward_transposed(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse complex 2D FFT (scales by 1/(N1·N2));
        :attr:`spectrum_box` in (any memory order; it is not written),
        brick out."""
        data = np.asarray(spectrum, dtype=np.complex128)
        if tuple(data.shape[-2:]) != self.spectrum_box.shape:
            raise ConfigurationError(
                f"backward_transposed input shape {data.shape} != spectrum "
                f"box {self.spectrum_box.shape}"
            )
        return self._inverse(data, owned=data is not spectrum)

    def forward(self, local: np.ndarray) -> np.ndarray:
        """Forward complex 2D FFT of the global array; brick in, brick out."""
        return self._cols_to_brick.apply(self.forward_transposed(local))

    def backward(self, local: np.ndarray) -> np.ndarray:
        """Inverse complex 2D FFT (scales by 1/(N1·N2)); brick in/out."""
        data = np.asarray(local, dtype=np.complex128)
        work = self._brick_to_cols.apply(data)
        return self._inverse(work, owned=work is not local)
