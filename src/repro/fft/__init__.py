"""Distributed FFT substrate (the heFFTe analogue).

Provides a distributed 2D complex FFT over the surface mesh's brick
decomposition with heFFTe's three communication flags (``alltoall``,
``pencils``, ``reorder`` — paper Table 1).  The low-order ZModel solver
computes its spectral Birkhoff-Rott approximation with this package,
and the Fig. 9 benchmark sweeps all eight flag combinations.
"""

from repro.fft.config import ALL_CONFIGS, FftConfig
from repro.fft.dfft import DistributedFFT2D, riesz_multiplier
from repro.fft.layouts import (
    brick_layout,
    cols_pencil_layout,
    cols_slab_layout,
    layout_for_stage,
    rows_pencil_layout,
    rows_slab_layout,
)
from repro.fft.remap import Remap
from repro.fft.serial import fft_flops

__all__ = [
    "ALL_CONFIGS",
    "FftConfig",
    "DistributedFFT2D",
    "riesz_multiplier",
    "Remap",
    "brick_layout",
    "rows_slab_layout",
    "cols_slab_layout",
    "rows_pencil_layout",
    "cols_pencil_layout",
    "layout_for_stage",
    "fft_flops",
]
