"""Shared roofline conventions of the approximate-BR pipelines.

One home for the per-item flop/byte constants of the neighbor-search
and Barnes-Hut tree kernels (and the low-order Riesz multiply), imported by both the accounting layers
(:mod:`repro.core.br_cutoff`, :mod:`repro.core.br_tree` and
:mod:`repro.core.zmodel`, which record the ComputeEvents) and the
analytic machine model (:mod:`repro.machine.patterns`, which prices the
same work at paper scale).  Keeping them in a leaf module preserves the
layering: the machine model never imports the functional solver.

The cell-list search inspects the whole 27-cell neighborhood to keep
the inscribed sphere — ``27 / (4π/3) ≈ 6.45`` candidates per kept
pair.
"""

from __future__ import annotations

import math

__all__ = [
    "SEARCH_CANDIDATE_FACTOR",
    "SEARCH_FLOPS",
    "SEARCH_BYTES",
    "MOMENT_FLOPS",
    "MOMENT_BYTES",
    "WALK_FLOPS",
    "WALK_BYTES",
    "FARFIELD_FLOPS",
    "FARFIELD_BYTES",
    "RIESZ_FLOPS",
    "RIESZ_BYTES",
]

SEARCH_CANDIDATE_FACTOR = 27.0 / (4.0 * math.pi / 3.0)
SEARCH_FLOPS = 10.0        # per candidate pair
SEARCH_BYTES = 8.0         # per candidate pair (index + coordinate traffic)

# Barnes-Hut tree solver (repro.core.br_tree / repro.spatial.tree).
MOMENT_FLOPS = 45.0        # per point: cross(9) + outer(9) + 15 moment adds
                           # + amortized upward-pass aggregation (~12)
MOMENT_BYTES = 22 * 8.0    # per point: read pos+omega (6) + moment traffic
WALK_FLOPS = 12.0          # per examined (target, node) pair: distance(8)
                           # + MAC compare + child indexing
WALK_BYTES = 6 * 8.0       # per examined pair: center(3) + size + ids
FARFIELD_FLOPS = 70.0      # per far pair: r(3) + u(5) + g,h(~12) + M x r(9)
                           # + Qr(15) + (Qr) x r(9) + combine/axpy(~17)
FARFIELD_BYTES = 20 * 8.0  # per far pair: center+M+S(9) + Q(9) + out update

# Low-order spectral velocity (repro.core.zmodel): one in-place complex
# multiply of the spectrum by the cached Riesz multiplier.
RIESZ_FLOPS = 6.0          # per mode: 4 multiplies + 2 adds
RIESZ_BYTES = 3 * 16.0     # per mode: read spectrum + multiplier, write
