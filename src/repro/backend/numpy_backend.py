"""The numpy reference backend: the library's original hot-path math.

Every kernel keeps the formulation the solver shipped with — dense
broadcast BR blocks and the 4th-order stencils of
:mod:`repro.backend.stencils`, run on the whole stack; the tree solver's
far-field kernel is the base class's, shared with the blocked engine.
It is the parity baseline for every other engine and the default when
no backend is selected.  (The surrounding call
sites did move — e.g. the TimeIntegrator now applies fused stage
updates — so whole-solver trajectories may differ from the pre-backend
code at the 1e-15 level even under this backend.)
"""

from __future__ import annotations

import numpy as np

from repro.backend import stencils
from repro.backend.base import ArrayBackend

__all__ = ["NumpyBackend"]

#: Target × source pairs per dense all-pairs block: bounds the ``(bt, ns)``
#: temporaries.
_ALLPAIRS_BATCH = 2_000_000

#: Pairs per batch of listed chunk blocks: holds each per-axis
#: ``(blocks, chunk, chunk)`` temporary to 0.5 MB (batches up to 2M pairs
#: measured no faster).
_BLOCK_BATCH = 65_536


class NumpyBackend(ArrayBackend):
    """Reference implementation: straightforward vectorized numpy."""

    name = "numpy"

    # -- Birkhoff-Rott ----------------------------------------------------

    @staticmethod
    def _accumulate(
        out: np.ndarray,
        targets: np.ndarray,
        sources: np.ndarray,
        omega: np.ndarray,
        eps2: float,
        prefactor: float,
        cutoff2: "float | None" = None,
    ) -> int:
        """out[i] += prefactor * Σ_j ω_j × (t_i − s_j) / (r² + ε²)^{3/2}
        over the pairs with ``r² <= cutoff2`` (all of them without one);
        returns how many pairs were summed.

        Dense block evaluation; caller controls block sizes.
        """
        diff = targets[:, None, :] - sources[None, :, :]          # (nt, ns, 3)
        r2 = np.einsum("ijk,ijk->ij", diff, diff)                 # (nt, ns)
        inv = (r2 + eps2) ** -1.5
        kept = r2.size
        if cutoff2 is not None:
            keep = r2 <= cutoff2
            inv *= keep
            kept = int(np.count_nonzero(keep))
        # cross(ω_j, diff_ij) with ω broadcast over targets
        cx = omega[None, :, 1] * diff[..., 2] - omega[None, :, 2] * diff[..., 1]
        cy = omega[None, :, 2] * diff[..., 0] - omega[None, :, 0] * diff[..., 2]
        cz = omega[None, :, 0] * diff[..., 1] - omega[None, :, 1] * diff[..., 0]
        out[:, 0] += prefactor * np.einsum("ij,ij->i", cx, inv)
        out[:, 1] += prefactor * np.einsum("ij,ij->i", cy, inv)
        out[:, 2] += prefactor * np.einsum("ij,ij->i", cz, inv)
        return kept

    def br_allpairs(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        omega: np.ndarray,
        eps2: np.ndarray,
        prefactor: np.ndarray,
        out: np.ndarray,
        *,
        symmetric: bool = False,
        cutoff2: "np.ndarray | None" = None,
        blocks=None,
    ) -> "np.ndarray | None":
        nb, nt, ns = targets.shape[0], targets.shape[1], sources.shape[1]
        kept = np.zeros(nb, dtype=np.int64)
        if self._leaves_blocks_out(blocks):
            for b in range(nb):
                kept[b] = self._listed(
                    out[b], targets[b], sources[b], omega[b], eps2[b],
                    prefactor[b], None if cutoff2 is None else cutoff2[b],
                    blocks,
                )
            return None if cutoff2 is None else kept
        # Batch over targets so the (bt, ns) temporaries stay bounded.
        bt = max(1, min(nt, _ALLPAIRS_BATCH // max(ns, 1)))
        for b in range(nb):
            for start in range(0, nt, bt):
                stop = min(start + bt, nt)
                kept[b] += self._accumulate(
                    out[b, start:stop], targets[b, start:stop], sources[b],
                    omega[b], eps2[b], prefactor[b],
                    None if cutoff2 is None else cutoff2[b],
                )
        return None if cutoff2 is None else kept

    def _listed(self, out, targets, sources, omega, eps2, prefactor, cutoff2,
                blocks) -> int:
        """One scenario's sum over the chunk pairs ``blocks`` lists (and the
        transpose of each one a symmetric list mirrors), masked
        by ``cutoff2`` if given, a batch of ``chunk × chunk`` blocks at a
        time, on per-axis ``(blocks, chunk, chunk)`` arrays; returns the
        pairs within the cutoff (every pair without one).  Operands and
        pair order are :meth:`_listed_layout`'s."""
        tgt, src, om, pairs, plain = self._listed_layout(
            targets, sources, omega, cutoff2, blocks
        )
        chunk = blocks.chunk
        pairs = np.concatenate([pairs, pairs[plain:, ::-1]])
        # (chunks, 3, chunk): one contiguous row per chunk and axis.
        tgt, src, om = (a.transpose(0, 2, 1).copy() for a in (tgt, src, om))
        acc = np.zeros(tgt.shape)
        kept = 0
        step = max(1, _BLOCK_BATCH // (chunk * chunk))
        for p0 in range(0, len(pairs), step):
            i, j = pairs[p0:p0 + step].T
            t, s, o = tgt[i], src[j], om[j]
            d = [t[:, a, :, None] - s[:, a, None, :] for a in range(3)]
            r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
            inv = (r2 + eps2) ** -1.5
            if cutoff2 is None:
                kept += r2.size
            else:
                keep = r2 <= cutoff2
                kept += int(np.count_nonzero(keep))
                inv *= keep
            part = np.empty(t.shape)
            for a, (p, q) in enumerate(((1, 2), (2, 0), (0, 1))):
                # cross(ω_j, diff_ij), ω broadcast over targets
                c = o[:, p, None, :] * d[q] - o[:, q, None, :] * d[p]
                part[:, a] = np.einsum("kij,kij->ki", c, inv)
            self._add_rows(acc, i, part)
        out += prefactor * acc.transpose(0, 2, 1).reshape(-1, 3)[:out.shape[0]]
        return kept

    # -- stencils: the reference formulas, on the whole stack ---------------

    stencil_dx = staticmethod(stencils.dx)
    stencil_dy = staticmethod(stencils.dy)
    stencil_laplacian = staticmethod(stencils.laplacian)

    # -- fused state updates ----------------------------------------------

    def rk3_axpy(
        self,
        out: np.ndarray,
        u: np.ndarray,
        au: float,
        u0: np.ndarray,
        a0: float,
        du: np.ndarray,
        adu: "np.ndarray | float",
    ) -> None:
        coef = np.asarray(adu, dtype=np.float64).reshape(
            (-1,) + (1,) * (u.ndim - 1)
        )
        # The right-hand side materializes before the assignment, so any
        # aliasing of ``out`` with ``u``/``u0``/``du`` is safe by
        # construction.
        out[...] = au * u + a0 * u0 + coef * du
