"""The numpy reference backend: the library's original hot-path math.

Every kernel keeps the formulation the solver shipped with — dense
broadcast BR blocks, gathered CSR pair batches and the 4th-order
stencils of :mod:`repro.backend.stencils`, applied to a stack one
scenario at a time.  It is the parity baseline for every other engine
and the default when no backend is selected.  (The surrounding call
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

#: Gathered pairs per batch of the CSR and far-field kernels.
_PAIR_BATCH = 4_000_000


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
    ) -> "np.ndarray | None":
        nb, nt, ns = targets.shape[0], targets.shape[1], sources.shape[1]
        kept = np.zeros(nb, dtype=np.int64)
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

    def br_neighbors(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        omega: np.ndarray,
        offsets: np.ndarray,
        indices: np.ndarray,
        eps2: float,
        prefactor: float,
        out: np.ndarray,
    ) -> None:
        total_pairs = int(offsets[-1])
        counts = np.diff(offsets)
        pair_target = np.repeat(
            np.arange(targets.shape[0], dtype=np.int64), counts
        )
        for start in range(0, total_pairs, _PAIR_BATCH):
            stop = min(start + _PAIR_BATCH, total_pairs)
            ti = pair_target[start:stop]
            sj = indices[start:stop]
            diff = targets[ti] - sources[sj]                  # (b, 3)
            r2 = np.einsum("ij,ij->i", diff, diff) + eps2
            inv = prefactor * r2 ** -1.5
            o = omega[sj]
            contrib = np.empty_like(diff)
            contrib[:, 0] = (o[:, 1] * diff[:, 2] - o[:, 2] * diff[:, 1]) * inv
            contrib[:, 1] = (o[:, 2] * diff[:, 0] - o[:, 0] * diff[:, 2]) * inv
            contrib[:, 2] = (o[:, 0] * diff[:, 1] - o[:, 1] * diff[:, 0]) * inv
            np.add.at(out, ti, contrib)

    # -- Barnes-Hut tree kernels ------------------------------------------

    def farfield_eval(
        self,
        targets: np.ndarray,
        centers: np.ndarray,
        moment_m: np.ndarray,
        moment_s: np.ndarray,
        moment_q: np.ndarray,
        pair_targets: np.ndarray,
        pair_nodes: np.ndarray,
        eps2: float,
        prefactor: float,
        out: np.ndarray,
    ) -> None:
        total = int(pair_targets.shape[0])
        for start in range(0, total, _PAIR_BATCH):
            stop = min(start + _PAIR_BATCH, total)
            ti = pair_targets[start:stop]
            ni = pair_nodes[start:stop]
            r = targets[ti] - centers[ni]                     # (b, 3)
            u = np.einsum("ij,ij->i", r, r) + eps2
            g = u ** -1.5
            h = 3.0 * u ** -2.5
            qr = np.einsum("bij,bj->bi", moment_q[ni], r)
            contrib = g[:, None] * (
                np.cross(moment_m[ni], r) - moment_s[ni]
            )
            contrib += h[:, None] * np.cross(qr, r)
            contrib *= prefactor
            np.add.at(out, ti, contrib)

    # -- reductions -------------------------------------------------------

    def max_displacement(self, a: np.ndarray, b: np.ndarray) -> float:
        if a.shape[0] == 0:
            return 0.0
        diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
        dist2 = np.einsum("ij,ij->i", diff, diff)
        return float(np.sqrt(dist2.max()))

    # -- stencils ---------------------------------------------------------

    def stencil_dx(self, full: np.ndarray, spacing: float) -> np.ndarray:
        return np.stack([stencils.dx(f, spacing) for f in full])

    def stencil_dy(self, full: np.ndarray, spacing: float) -> np.ndarray:
        return np.stack([stencils.dy(f, spacing) for f in full])

    def stencil_laplacian(
        self, full: np.ndarray, dx_: float, dy_: float
    ) -> np.ndarray:
        return np.stack([stencils.laplacian(f, dx_, dy_) for f in full])

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
