"""The ArrayBackend interface: every dense hot-path kernel in one place.

The solver's compute substrate — Birkhoff-Rott pair accumulation
(dense, CSR-neighbor and Barnes-Hut far-field), tree moment
reductions, 1D FFT stages, the two-node-deep stencil operators and the
fused RK3 state updates — is
expressed against this interface so engines can be swapped the way the
paper swaps heFFTe communication flags: without touching the physics.
Implementations are *pure compute*: they never record trace events
(the calling layer records identical
:class:`~repro.mpi.trace.ComputeEvent` roofline totals regardless of
which backend ran, so modeled costs stay backend-independent) and they
hold no per-call mutable state, which makes one shared instance safe
across the threads of an SPMD run.

Every kernel docstring states its array shapes, dtypes and aliasing
rules; unless a kernel says otherwise, arguments are contiguous
float64 arrays, inputs are read-only, and an ``out`` accumulator must
not alias any input (:meth:`ArrayBackend.rk3_axpy` is the deliberate
exception — its contract *requires* aliasing tolerance, the lesson of
the cross-backend aliasing regression suite).

Numerical contract
------------------
Backends may reorder floating-point reductions (tiling, BLAS) but must
agree with the ``numpy`` reference to ~1e-12 relative accuracy on
well-conditioned inputs; ``tests/backend/test_parity.py``
pins this for every registered backend.  Exactly coincident
target/source points contribute exactly zero to BR sums (the
numerator ``ω × (t − s)`` vanishes), and every backend must preserve
that — it is what makes self-interaction need no special casing.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["ArrayBackend"]


def _looped(kernel: str, doc: str):
    """A ``*_batched`` default: scalar ``kernel`` once per scenario.

    Array arguments are sliced along their leading batch axis; anything
    else (grid spacings, stage constants, ``axis``) goes to every call
    unchanged.  Kernels that return an array have the per-scenario
    results stacked in scenario order; in-place kernels return ``None``.
    """

    def batched(self, *args, **kwargs):
        fn = getattr(self, kernel)
        nb = next(a.shape[0] for a in args if isinstance(a, np.ndarray))
        stacked = None
        for b in range(nb):
            result = fn(
                *(a[b] if isinstance(a, np.ndarray) else a for a in args),
                **kwargs,
            )
            if result is not None:
                if stacked is None:
                    stacked = np.empty((nb,) + result.shape, result.dtype)
                stacked[b] = result
        return stacked

    batched.__name__ = f"{kernel}_batched"
    batched.__qualname__ = f"ArrayBackend.{batched.__name__}"
    batched.__doc__ = doc
    return batched


class ArrayBackend(abc.ABC):
    """Abstract compute engine for the dense hot paths.

    Array arguments follow the conventions of the calling modules:
    BR kernels take flattened ``(n, 3)`` float64 point/vector arrays,
    stencil operators take full ghosted ``(ni + 4, nj + 4, ...)``
    arrays and return owned-region results, and the RK3 update works
    on owned-region views of any shape.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    # -- Birkhoff-Rott pair accumulation ----------------------------------

    @abc.abstractmethod
    def br_allpairs(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        omega: np.ndarray,
        eps2: float,
        prefactor: float,
        out: np.ndarray,
        *,
        symmetric: bool = False,
        batch_pairs: int = 2_000_000,
    ) -> None:
        """Accumulate dense BR velocities into ``out`` (shape ``(nt, 3)``).

        ``out[i] += prefactor · Σ_j ω_j × (t_i − s_j) / (r² + ε²)^{3/2}``

        ``symmetric=True`` asserts that ``targets`` and ``sources`` are
        the *same point set* in the same order; backends may exploit the
        shared pair geometry (``r_ij = r_ji``) to halve the distance
        work.  It is a hint: ignoring it is always correct.
        ``batch_pairs`` bounds temporary working-set sizes for backends
        that evaluate in dense panels.
        """

    @abc.abstractmethod
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
        *,
        batch_pairs: int = 4_000_000,
    ) -> None:
        """Accumulate BR velocities over CSR neighbor lists into ``out``.

        ``indices[offsets[t]:offsets[t+1]]`` are the source indices
        within range of target ``t`` (the cutoff solver's pair lists).
        """

    # -- Barnes-Hut tree kernels ------------------------------------------

    def moment_accumulate(
        self,
        positions: np.ndarray,
        omega: np.ndarray,
        cell_ids: np.ndarray,
        centers: np.ndarray,
        ncells: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-cell far-field vorticity moments (tree leaf reduction).

        Parameters
        ----------
        positions / omega:
            ``(n, 3)`` float64 source points and vorticity vectors.
        cell_ids:
            ``(n,)`` int64 leaf-cell id per source, in ``[0, ncells)``.
        centers:
            ``(ncells, 3)`` float64 expansion centers (leaf centroids).

        Returns ``(M, S, Q)`` with shapes ``(ncells, 3)``,
        ``(ncells, 3)`` and ``(ncells, 3, 3)``:

        * ``M[c] = sum omega_j`` over sources in cell ``c``,
        * ``S[c] = sum omega_j x (s_j - centers[c])``,
        * ``Q[c] = sum omega_j (x) (s_j - centers[c])`` (outer product,
          ``Q[c, a, b] = sum omega_j[a] * (s_j - centers[c])[b]``).

        Like :meth:`fft1d`, this has a concrete reference
        implementation: an O(n) bincount reduction that already runs at
        the memory-bandwidth roof, so engines only override it when
        they can beat that.
        Inputs are never written; the returned arrays are fresh.
        """
        d = positions - centers[cell_ids]
        cross = np.cross(omega, d)
        outer = omega[:, :, None] * d[:, None, :]
        m = np.empty((ncells, 3))
        s = np.empty((ncells, 3))
        q = np.empty((ncells, 3, 3))
        for a in range(3):
            m[:, a] = np.bincount(
                cell_ids, weights=omega[:, a], minlength=ncells
            )
            s[:, a] = np.bincount(
                cell_ids, weights=cross[:, a], minlength=ncells
            )
            for b in range(3):
                q[:, a, b] = np.bincount(
                    cell_ids, weights=outer[:, a, b], minlength=ncells
                )
        return m, s, q

    @abc.abstractmethod
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
        *,
        batch_pairs: int = 4_000_000,
    ) -> None:
        """Accumulate far-field (multipole) BR velocities into ``out``.

        For every accepted (target, node) pair ``p``, with
        ``r = targets[pair_targets[p]] - centers[pair_nodes[p]]`` and
        ``u = |r|^2 + eps2``::

            out[pair_targets[p]] += prefactor * (
                u**-1.5 * (M x r - S) + 3 * u**-2.5 * (Q r) x r
            )

        — the first-order multipole expansion of the desingularized BR
        kernel around the node centroid (see :mod:`repro.spatial.tree`
        for the derivation and the moment definitions).

        Shapes and dtypes: ``targets`` ``(nt, 3)`` float64; ``centers``
        / ``moment_m`` / ``moment_s`` ``(nn, 3)`` float64; ``moment_q``
        ``(nn, 3, 3)`` float64; ``pair_targets`` / ``pair_nodes``
        ``(p,)`` int64 with entries in ``[0, nt)`` / ``[0, nn)``;
        ``out`` ``(nt, 3)`` float64, accumulated in place.

        Aliasing rules: ``out`` must not alias any input array (the
        caller always passes a dedicated accumulator); the node-table
        inputs are read-only and a node id may appear in any number of
        pairs.  ``batch_pairs`` bounds the gathered temporaries for
        engines that evaluate in flat batches.
        """

    # -- reductions --------------------------------------------------------

    @abc.abstractmethod
    def max_displacement(self, a: np.ndarray, b: np.ndarray) -> float:
        """Max Euclidean distance between corresponding rows of two
        ``(n, 3)`` point arrays (0.0 when empty).

        The cutoff solver's Verlet-skin cache calls this every
        derivative evaluation to decide — after a MAX allreduce so all
        ranks agree — whether the cached spatial structures are still
        valid.  The reduction must be exact (no tolerance): the cache
        invariant compares the result against ``skin / 2``.
        """

    # -- spectral kernels --------------------------------------------------

    def fft1d(self, data: np.ndarray, axis: int) -> np.ndarray:
        """Complex forward FFT along one axis (norm='backward')."""
        return np.fft.fft(data, axis=axis)

    def ifft1d(self, data: np.ndarray, axis: int) -> np.ndarray:
        """Complex inverse FFT along one axis (norm='backward', 1/N)."""
        return np.fft.ifft(data, axis=axis)

    # -- stencil operators -------------------------------------------------

    @abc.abstractmethod
    def stencil_dx(self, full: np.ndarray, spacing: float) -> np.ndarray:
        """4th-order ∂/∂α₁ (axis 0) of a ghosted array, on owned nodes."""

    @abc.abstractmethod
    def stencil_dy(self, full: np.ndarray, spacing: float) -> np.ndarray:
        """4th-order ∂/∂α₂ (axis 1) of a ghosted array, on owned nodes."""

    @abc.abstractmethod
    def stencil_laplacian(
        self, full: np.ndarray, dx_: float, dy_: float
    ) -> np.ndarray:
        """4th-order ∂²/∂α₁² + ∂²/∂α₂² of a ghosted array, on owned nodes."""

    # -- fused state updates -----------------------------------------------

    @abc.abstractmethod
    def rk3_axpy(
        self,
        out: np.ndarray,
        u: np.ndarray,
        au: float,
        u0: np.ndarray,
        a0: float,
        du: np.ndarray,
        adu: float,
    ) -> None:
        """Fused RK3 stage update ``out ← au·u + a0·u0 + adu·du``.

        ``out`` may alias *any* operand — ``u`` (the TimeIntegrator
        always updates the state in place), ``u0`` or ``du`` — and the
        result must be as if the right-hand side were fully evaluated
        first.  Backends that accumulate in place must guard every
        aliasing combination (pinned by the cross-backend aliasing
        regression tests).
        """

    # -- batched fleet kernels ---------------------------------------------
    #
    # The ``*_batched`` entry points advance a whole ScenarioFleet
    # (:mod:`repro.batch`) in one call: every array argument grows a
    # leading batch axis of length B (independent same-shape scenarios),
    # and per-scenario scalars (eps², prefactor, the RK3 ``adu`` step
    # coefficient) arrive as ``(B,)`` float64 vectors; ``axis`` of the
    # FFTs still names a per-scenario grid axis.  Scenario ``b`` computes
    # exactly the scalar kernel on its own slices — scenarios never
    # interact, and ``rk3_axpy_batched`` keeps the aliasing tolerance of
    # :meth:`rk3_axpy`.  The defaults run the scalar kernel once per
    # scenario (:func:`_looped`); engines override them with fused
    # implementations where one stacked invocation wins (the blocked
    # backend's perf target).

    br_allpairs_batched = _looped(
        "br_allpairs",
        "Batched :meth:`br_allpairs`: ``(B, n, 3)`` / ``(B, m, 3)`` stacks "
        "and ``(B,)`` eps2 / prefactor, accumulated into ``out``.",
    )
    fft1d_batched = _looped(
        "fft1d",
        "Batched :meth:`fft1d` of a ``(B, n1, n2)`` stack along grid "
        "axis ``axis``; returns the complex stack.",
    )
    ifft1d_batched = _looped(
        "ifft1d",
        "Batched :meth:`ifft1d` of a ``(B, n1, n2)`` stack along grid "
        "axis ``axis`` (1/N scaling); returns the complex stack.",
    )
    stencil_dx_batched = _looped(
        "stencil_dx",
        "Batched :meth:`stencil_dx`: ``(B, n1 + 4, n2 + 4, ...)`` ghosted "
        "stack in, ``(B, n1, n2, ...)`` owned-node derivative out.",
    )
    stencil_dy_batched = _looped(
        "stencil_dy",
        "Batched :meth:`stencil_dy`: ``(B, n1 + 4, n2 + 4, ...)`` ghosted "
        "stack in, ``(B, n1, n2, ...)`` owned-node derivative out.",
    )
    stencil_laplacian_batched = _looped(
        "stencil_laplacian",
        "Batched :meth:`stencil_laplacian`: ghosted stack in, owned-node "
        "``(B, n1, n2, ...)`` Laplacian out.",
    )
    rk3_axpy_batched = _looped(
        "rk3_axpy",
        "Batched :meth:`rk3_axpy` with a ``(B,)`` per-scenario ``adu`` "
        "(``coeff · dt_b``); ``out`` may alias any operand.",
    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
