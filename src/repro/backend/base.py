"""The ArrayBackend interface: every dense hot-path kernel in one place.

The solver's compute substrate — Birkhoff-Rott pair accumulation
(dense, CSR-neighbor and Barnes-Hut far-field), tree moment
reductions, the two-node-deep stencil operators and the fused RK3
state updates — is expressed against this interface so engines can be
swapped the way the paper swaps heFFTe communication flags: without
touching the physics.  The 1-D FFT stages are not on it: every engine
would call ``numpy.fft``, so :mod:`repro.fft.serial` does that itself.
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

Stacks
------
The all-pairs, stencil and RK3 kernels have one entry point each, and
it takes a *stack*: a leading axis of B independent same-shape
scenarios (a :class:`~repro.batch.ScenarioFleet` stack, or a solo
run's arrays as a stack of one via ``a[None]``), with per-scenario
scalars as ``(B,)`` float64 vectors.  Scenario ``b`` computes exactly
what a stack of one holding it computes — scenarios never interact —
so a fleet-stepped scenario replays its solo run's operations.

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


class ArrayBackend(abc.ABC):
    """Abstract compute engine for the dense hot paths.

    Array arguments follow the conventions of the calling modules:
    BR kernels take flattened ``(n, 3)`` float64 point/vector arrays
    (``(B, n, 3)`` stacks for :meth:`br_allpairs`), stencil operators
    take ghosted ``(B, ni + 4, nj + 4, ...)`` stacks and return
    owned-region stacks, and the RK3 update works on ``(B, ...)``
    owned-region stacks.
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
        eps2: np.ndarray,
        prefactor: np.ndarray,
        out: np.ndarray,
        *,
        symmetric: bool = False,
        cutoff2: "np.ndarray | None" = None,
    ) -> "np.ndarray | None":
        """Accumulate dense BR velocities into ``out`` (``(B, nt, 3)``).

        ``out[b, i] += prefactor[b] · Σ_j ω_j × (t_i − s_j) / (r² + ε²)^{3/2}``
        over scenario ``b``'s points, with its own ``ε² = eps2[b]``.

        ``targets`` is a ``(B, nt, 3)`` stack, ``sources`` / ``omega``
        ``(B, ns, 3)`` and ``eps2`` / ``prefactor`` ``(B,)`` vectors.
        ``symmetric=True`` asserts that each scenario's ``targets`` and
        ``sources`` are the *same point set* in the same order; backends
        may exploit the shared pair geometry (``r_ij = r_ji``) to halve
        the distance work.  It is a hint: ignoring it is always correct.

        ``cutoff2`` (a ``(B,)`` vector like ``eps2``) turns the sum into
        the cutoff solver's: a pair whose ``r² > cutoff2[b]`` gets weight
        zero, where ``r²`` is the one the weight uses, before ε² is added
        (so the boundary is inclusive).  The call then returns the
        ``(B,)`` int64 count of pairs kept, counted as the cell list's
        CSR lists count them: ordered pairs, a point with itself
        included.  Without it every pair is summed, the operations are
        those of the unmasked kernel, and the call returns ``None``.  An
        engine may measure ``r²`` on shifted coordinates (the blocked one
        centres them), so a pair within round-off of the cutoff may be
        classified differently from the cell-list search.
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

        This has a concrete reference
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
        pairs.
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

    # -- stencil operators -------------------------------------------------

    @abc.abstractmethod
    def stencil_dx(self, full: np.ndarray, spacing: float) -> np.ndarray:
        """4th-order ∂/∂α₁ (grid axis 0) of a ghosted stack, on owned
        nodes: ``(B, n1 + 4, n2 + 4, ...)`` in, ``(B, n1, n2, ...)`` out."""

    @abc.abstractmethod
    def stencil_dy(self, full: np.ndarray, spacing: float) -> np.ndarray:
        """4th-order ∂/∂α₂ (grid axis 1) of a ghosted stack, on owned
        nodes: ``(B, n1 + 4, n2 + 4, ...)`` in, ``(B, n1, n2, ...)`` out."""

    @abc.abstractmethod
    def stencil_laplacian(
        self, full: np.ndarray, dx_: float, dy_: float
    ) -> np.ndarray:
        """4th-order ∂²/∂α₁² + ∂²/∂α₂² of a ghosted stack, on owned
        nodes: ``(B, n1 + 4, n2 + 4, ...)`` in, ``(B, n1, n2, ...)`` out."""

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
        adu: "np.ndarray | float",
    ) -> None:
        """Fused RK3 stage update ``out ← au·u + a0·u0 + adu·du``.

        Operands are congruent ``(B, ...)`` stacks; ``adu`` is the
        ``(B,)`` per-scenario ``coeff · dt`` (a float serves every
        scenario).

        ``out`` may alias *any* operand — ``u`` (the TimeIntegrator
        always updates the state in place), ``u0`` or ``du`` — and the
        result must be as if the right-hand side were fully evaluated
        first.  Backends that accumulate in place must guard every
        aliasing combination (pinned by the cross-backend aliasing
        regression tests).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
