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
Backends may reorder floating-point reductions (tiling, BLAS, JIT
loops) but must agree with the ``numpy`` reference to ~1e-12 relative
accuracy on well-conditioned inputs; ``tests/backend/test_parity.py``
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
    BR kernels take flattened ``(n, 3)`` float64 point/vector arrays,
    stencil operators take full ghosted ``(ni + 4, nj + 4, ...)``
    arrays and return owned-region results, and the RK3 update works
    on owned-region views of any shape.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    #: Where this engine's working arrays live: ``"cpu"`` for host
    #: engines, ``"cuda:<n>"`` for device engines.  Communication layers
    #: consult it (together with per-array
    #: :func:`repro.mpi.descriptor.array_device` detection) to pick a
    #: transport that matches the payload's residency.
    device: str = "cpu"

    # -- device surface ----------------------------------------------------

    def capabilities(self) -> frozenset[str]:
        """Capability tags surfaced by ``rocketrig --list-backends``.

        The base set describes residency (``host``/``device``); engines
        add their own tags (``jit``, ``tiled``, ``fft``...).
        """
        return frozenset({"host" if self.device == "cpu" else "device"})

    def asarray(self, arr: np.ndarray) -> np.ndarray:
        """Move/convert an array to this engine's device (no-op on host).

        Host engines return a host ``ndarray`` view or copy; device
        engines return a device-resident array exposing
        ``__cuda_array_interface__``.  Solvers stage inputs through this
        before a kernel burst and back with :meth:`to_host`.
        """
        return np.asarray(arr)

    def to_host(self, arr: np.ndarray) -> np.ndarray:
        """Bring an array of this engine back to host memory.

        The inverse of :meth:`asarray`; host engines pass through,
        device engines download (the PCIe staging the machine model
        charges via ``MachineSpec.pcie_bw``).
        """
        getter = getattr(arr, "get", None)
        if getter is not None and not isinstance(arr, np.ndarray):
            return np.asarray(getter())
        return np.asarray(arr)

    def empty_like_pool(self, prototype: np.ndarray, pool) -> np.ndarray:
        """Uninitialized scratch shaped/typed like ``prototype``, backed
        by a :class:`repro.util.bufferpool.BufferPool` lease.

        The returned array is a typed view of a pooled ``uint8`` buffer;
        hand it back with ``pool.release(arr)`` (release walks the view
        chain to the owning buffer).  Device engines override to lease
        device memory instead.
        """
        proto = np.asarray(prototype)
        lease = pool.acquire(proto.nbytes)
        return lease[: proto.nbytes].view(proto.dtype).reshape(proto.shape)

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
        they can beat that (the JIT backend fuses the arithmetic).
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
    # (:mod:`repro.batch`) in one call: every argument grows a leading
    # batch axis of length B (independent same-shape scenarios), and
    # per-scenario scalars (eps², prefactor, RK3 step coefficients)
    # arrive as ``(B,)`` float64 vectors.  The concrete defaults below
    # loop per scenario over the scalar kernels, so every registered
    # engine supports fleets day one with bitwise-identical numerics;
    # engines override them with fused implementations where a single
    # stacked invocation wins (the blocked backend's perf target).

    def br_allpairs_batched(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        omega: np.ndarray,
        eps2: np.ndarray,
        prefactor: np.ndarray,
        out: np.ndarray,
        *,
        symmetric: bool = False,
        batch_pairs: int = 2_000_000,
    ) -> None:
        """Batched dense BR accumulation: B independent all-pairs sums.

        ``targets``/``sources``/``omega``/``out`` are stacked ``(B, n, 3)``
        / ``(B, m, 3)`` float64 arrays; ``eps2`` and ``prefactor`` are
        ``(B,)`` per-scenario desingularization/quadrature scalars.
        Scenario ``b`` accumulates exactly :meth:`br_allpairs` of its own
        slices — scenarios never interact.  ``symmetric`` asserts the
        target and source stacks are the same point sets per scenario;
        ``batch_pairs`` bounds panel temporaries as in the scalar kernel.
        The default loops the scalar kernel per scenario.
        """
        for b in range(targets.shape[0]):
            self.br_allpairs(
                targets[b], sources[b], omega[b],
                float(eps2[b]), float(prefactor[b]), out[b],
                symmetric=symmetric, batch_pairs=batch_pairs,
            )

    def fft1d_batched(self, data: np.ndarray, axis: int) -> np.ndarray:
        """Batched forward FFT along one *grid* axis of a scenario stack.

        ``data`` is ``(B, n1, n2)``; ``axis`` indexes the per-scenario
        grid axes (0 or 1), i.e. the transform runs along stacked axis
        ``axis + 1``.  Semantics per scenario match :meth:`fft1d`.  The
        default loops the scalar kernel per scenario.
        """
        out = np.empty(data.shape, dtype=np.complex128)
        for b in range(data.shape[0]):
            out[b] = self.fft1d(data[b], axis)
        return out

    def ifft1d_batched(self, data: np.ndarray, axis: int) -> np.ndarray:
        """Batched inverse FFT along one *grid* axis of a scenario stack.

        Mirror of :meth:`fft1d_batched` with :meth:`ifft1d` semantics
        per scenario (norm='backward', scales by 1/N along the axis).
        """
        out = np.empty(data.shape, dtype=np.complex128)
        for b in range(data.shape[0]):
            out[b] = self.ifft1d(data[b], axis)
        return out

    @staticmethod
    def _batched_owned_shape(full: np.ndarray) -> tuple[int, ...]:
        """Owned-region shape of a stacked ghosted array (halo depth 2)."""
        return (
            (full.shape[0], full.shape[1] - 4, full.shape[2] - 4)
            + full.shape[3:]
        )

    def stencil_dx_batched(
        self, full: np.ndarray, spacing: float
    ) -> np.ndarray:
        """Batched 4th-order ∂/∂α₁ of stacked ghosted scenario arrays.

        ``full`` is ``(B, n1 + 4, n2 + 4, ...)``; returns the stacked
        owned-node derivative ``(B, n1, n2, ...)``.  Per scenario the
        result equals :meth:`stencil_dx` of the slice.  The default
        loops the scalar kernel per scenario.
        """
        out = np.empty(self._batched_owned_shape(full))
        for b in range(full.shape[0]):
            out[b] = self.stencil_dx(full[b], spacing)
        return out

    def stencil_dy_batched(
        self, full: np.ndarray, spacing: float
    ) -> np.ndarray:
        """Batched 4th-order ∂/∂α₂ of stacked ghosted scenario arrays.

        Mirror of :meth:`stencil_dx_batched` along grid axis 1 (per
        scenario it equals :meth:`stencil_dy` of the slice).
        """
        out = np.empty(self._batched_owned_shape(full))
        for b in range(full.shape[0]):
            out[b] = self.stencil_dy(full[b], spacing)
        return out

    def stencil_laplacian_batched(
        self, full: np.ndarray, dx_: float, dy_: float
    ) -> np.ndarray:
        """Batched surface Laplacian of stacked ghosted scenario arrays.

        Per scenario the result equals :meth:`stencil_laplacian` of the
        slice; the default loops the scalar kernel per scenario.
        """
        out = np.empty(self._batched_owned_shape(full))
        for b in range(full.shape[0]):
            out[b] = self.stencil_laplacian(full[b], dx_, dy_)
        return out

    def rk3_axpy_batched(
        self,
        out: np.ndarray,
        u: np.ndarray,
        au: float,
        u0: np.ndarray,
        a0: float,
        du: np.ndarray,
        adu: np.ndarray,
    ) -> None:
        """Fleet RK3 stage update with per-scenario step coefficients.

        All arrays are scenario stacks ``(B, ...)``; ``au``/``a0`` are
        the shared Shu-Osher stage constants and ``adu`` is the ``(B,)``
        per-scenario ``coeff · dt_b`` vector (fleets advance in lockstep
        stages but each scenario keeps its own timestep).  Scenario
        ``b`` computes exactly ``out_b ← au·u_b + a0·u0_b + adu_b·du_b``
        with the same aliasing tolerance as :meth:`rk3_axpy` — ``out``
        may alias any operand.  The default loops the scalar kernel.
        """
        for b in range(out.shape[0]):
            self.rk3_axpy(
                out[b], u[b], au, u0[b], a0, du[b], float(adu[b])
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
