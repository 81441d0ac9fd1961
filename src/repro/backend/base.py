"""The ArrayBackend interface: every dense hot-path kernel in one place.

The solver's compute substrate — Birkhoff-Rott pair accumulation
(dense or over listed sub-panels, and Barnes-Hut far-field), tree moment
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
pins the blocked engine to it.  Exactly coincident
target/source points contribute exactly zero to BR sums (the
numerator ``ω × (t − s)`` vanishes), and every backend must preserve
that — it is what makes self-interaction need no special casing.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["ArrayBackend"]

#: (target, node) interactions per batch of the far-field kernel: each
#: per-axis ``(pairs, c)`` temporary stays at 0.5 MB.
_FARFIELD_BATCH = 65_536


class ArrayBackend(abc.ABC):
    """Abstract compute engine for the dense hot paths.

    Array arguments follow the conventions of the calling modules:
    BR kernels take flattened ``(n, 3)`` float64 point/vector arrays
    (``(B, n, 3)`` stacks for :meth:`br_allpairs`), stencil operators
    take ghosted stacks whose two trailing axes are the grid,
    ``(B, ..., ni + 4, nj + 4)``, and return owned-region stacks, and
    the RK3 update works on ``(B, ...)`` owned-region stacks.
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
        blocks=None,
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
        A call with ``blocks`` ignores it and reads ``blocks.symmetric``.

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
        classified differently from a direct ``|t − s|²`` test.

        ``blocks`` is a chunk list
        (:class:`~repro.spatial.neighbors.ChunkPairs`): ``blocks.pairs``
        is an ``(m, 2)`` int64 array of (target chunk, source chunk)
        pairs, chunk ``k`` being points ``[k·c, (k+1)·c)`` for
        ``c = blocks.chunk``.  A ``blocks.symmetric`` list has sources
        that begin with the targets and may run past them (owned points,
        then their ghosts): the first ``nt`` sources are the targets, the
        rest are chunked on their own from chunk ``ni = ⌈nt / c⌉`` on,
        and among the targets the list holds only ``I <= J``, each
        off-diagonal pair standing for itself and its transpose (the
        dense path mirrors whole panels when ``nt == ns``).  With
        ``cutoff2`` the list is a hint: the caller asserts that no pair
        of any scenario in an unlisted block is within the cutoff, so an
        engine may skip those blocks.  Without it the sum runs over
        every pair of the listed blocks and no other (the tree solver's
        near field).  Either way a list covering every block changes
        nothing, bit for bit (:meth:`_leaves_blocks_out`).
        """

    @staticmethod
    def _leaves_blocks_out(blocks) -> bool:
        """Whether the chunk list ``blocks`` leaves a block out.  Without
        a list, or with one covering every block, an engine takes its
        dense path, whose bits the list must not change."""
        return blocks is not None and len(blocks.pairs) < blocks.every()

    @staticmethod
    def _listed_layout(targets, sources, omega, cutoff2, blocks):
        """One scenario's operands of a sum over the chunk list
        ``blocks``, shared by the engines so they agree on the padding
        and the pair order.

        Returns ``(tgt, src, om, pairs, plain)``: the ``(chunks, chunk,
        3)`` targets, sources and ``ω``, whose ragged last chunks are
        padded with targets at ``+far`` and ``ω = 0`` sources at
        ``-far`` — beyond the cutoff (if any) of each other and of every
        real point, so a padded pair is masked out or weighs nothing —
        and the pair list, its ``plain`` pairs first (in list order),
        then those also applied transposed.  The sources of a symmetric
        list are chunked as it counts them: the targets, then the rest.
        """
        reach = 0.0 if cutoff2 is None else np.sqrt(cutoff2)
        far = 2.0 * (max(np.abs(targets).max(), np.abs(sources).max())
                     + reach) + 1.0
        chunk = blocks.chunk

        def chunked(rows, fill, head):
            # rows[:head] from chunk 0, the rest from the chunk after.
            lead, rest = -(-head // chunk) * chunk, rows.shape[0] - head
            padded = np.full((lead + -(-rest // chunk) * chunk, 3), fill)
            padded[:head] = rows[:head]
            padded[lead:lead + rest] = rows[head:]
            return padded.reshape(-1, chunk, 3)

        head = targets.shape[0] if blocks.symmetric else sources.shape[0]
        mirrored = blocks.mirrored()
        pairs = np.concatenate([blocks.pairs[~mirrored], blocks.pairs[mirrored]])
        return (chunked(targets, far, targets.shape[0]),
                chunked(sources, -far, head), chunked(omega, 0.0, head),
                pairs, len(pairs) - int(np.count_nonzero(mirrored)))

    @staticmethod
    def _add_rows(acc: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
        """``acc[rows[k]] += values[k]`` for every ``k``, in a fixed order:
        each row's values are summed in ``k`` order, then added once
        (``np.add.at`` does the same sequence far slower on sub-arrays)."""
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        acc[rows[starts]] += np.add.reduceat(values[order], starts, axis=0)

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

    def farfield_eval(
        self,
        targets: np.ndarray,
        centers: np.ndarray,
        moment_m: np.ndarray,
        moment_s: np.ndarray,
        moment_q: np.ndarray,
        groups: np.ndarray,
        pair_groups: np.ndarray,
        pair_nodes: np.ndarray,
        eps2: float,
        prefactor: float,
        out: np.ndarray,
    ) -> None:
        """Accumulate far-field (multipole) BR velocities into ``out``.

        For every accepted (group, node) pair ``p`` and every target
        ``t = groups[pair_groups[p], k] >= 0``, with
        ``r = targets[t] - centers[pair_nodes[p]]`` and
        ``u = |r|^2 + eps2``::

            out[t] += prefactor * (
                u**-1.5 * (M x r - S) + 3 * u**-2.5 * (Q r) x r
            )

        — the first-order multipole expansion of the desingularized BR
        kernel around the node centroid (see :mod:`repro.spatial.tree`
        for the derivation and the moment definitions).

        Shapes and dtypes: ``targets`` ``(nt, 3)`` float64; ``centers``
        / ``moment_m`` / ``moment_s`` ``(nn, 3)`` float64; ``moment_q``
        ``(nn, 3, 3)`` float64; ``groups`` ``(G, c)`` int64 target rows,
        ``-1`` padding, every row listed at most once and every group
        non-empty; ``pair_groups`` / ``pair_nodes`` ``(p,)`` int64 with
        entries in ``[0, G)`` / ``[0, nn)``; ``out`` ``(nt, 3)``
        float64, accumulated in place.

        Aliasing rules: ``out`` must not alias any input array (the
        caller always passes a dedicated accumulator); the node-table
        inputs are read-only and a node id may appear in any number of
        pairs.

        One implementation serves every engine, GEMM-shaped.  Writing
        ``r = t - c`` (coordinates shifted to the targets' mean), the
        sum over a group's nodes is

            sum w (M x t - (M x c + S))
              + sum h ((Q t) x t - (Q t) x c - (Q c) x t + (Q c) x c)

        with ``w = u**-1.5`` and ``h = 3 u**-2.5``: six per-node
        features weighted by ``w`` and 24 by ``h``, each summed by one
        ``(c, nodes) @ (nodes, features)`` product per group, then
        applied to ``t``.  The pairs must be sorted by group (the walk
        hands them on so).
        """
        if not len(pair_groups):
            return
        ng, c = groups.shape
        filled = groups >= 0
        # One origin for every call over the same targets, whichever
        # groups it walks.
        origin = targets.mean(axis=0)
        # (G, c, 3); a padded slot repeats its group's first target and
        # its velocity is dropped.
        tgt = targets[np.where(filled, groups, groups[:, :1])] - origin
        cen = centers - origin
        qc = np.einsum("nab,nb->na", moment_q, cen)
        # Column d of the (Q t) x c matrix is Q[:, d] x c.
        qxc = np.cross(moment_q.transpose(0, 2, 1), cen[:, None, :])
        feat_w = np.concatenate(
            [moment_m, np.cross(moment_m, cen) + moment_s], axis=1
        )
        feat_h = np.concatenate(
            [moment_q.reshape(-1, 9), qxc.transpose(0, 2, 1).reshape(-1, 9),
             qc, np.cross(qc, cen)], axis=1,
        )
        counts = np.bincount(pair_groups, minlength=ng)
        first = np.cumsum(counts) - counts
        sum_w = np.zeros((ng, c, 6))
        sum_h = np.zeros((ng, c, 24))
        step = max(1, _FARFIELD_BATCH // (c * int(counts.max())))
        for g0 in range(0, ng, step):
            g1 = min(g0 + step, ng)
            # (groups, slots) entry indices; a short group's extra slots
            # repeat its first entry with weight zero.
            width = int(counts[g0:g1].max())
            if width == 0:
                continue
            slot = np.arange(width)
            used = slot < counts[g0:g1, None]
            entry = first[g0:g1, None] + np.where(used, slot, 0)
            node = pair_nodes[entry]
            mask = used[:, None, :]
            t = tgt[g0:g1]
            u = None
            for a in range(3):
                d = t[:, :, a, None] - cen[node, a][:, None, :]
                d *= d
                u = d if u is None else u + d
            u += eps2
            w = np.sqrt(u)
            w *= u
            np.divide(1.0, w, out=w)                          # u^{-3/2}
            h = 3.0 * w
            h /= u                                            # 3 u^{-5/2}
            w *= mask
            h *= mask
            sum_w[g0:g1] = w @ feat_w[node]
            sum_h[g0:g1] = h @ feat_h[node]
        moment_sum = sum_h[..., 0:9].reshape(ng, c, 3, 3)
        qxc_sum = sum_h[..., 9:18].reshape(ng, c, 3, 3)
        vel = np.cross(sum_w[..., 0:3] - sum_h[..., 18:21], tgt)
        vel -= sum_w[..., 3:6]
        vel += np.cross(np.einsum("gkab,gkb->gka", moment_sum, tgt), tgt)
        vel -= np.einsum("gkab,gkb->gka", qxc_sum, tgt)
        vel += sum_h[..., 21:24]
        vel *= prefactor
        out[groups[filled]] += vel[filled]

    # -- stencil operators -------------------------------------------------

    @abc.abstractmethod
    def stencil_dx(self, full: np.ndarray, spacing: float) -> np.ndarray:
        """4th-order ∂/∂α₁ (grid axis −2) of a ghosted stack, on owned
        nodes: ``(B, ..., n1 + 4, n2 + 4)`` in, ``(B, ..., n1, n2)`` out."""

    @abc.abstractmethod
    def stencil_dy(self, full: np.ndarray, spacing: float) -> np.ndarray:
        """4th-order ∂/∂α₂ (grid axis −1) of a ghosted stack, on owned
        nodes: ``(B, ..., n1 + 4, n2 + 4)`` in, ``(B, ..., n1, n2)`` out."""

    @abc.abstractmethod
    def stencil_laplacian(
        self, full: np.ndarray, dx_: float, dy_: float
    ) -> np.ndarray:
        """4th-order ∂²/∂α₁² + ∂²/∂α₂² of a ghosted stack, on owned
        nodes: ``(B, ..., n1 + 4, n2 + 4)`` in, ``(B, ..., n1, n2)`` out."""

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
