"""The blocked backend: L2-sized panels, fused BLAS, listed sub-panels.

Numerics-preserving to ~1e-12 against the numpy reference; what the BR
kernels do, and why:

1. **All-pairs in L2-resident panels, r² from one GEMM.**  The weight
   matrix ``w = 1/(r²+ε²)^{3/2}`` is formed one ``tile × tile`` panel
   at a time in two scratch panels, kept per thread and rewritten in
   place (``out=``), so a panel is produced and consumed without
   leaving the cache.  The default edge is 256: two float64 panels are
   1 MiB, half of one core's 2 MiB L2 on the reference box, where the
   previous 512 (4 MiB of panels) streamed every pass through L3 —
   this kernel measured 5.7 ns per pair at 512 and 3.4 at 256
   (symmetric 4096² call), flat from 192 to 256.

   A panel's r² is one ``(a×5)·(5×b)`` GEMM,
   ``[t′ |t′|² 1]·[−2s′; 1; |s′|²] = |t′|² + |s′|² − 2t′·s′``, with
   ``t′ = t − c_I`` and ``s′ = s − c_I`` centred on the centroid
   ``c_I`` of target panel ``I``.  The expansion rounds to about
   ``ε_mach·(|t′|²+|s′|²)``, so a weight's relative error is about
   ``ε_mach·(|t′|²+|s′|²)/(r²+ε²)``: centred on a whole call that is
   ``|x|²/ε²`` ulps.  Panels keep it small: each scenario's targets are
   first sorted by the 3-D Morton code of their position
   (:func:`_morton_order`; a 64² sheet's 256-point panels become
   16 × 16 tiles), so ``|t′|`` is at most a panel radius ρ and
   ``|s′| ≤ |t′| + r``, and the ratio stays below about
   ``ε_mach·(2 + 3ρ²/ε²)`` (a run spanning two distant clusters has
   their distance for ρ; a rank's block of a sheet makes no such run).
   The sources of a symmetric call follow the targets' permutation;
   other sources keep their order, since only the target panel enters
   the bound.  The permutation is made once per call and undone on
   output, the ``[t′ |t′|² 1]`` rows are built once per call and the
   ``[−2s′; 1; |s′|²]`` columns once per target-panel row (only the
   rows of the wave in flight are held, so memory stays flat in the
   stack).  The GEMM costs 0.5 ns per pair against ~2.9 for the
   differences (three K=2 GEMMs, three squares, two adds).  Measured
   against the numpy engine: 20 600-point clouds in [−1.5, 1.5]³ with
   five pairs planted 1e-6 to 1e-2 apart stay within 3e-13
   (max-normalised) at ε = 0.05, where differences gave 2e-13; at
   ε = 0.02 the bound loosens, to 1.9e-12 in the worst draw against
   6.6e-13.

   Within rounding of zero the expansion cannot tell a coincident pair
   from a near one.  The self pairs of a symmetric diagonal panel get
   r² = 0 and weight zero through a strided view of the diagonal; any
   other entry below the band ``8·ε_mach·(max|t′|² + max|s′|²)`` of its
   panel — above the GEMM's worst rounding, so every coincident pair
   is inside — is measured again from differences (only near-duplicate
   points fall in it).

2. **One fused GEMM per panel.**  The identity
   ``Σ_j w_ij ω_j × (t_i − s_j) = (Σ_j w_ij ω_j) × t_i − Σ_j w_ij (ω_j × s_j)``
   turns the reference's per-component reductions into a single
   ``(b, b) @ (b, 6)`` product against ``[ω | ω × s]`` plus one
   pointwise cross product per call.  Coordinates are centered on the
   source centroid first so the decomposition stays well-conditioned,
   and exactly-coincident pairs (``r² + ε² == ε²``, point 1) get weight
   zero — preserving the exact-zero self-interaction of the direct
   formulation, whose numerator the fused form never computes.  The
   cutoff solver's mask (``cutoff2``) zeroes the weight of every pair
   beyond the cutoff: one compare and one product more per panel.

3. **Pair symmetry.**  When targets and sources are the same point set
   (the exact solver's own-block hop), panel ``(I, J)`` is the
   transpose of ``(J, I)``: only the upper triangle is formed and each
   off-diagonal panel is applied a second time as ``w.T @``.

4. **One code path for solo and fleet.**  Every kernel takes a stack
   of scenarios and a solo run passes a stack of one, so a
   fleet-stepped scenario replays exactly the operations of its solo
   run.

5. **Every core, serial reduction order.**  A call with two or more
   panels computes them on the calling thread plus a process-wide pool
   of one thread per other CPU in this process's affinity mask
   (numpy/BLAS release the GIL inside a panel); the calling thread then
   adds the products into the accumulator in the serial loop's order.
   A panel's product does not depend on which thread formed it, so
   every ``+=`` is the same IEEE operation on the same operands as a
   one-thread run: the result is bit-identical for any thread count.
   Panels go out in waves of ``_WAVE`` per thread, so at most one
   wave's products are alive, and a fleet's stack is staged about one
   wave at a time; a one-panel call never touches the pool, and a
   forked child (a local campaign worker) builds a pool of its own.

6. **Listed sub-panels.**  Given a chunk list (``blocks=``), a call
   forms only the listed ``chunk × chunk`` sub-panels, masked under a
   cutoff or not, stacked into tasks of at most ``tile²`` pairs and
   added row by row in list order, so the bits depend on the list
   alone.  Their r² comes from coordinate differences, as K=2 GEMMs
   ``[t 1]·[1 −s]ᵀ`` per axis, which round exactly like ``t − s`` and
   avoid numpy's slow path for broadcast operands; downstream of r²
   they share point 1's operations.  Point 1's expansion was measured
   here and not kept: on 16-point sub-panels it made ``cutoff_r2``
   5–23 % slower in-run (5 of 5 pairs), since every sub-panel needs
   operands centred on its own target chunk.  Two ways to tighten the
   dense panels' bound were measured too and each cost the whole gain:
   a per-entry relative cancellation band, and re-centring per 16-row
   group.  These tasks stay on the calling
   thread: the cutoff solver makes one such call per rank thread at
   once, and on the pool each rank then waits on sub-panels queued
   behind another rank's (two ranks on two cores: 17–19 ms per
   evaluation against 13–14 ms each on its own thread).

The tree solver's far-field kernel is the base class's, shared with
the numpy engine; its near field is point 6's listed sub-panels.  The
stencil / RK3 kernels run on in-place accumulations instead of
full-expression temporaries.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from typing import Optional

import numpy as np

from repro.backend.base import ArrayBackend
from repro.util.errors import ConfigurationError

__all__ = ["BlockedBackend"]

#: All-pairs panels per thread in one wave: the products of one wave are
#: held until the in-order reduction has added them, then freed.
_WAVE = 8

#: r² from the expansion is trusted only above this multiple of
#: ``max|t′|² + max|s′|²`` over its panel; below it, entries are
#: measured again from differences (module docstring, point 1).
_BAND = 8 * np.finfo(np.float64).eps

_scratch = threading.local()       # per-thread r² / w / hit panels
_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _helper_threads() -> int:
    """Pool threads beside the caller: one per other CPU this process may
    run on (its affinity mask, so ``taskset -c 0`` means none)."""
    try:
        return len(os.sched_getaffinity(0)) - 1
    except AttributeError:                  # no affinity API on this OS
        return (os.cpu_count() or 1) - 1


def _panel_pool(threads: int) -> ThreadPoolExecutor:
    """The process-wide panel pool, created by the first call needing it."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(threads, thread_name_prefix="br-panel")
        return _pool


def _drop_pool_in_child() -> None:
    """A forked child has none of its parent's pool threads — panels
    queued on that pool would wait forever — and may inherit its lock
    held: forget both, so the child's first multi-panel call builds a
    pool of its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_pool_in_child)


def _buffers(size: int) -> tuple:
    """This thread's ``size``-element scratch panels: r², w, hit, keep."""
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None or bufs[0].size < size:
        bufs = _scratch.bufs = (
            np.empty(size), np.empty(size), np.empty(size, dtype=bool),
            np.empty(size, dtype=bool),
        )
    return bufs


def _spread3(v: np.ndarray) -> np.ndarray:
    """The bits of each non-negative ``< 2^21`` value moved to every
    third position."""
    for shift, mask in ((32, 0x1F00000000FFFF), (16, 0x1F0000FF0000FF),
                        (8, 0x100F00F00F00F00F), (4, 0x10C30C30C30C30C3),
                        (2, 0x1249249249249249)):
        v |= v << shift
        v &= mask
    return v


def _morton_order(points: np.ndarray) -> np.ndarray:
    """Per scenario of a ``(B, n, 3)`` stack, the stable permutation that
    sorts its points by the 3-D Morton code of their cell on a cubic
    2¹⁶-a-side grid over the scenario's bounding box: runs of a panel's
    points are then compact boxes (a 64² sheet's 256-point runs are
    16 × 16 tiles) whatever order the points came in."""
    lo = points.min(axis=1, keepdims=True)
    side = (points.max(axis=1, keepdims=True) - lo).max(axis=2, keepdims=True)
    scale = (1 << 16) - 1
    with np.errstate(invalid="ignore", divide="ignore"):  # a blown-up run
        cells = np.nan_to_num((points - lo) * (scale / side))
    cells = np.clip(cells, 0, scale).astype(np.int64)
    codes = _spread3(cells[..., 0])
    codes |= _spread3(cells[..., 1]) << 1
    codes |= _spread3(cells[..., 2]) << 2
    return np.argsort(codes, axis=1, kind="stable")


def _diagonal(panels: np.ndarray) -> np.ndarray:
    """The ``(i, i)`` entries of a C-contiguous ``(k, a, a)`` panel
    stack, as a writable strided view."""
    k, a = panels.shape[:2]
    return panels.reshape(k, a * a)[:, ::a + 1]


def _weights(r2, e, cut2, w, keep_buf):
    """Everything downstream of r²: the cutoff mask (``None`` without
    ``cut2``, else not yet applied), ``r2 += e`` and
    ``w = 1/(r²+ε²)^{3/2}`` into ``w``.  ``e`` and ``cut2`` broadcast
    against the ``(k, a, b)`` panels."""
    keep = None
    if cut2 is not None:
        keep = keep_buf[:r2.size].reshape(r2.shape)
        np.less_equal(r2, cut2, out=keep)
    r2 += e
    np.sqrt(r2, out=w)
    w *= r2
    with np.errstate(divide="ignore"):            # ε = 0 self-pairs
        np.divide(1.0, w, out=w)
    return keep


def _mask(w, keep) -> None:
    """Zero the weight of every pair beyond the cutoff."""
    if keep is not None:
        # A product, not a masked copy: ``copyto(where=)`` branches
        # per element, and on the cutoff mask, dense and irregular,
        # that is 6x slower.  Beyond the cutoff w is finite, so the
        # product is exactly 0.
        np.multiply(w, keep, out=w)


def _source_rows(src, cent, j_lo, edge) -> tuple:
    """The ``[−2s′; 1; |s′|²]`` columns of one target panel's row of
    panels, ``s′ = s − c_I`` for sources ``j_lo`` on, and the largest
    ``|s′|²`` of each ``edge``-wide source panel: ``(sop, smax)`` with
    ``sop`` ``(k, 5, ns − j_lo)``."""
    sp = src[:, j_lo:] - cent
    sop = np.empty((sp.shape[0], 5, sp.shape[1]))
    np.multiply(sp.transpose(0, 2, 1), -2.0, out=sop[:, :3])
    sop[:, 3] = 1.0
    np.einsum("...k,...k->...", sp, sp, out=sop[:, 4])
    smax = np.maximum.reduceat(sop[:, 4], np.arange(0, sp.shape[1], edge),
                               axis=1)
    return sop, smax


def _panel_weights(job, tgt, src, e, cut2, mirror, bufs):
    """The weight panels of one stack of dense panels (point 1 of the
    module docstring) in this thread's scratch, and their cutoff mask.

    ``job`` is ``(fleet, i0, i1, j0, j1, top, sop, band)``: ``top`` the
    ``(k, a, 5)`` rows ``[t′ |t′|² 1]``, ``sop`` the ``(k, 5, b)``
    columns ``[−2s′; 1; |s′|²]`` and ``band`` the ``(k, 1, 1)``
    rounding band of r² there; ``tgt`` / ``src`` are the call-centred
    points the band's entries are measured again from.
    """
    fleet, i0, i1, j0, j1, top, sop, band = job
    r2_buf, w_buf, hit_buf, keep_buf = bufs
    shape = (top.shape[0], i1 - i0, j1 - j0)
    n = shape[0] * shape[1] * shape[2]
    r2 = r2_buf[:n].reshape(shape)
    w = w_buf[:n].reshape(shape)
    hit = hit_buf[:n].reshape(shape)
    np.matmul(top, sop, out=r2)
    np.less(r2, band, out=hit)
    diag = mirror and i0 == j0
    if diag:                        # self pairs: r² = 0, weight zero
        _diagonal(hit)[...] = False
    zero = None
    if hit.any():
        # Within rounding of zero the expansion cannot tell a
        # coincident pair from a near one: take these few from
        # differences, which round like the reference.
        k, i, j = np.nonzero(hit)
        d = tgt[fleet][k, i0 + i] - src[fleet][k, j0 + j]
        exact = d[:, 0] * d[:, 0]
        exact += d[:, 1] * d[:, 1]
        exact += d[:, 2] * d[:, 2]
        r2[k, i, j] = exact
        # r² + ε² == ε² marks a coincident pair, whose numerator
        # ω × (t − s) vanishes: the fused reduction never forms it, so
        # the weight is dropped instead.
        ek = e.reshape(-1)[k]
        gone = exact + ek == ek
        zero = (k[gone], i[gone], j[gone])
    if diag:
        _diagonal(r2)[...] = 0.0
    keep = _weights(r2, e, cut2, w, keep_buf)
    if diag:
        _diagonal(w)[...] = 0.0
    if zero is not None:
        w[zero] = 0.0
    _mask(w, keep)
    return w, keep


def _panel_products(panels, tgt, src, rhs, eps2, cut2, mirror, size) -> list:
    """``w @ rhs[J]`` per :func:`_panel_weights` job, plus ``w.T @
    rhs[I]`` for an off-diagonal mirrored one (else ``None``), plus,
    with a ``cut2`` mask, each scenario's count of pairs within it (else
    ``None``).

    Runs on any thread: the ``size``-element scratch panels are the
    calling thread's own and every input is only read.
    """
    bufs = _buffers(size)
    products = []
    for job in panels:
        fleet, i0, i1, j0, j1 = job[:5]
        w, keep = _panel_weights(
            job, tgt, src, eps2[fleet],
            None if cut2 is None else cut2[fleet], mirror, bufs,
        )
        kept = None
        if keep is not None:
            # A plain count is 4x faster than the per-axis one.
            kept = (
                np.array([np.count_nonzero(keep)]) if keep.shape[0] == 1
                else np.count_nonzero(keep, axis=(1, 2))
            )
        mirrored = None
        if mirror and j0 > i0:
            mirrored = w.transpose(0, 2, 1) @ rhs[fleet, i0:i1]
        products.append((w @ rhs[fleet, j0:j1], mirrored, kept))
    return products


def _subpanel_products(i, j, plain, t1, s1, rhs, eps2, cut2, bufs) -> tuple:
    """The listed chunk pairs ``(i[k], j[k])`` as a stack of sub-panels,
    masked by ``cut2`` if given: ``w @ rhs[J]`` per sub-panel,
    ``w.T @ rhs[I]`` per sub-panel after the first ``plain`` ones (the
    mirrored ones, else ``None``), and the count of ordered pairs within
    the cutoff (a mirrored sub-panel's twice; ``None`` without one).

    ``t1`` is ``(chunks, 3, c, 2)`` (``[t 1]`` rows per axis), ``s1``
    ``(chunks, 3, 2, c)`` (``[1 −s]`` columns) and ``rhs``
    ``(chunks, c, 6)``; r² comes from the differences (point 6).
    """
    tp, sp = t1[i], s1[j]
    r2_buf, w_buf, hit_buf, keep_buf = bufs
    shape = (tp.shape[0], tp.shape[2], sp.shape[3])
    n = shape[0] * shape[1] * shape[2]
    r2 = r2_buf[:n].reshape(shape)
    w = w_buf[:n].reshape(shape)
    hit = hit_buf[:n].reshape(shape)
    np.matmul(tp[:, 0], sp[:, 0], out=w)
    np.multiply(w, w, out=r2)
    for axis in (1, 2):
        np.matmul(tp[:, axis], sp[:, axis], out=w)
        np.multiply(w, w, out=w)
        r2 += w
    keep = _weights(r2, eps2, cut2, w, keep_buf)
    # r2 now holds r² + ε²: == ε² marks a coincident pair (see
    # _panel_weights).
    np.equal(r2, eps2, out=hit)
    np.copyto(w, 0.0, where=hit)
    _mask(w, keep)
    kept = None
    if keep is not None:
        kept = (np.count_nonzero(keep[:plain])
                + 2 * np.count_nonzero(keep[plain:]))
    mirrored = None
    if plain < len(i):
        mirrored = w[plain:].transpose(0, 2, 1) @ rhs[i[plain:]]
    return w @ rhs[j], mirrored, kept


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a × b`` into ``out`` for congruent ``(..., 3)`` arrays.

    The products and subtraction order of ``np.cross`` (and of
    ``core.operators.cross``) without its per-call axis handling, which
    is a fifth of a 256-point all-pairs call.
    """
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


class BlockedBackend(ArrayBackend):
    """Cache-blocked engine; ``tile`` sets the panel edge (points)."""

    name = "blocked"

    def __init__(self, tile: int = 256) -> None:
        self.tile = max(16, int(tile))

    # -- Birkhoff-Rott ----------------------------------------------------

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
        """Panelled BR accumulation over a stack of scenarios.

        Scenarios advance in chunks whose combined ``tile x tile`` panel
        holds at most ``tile**2`` pairs, so each thread's two scratch
        panels stay in its L2 whatever the stack looks like (one
        scenario per chunk once a scenario fills a panel).  Each panel
        costs one K=5 GEMM for r² on panel-centred coordinates (point 1
        of the module docstring), a handful of in-place passes for
        ``1/(r²+ε²)^{3/2}`` and one ``(b, b) @ (b, 6)`` GEMM against
        ``[ω | ω × s]``; with
        ``symmetric`` only the upper triangle of panels is formed and
        each off-diagonal one is also applied transposed.  Panels are
        formed on every core and reduced in serial order (point 5 of the
        module docstring), staging about one wave of whole chunks at a
        time, so memory is flat in the stack size: no pair-sized
        temporary outgrows a panel.  A ``cutoff2`` mask is one compare
        and one product more per panel, and the pair counts ride back
        with the products.  A chunk list that leaves blocks out sends
        each scenario through :meth:`_listed_allpairs` instead.
        """
        nb, nt, ns = targets.shape[0], targets.shape[1], sources.shape[1]
        kept = None if cutoff2 is None else np.zeros(nb, dtype=np.int64)
        if nb == 0 or nt == 0 or ns == 0:
            return kept
        if self._leaves_blocks_out(blocks):
            for k in range(nb):
                count = self._listed_allpairs(
                    targets[k], sources[k], omega[k], float(eps2[k]),
                    float(prefactor[k]),
                    None if cutoff2 is None else float(cutoff2[k]), out[k],
                    blocks,
                )
                if kept is not None:
                    kept[k] = count
            return kept
        eps2 = np.asarray(eps2, dtype=np.float64).reshape(nb, 1, 1)
        pref = np.asarray(prefactor, dtype=np.float64).reshape(nb, 1, 1)
        cut2 = (
            None if cutoff2 is None
            else np.asarray(cutoff2, dtype=np.float64).reshape(nb, 1, 1)
        )
        if blocks is not None:
            symmetric = blocks.symmetric
        mirror = symmetric and nt == ns
        b = self.tile
        edge_t, edge_s = min(b, nt), min(b, ns)
        chunk = min(nb, max(1, (b * b) // (edge_t * edge_s)))
        blocks = [
            (i0, min(i0 + b, nt), j0, min(j0 + b, ns))
            for i0 in range(0, nt, b)
            for j0 in range(i0 if mirror else 0, ns, b)
        ]
        panels = [
            (slice(b0, b0 + chunk),) + block
            for b0 in range(0, nb, chunk)
            for block in blocks
        ]
        helpers = _helper_threads() if len(panels) > 1 else 0
        stride = helpers + 1
        span = chunk * max(1, _WAVE * stride // len(blocks))
        if span < nb:       # a scenario's panels do not depend on the cut
            for s in (slice(s0, s0 + span) for s0 in range(0, nb, span)):
                part = self.br_allpairs(
                    targets[s], sources[s], omega[s], eps2[s], pref[s], out[s],
                    symmetric=symmetric, cutoff2=None if cut2 is None else cut2[s],
                )
                if kept is not None:
                    kept[s] = part
            return kept
        center = sources.mean(axis=1, keepdims=True)          # (nb, 1, 3)
        order = None
        if nt > b:          # compact target panels (module docstring, 1)
            order = _morton_order(targets)[..., None]
            targets = np.take_along_axis(targets, order, axis=1)
            if mirror:      # the sources are the targets
                omega = np.take_along_axis(omega, order, axis=1)
        tgt = targets - center
        src = tgt if mirror else sources - center
        rhs = np.empty((nb, ns, 6))
        rhs[..., :3] = omega
        _cross(omega, src, rhs[..., 3:])                      # ω_j × s'_j
        # [t′ |t′|² 1] rows, t′ = t − c_I for the centroid c_I of each
        # target panel I, and the panel's largest |t′|².
        top = np.ones((nb, nt, 5))
        cents, tmax = [], []
        for i0 in range(0, nt, b):
            rows = top[:, i0:i0 + b]
            cents.append(tgt[:, i0:i0 + b].mean(axis=1, keepdims=True))
            np.subtract(tgt[:, i0:i0 + b], cents[-1], out=rows[..., :3])
            np.einsum("...k,...k->...", rows[..., :3], rows[..., :3],
                      out=rows[..., 3])
            tmax.append(rows[..., 3].max(axis=1))
        acc = np.zeros((nb, nt, 6))        # Σ w ω_j | Σ w (ω_j × s'_j)
        task = partial(
            _panel_products, tgt=tgt, src=src, rhs=rhs, eps2=eps2, cut2=cut2,
            mirror=mirror, size=chunk * edge_t * edge_s,
        )
        sops = {}
        for w0 in range(0, len(panels), _WAVE * stride):
            wave = panels[w0:w0 + _WAVE * stride]
            jobs = []
            for fleet, i0, i1, j0, j1 in wave:
                key, j_lo = (fleet.start, i0), i0 if mirror else 0
                if key not in sops:
                    sops[key] = _source_rows(
                        src[fleet], cents[i0 // b][fleet], j_lo, b
                    )
                sop, smax = sops[key]
                band = _BAND * (tmax[i0 // b][fleet] + smax[:, (j0 - j_lo) // b])
                jobs.append((fleet, i0, i1, j0, j1, top[fleet, i0:i1],
                             sop[:, :, j0 - j_lo:j1 - j_lo],
                             band.reshape(-1, 1, 1)))
            # Source rows are built once each: only the last one can
            # have panels in the next wave.
            sops = {key: sops[key]}
            # Static stride: thread k forms panels k, k + stride, ...
            pending = [
                _panel_pool(helpers).submit(task, jobs[k::stride])
                for k in range(1, min(stride, len(jobs)))
            ]
            try:
                mine = task(jobs[0::stride])
            finally:            # no task outlives the call, even on error
                wait(pending)
            shares = [mine] + [f.result() for f in pending]
            for k, (fleet, i0, i1, j0, j1) in enumerate(wave):
                direct, mirrored, pairs = shares[k % stride][k // stride]
                acc[fleet, i0:i1] += direct
                if mirrored is not None:
                    acc[fleet, j0:j1] += mirrored
                if pairs is not None:
                    kept[fleet] += pairs if mirrored is None else 2 * pairs
        contrib = _cross(acc[..., :3], tgt, np.empty_like(tgt))
        contrib -= acc[..., 3:]
        contrib *= pref
        if order is not None:
            contrib = np.take_along_axis(
                contrib, np.argsort(order, axis=1), axis=1
            )
        out += contrib
        return kept

    def _listed_allpairs(
        self, targets, sources, omega, eps2, pref, cut2, out, blocks,
    ) -> "int | None":
        """One scenario's sum over the listed chunk pairs only, masked by
        ``cut2`` if given; returns its count of ordered pairs within the
        cutoff (``None`` without one).

        Each listed pair is a ``chunk × chunk`` sub-panel formed with the
        panel path's operations (:func:`_weights`).  Sub-panels are
        stacked into tasks of at most ``tile²`` pairs — the plain ones
        first, then those a symmetric list mirrors, each of which is
        also applied transposed — whose products are added to their
        chunk rows in list order (point 6 of the module docstring).
        Operands and pair order are :meth:`_listed_layout`'s.
        """
        nt = targets.shape[0]
        center = sources.mean(axis=0)
        tgt_c, src_c, om_c, pairs, plain = self._listed_layout(
            targets - center, sources - center, omega, cut2, blocks
        )
        chunk = blocks.chunk
        t1 = np.ones(tgt_c.shape[:1] + (3, chunk, 2))
        t1[..., 0] = tgt_c.transpose(0, 2, 1)
        s1 = np.ones(src_c.shape[:1] + (3, 2, chunk))
        np.negative(src_c.transpose(0, 2, 1), out=s1[:, :, 1])
        rhs = np.empty(src_c.shape[:2] + (6,))
        rhs[..., :3] = om_c
        _cross(om_c, src_c, rhs[..., 3:])
        per = max(1, (self.tile * self.tile) // (chunk * chunk))
        bufs = _buffers(per * chunk * chunk)
        acc = np.zeros(tgt_c.shape[:2] + (6,))
        kept = None if cut2 is None else 0
        for p0 in range(0, len(pairs), per):
            i, j = pairs[p0:p0 + per, 0], pairs[p0:p0 + per, 1]
            unmirrored = min(max(plain - p0, 0), len(i))
            direct, mirrored, count = _subpanel_products(
                i, j, unmirrored, t1, s1, rhs, eps2, cut2, bufs
            )
            self._add_rows(acc, i, direct)
            if mirrored is not None:
                self._add_rows(acc, j[unmirrored:], mirrored)
            if kept is not None:
                kept += count
        contrib = _cross(acc[..., :3], tgt_c, np.empty_like(tgt_c))
        contrib -= acc[..., 3:]
        contrib *= pref
        out += contrib.reshape(-1, 3)[:nt]
        return kept

    # -- fused state updates and stencils --------------------------------
    #
    # Whole-stack in-place arithmetic: per scenario, the elementwise
    # operation sequence is the same for any stack size (and stays within
    # 1e-12 of every other backend).

    def rk3_axpy(
        self,
        out: np.ndarray,
        u: np.ndarray,
        au: float,
        u0: np.ndarray,
        a0: float,
        du: np.ndarray,
        adu: "float | np.ndarray",
    ) -> None:
        """In-place RK3 stage; ``adu`` is reshaped to broadcast down the
        stacked trailing axes."""
        coef = np.asarray(adu, dtype=np.float64).reshape(
            (-1,) + (1,) * (u.ndim - 1)
        )
        # The in-place accumulation scales ``out`` first, which corrupts
        # a ``u0``/``du`` operand sharing its memory — fall back to the
        # materialized right-hand side for those aliasing patterns.
        if np.may_share_memory(out, u0) or np.may_share_memory(out, du):
            out[...] = au * u + a0 * u0 + coef * du
            return
        if out is u or np.may_share_memory(out, u):
            out *= au
        else:
            np.multiply(u, au, out=out)
        out += a0 * u0
        out += coef * du

    @staticmethod
    def _binterior(full: np.ndarray, oi: int, oj: int) -> np.ndarray:
        """Owned-region view of a stacked ghosted array, offset (oi, oj)."""
        h = 2
        ni = full.shape[-2] - 2 * h
        nj = full.shape[-1] - 2 * h
        return full[..., h + oi : h + oi + ni, h + oj : h + oj + nj]

    @staticmethod
    def _bcheck(full: np.ndarray) -> None:
        if full.ndim < 3 or min(full.shape[-2:]) < 5:
            raise ConfigurationError(
                "depth-2 stencils need ghosted arrays of at least 5 x 5 "
                f"nodes (stacked: (B, ..., >=5, >=5)), got {full.shape}"
            )

    def stencil_dx(self, full: np.ndarray, spacing: float) -> np.ndarray:
        """4th-order ∂/∂α₁ of every scenario in one in-place sweep."""
        self._bcheck(full)
        out = self._binterior(full, -2, 0) - self._binterior(full, 2, 0)
        eight = np.multiply(8.0, self._binterior(full, -1, 0))
        out -= eight
        out += np.multiply(8.0, self._binterior(full, 1, 0), out=eight)
        out *= 1.0 / (12.0 * spacing)
        return out

    def stencil_dy(self, full: np.ndarray, spacing: float) -> np.ndarray:
        """4th-order ∂/∂α₂ of every scenario in one in-place sweep."""
        self._bcheck(full)
        out = self._binterior(full, 0, -2) - self._binterior(full, 0, 2)
        eight = np.multiply(8.0, self._binterior(full, 0, -1))
        out -= eight
        out += np.multiply(8.0, self._binterior(full, 0, 1), out=eight)
        out *= 1.0 / (12.0 * spacing)
        return out

    def stencil_laplacian(
        self, full: np.ndarray, dx_: float, dy_: float
    ) -> np.ndarray:
        """4th-order surface Laplacian of every scenario in one sweep."""
        self._bcheck(full)
        mid = self._binterior(full, 0, 0)
        d2x = 16.0 * (self._binterior(full, -1, 0) + self._binterior(full, 1, 0))
        d2x -= self._binterior(full, -2, 0)
        d2x -= self._binterior(full, 2, 0)
        d2x -= 30.0 * mid
        d2x *= 1.0 / (12.0 * dx_ * dx_)
        d2y = 16.0 * (self._binterior(full, 0, -1) + self._binterior(full, 0, 1))
        d2y -= self._binterior(full, 0, -2)
        d2y -= self._binterior(full, 0, 2)
        d2y -= 30.0 * mid
        d2y *= 1.0 / (12.0 * dy_ * dy_)
        d2x += d2y
        return d2x
