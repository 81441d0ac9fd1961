"""The blocked backend: L2-sized panels, fused BLAS reductions, CSR segments.

Numerics-preserving to ~1e-12 against the numpy reference; what the BR
kernels do, and why:

1. **All-pairs in L2-resident panels.**  The weight matrix
   ``w = 1/(r²+ε²)^{3/2}`` is formed one ``tile × tile`` panel at a
   time in two scratch panels, kept per thread and rewritten in place
   (``out=``), so a panel is produced and consumed without leaving the
   cache.  The default edge is 256: two float64 panels are 1 MiB,
   half of one core's 2 MiB L2 on the reference box, where the previous
   512 (4 MiB of panels) streamed every pass through L3 — this kernel
   measures 5.7 ns per pair at 512 and 3.4 at 256 (symmetric 4096²
   call), flat from 192 to 256.  r² always comes from coordinate
   differences (a GEMM expansion ``|t|²+|s|²−2t·s`` is faster but
   loses ``|x|²/ε²`` digits); the differences themselves are K=2 GEMMs
   ``[t 1]·[1 −s]ᵀ``, which round exactly like ``t − s`` and avoid
   numpy's slow path for broadcast operands.

2. **One fused GEMM per panel.**  The identity
   ``Σ_j w_ij ω_j × (t_i − s_j) = (Σ_j w_ij ω_j) × t_i − Σ_j w_ij (ω_j × s_j)``
   turns the reference's per-component reductions into a single
   ``(b, b) @ (b, 6)`` product against ``[ω | ω × s]`` plus one
   pointwise cross product per call.  Coordinates are centered on the
   source centroid first so the decomposition stays well-conditioned,
   and exactly-coincident pairs (``r² == 0``) get weight zero —
   preserving the exact-zero self-interaction of the direct
   formulation, whose numerator the fused form never computes.

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

The CSR neighbor kernel works in row-aligned chunks of ~32k pairs on
contiguous per-component columns (no ``(pairs, 3)`` fancy-indexing
temporaries) and reduces each target's segment with
``np.add.reduceat`` over the CSR offsets instead of scatter-adding;
the far-field kernel still scatters with ``np.bincount`` (its pair
list is not sorted by target).  The stencil / RK3 kernels run on
in-place accumulations instead of full-expression temporaries.
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
from repro.util.misc import chunk_rows

__all__ = ["BlockedBackend"]

#: Pairs per CSR-kernel chunk (whole rows, so a long row may exceed it).
#: Ten columns of this length are live at once; ns/pair is flat from 16k
#: to 32k and rises on either side (call overhead below, L2 misses above).
_CSR_CHUNK = 32_768

#: All-pairs panels per thread in one wave: the products of one wave are
#: held until the in-order reduction has added them, then freed.
_WAVE = 8

#: Gathered (target, node) pairs per batch of the far-field kernel.
_FARFIELD_BATCH = 4_000_000

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


def _panel_products(panels, t1, s1, rhs, eps2, mirror, size) -> list:
    """``w @ rhs[J]`` per ``(fleet, i0, i1, j0, j1)`` panel, plus
    ``w.T @ rhs[I]`` for an off-diagonal mirrored one (else ``None``).

    Runs on any thread: the ``size``-element scratch panels are the
    calling thread's own and every input is only read.
    """
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None or bufs[0].size < size:
        bufs = _scratch.bufs = (
            np.empty(size), np.empty(size), np.empty(size, dtype=bool)
        )
    r2_buf, w_buf, hit_buf = bufs
    products = []
    for fleet, i0, i1, j0, j1 in panels:
        e = eps2[fleet]
        shape = (e.shape[0], i1 - i0, j1 - j0)
        n = shape[0] * shape[1] * shape[2]
        r2 = r2_buf[:n].reshape(shape)
        w = w_buf[:n].reshape(shape)
        hit = hit_buf[:n].reshape(shape)
        tp, sp = t1[fleet, :, i0:i1], s1[fleet, :, :, j0:j1]
        np.matmul(tp[:, 0], sp[:, 0], out=w)
        np.multiply(w, w, out=r2)
        for axis in (1, 2):
            np.matmul(tp[:, axis], sp[:, axis], out=w)
            np.multiply(w, w, out=w)
            r2 += w
        r2 += e
        # r² + ε² == ε² marks a coincident pair, whose numerator
        # ω × (t − s) vanishes: the fused reduction never forms it, so
        # the weight is dropped instead.
        np.equal(r2, e, out=hit)
        np.sqrt(r2, out=w)
        w *= r2
        with np.errstate(divide="ignore"):            # ε = 0 self-pairs
            np.divide(1.0, w, out=w)
        np.copyto(w, 0.0, where=hit)
        mirrored = None
        if mirror and j0 > i0:
            mirrored = w.transpose(0, 2, 1) @ rhs[fleet, i0:i1]
        products.append((w @ rhs[fleet, j0:j1], mirrored))
    return products


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
    ) -> None:
        """Panelled BR accumulation over a stack of scenarios.

        Scenarios advance in chunks whose combined ``tile x tile`` panel
        holds at most ``tile**2`` pairs, so each thread's two scratch
        panels stay in its L2 whatever the stack looks like (one
        scenario per chunk once a scenario fills a panel).  Each panel
        costs three K=2 GEMMs for the coordinate differences, a handful
        of in-place passes for ``1/(r²+ε²)^{3/2}`` and one
        ``(b, b) @ (b, 6)`` GEMM against ``[ω | ω × s]``; with
        ``symmetric`` only the upper triangle of panels is formed and
        each off-diagonal one is also applied transposed.  Panels are
        formed on every core and reduced in serial order (point 5 of the
        module docstring), staging about one wave of whole chunks at a
        time, so memory is flat in the stack size: no pair-sized
        temporary outgrows a panel.
        """
        nb, nt, ns = targets.shape[0], targets.shape[1], sources.shape[1]
        if nb == 0 or nt == 0 or ns == 0:
            return
        eps2 = np.asarray(eps2, dtype=np.float64).reshape(nb, 1, 1)
        pref = np.asarray(prefactor, dtype=np.float64).reshape(nb, 1, 1)
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
                self.br_allpairs(
                    targets[s], sources[s], omega[s], eps2[s], pref[s], out[s],
                    symmetric=symmetric,
                )
            return
        center = sources.mean(axis=1, keepdims=True)          # (nb, 1, 3)
        tgt = targets - center
        src = sources - center
        # t_i − s_j as the K=2 product [t_i 1]·[1 −s_j]ᵀ: both products
        # are exact, so it rounds like the subtraction — without the
        # broadcast operand that drops numpy onto its buffered path
        # (4× slower at panel widths under 4096).
        t1 = np.ones((nb, 3, nt, 2))
        t1[..., 0] = tgt.transpose(0, 2, 1)
        s1 = np.ones((nb, 3, 2, ns))
        np.negative(src.transpose(0, 2, 1), out=s1[:, :, 1])
        rhs = np.empty((nb, ns, 6))
        rhs[..., :3] = omega
        _cross(omega, src, rhs[..., 3:])                      # ω_j × s'_j
        acc = np.zeros((nb, nt, 6))        # Σ w ω_j | Σ w (ω_j × s'_j)
        task = partial(
            _panel_products, t1=t1, s1=s1, rhs=rhs, eps2=eps2,
            mirror=mirror, size=chunk * edge_t * edge_s,
        )
        for w0 in range(0, len(panels), _WAVE * stride):
            wave = panels[w0:w0 + _WAVE * stride]
            # Static stride: thread k forms panels k, k + stride, ...
            pending = [
                _panel_pool(helpers).submit(task, wave[k::stride])
                for k in range(1, min(stride, len(wave)))
            ]
            try:
                mine = task(wave[0::stride])
            finally:            # no task outlives the call, even on error
                wait(pending)
            shares = [mine] + [f.result() for f in pending]
            for k, (fleet, i0, i1, j0, j1) in enumerate(wave):
                direct, mirrored = shares[k % stride][k // stride]
                acc[fleet, i0:i1] += direct
                if mirrored is not None:
                    acc[fleet, j0:j1] += mirrored
        contrib = _cross(acc[..., :3], tgt, np.empty_like(tgt))
        contrib -= acc[..., 3:]
        contrib *= pref
        out += contrib

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
        if total_pairs == 0:
            return
        # reduceat hands back an *element*, not 0, for an empty segment:
        # only rows that own at least one pair enter the reduction.
        counts = np.diff(offsets)
        rows = np.flatnonzero(counts)
        counts = counts[rows]
        starts = np.append(offsets[rows], total_pairs)
        tcol = np.ascontiguousarray(targets.T)
        scol = np.ascontiguousarray(sources.T)
        ocol = np.ascontiguousarray(omega.T)
        cuts = chunk_rows(starts[:-1], total_pairs, _CSR_CHUNK)
        for k0, k1 in zip(cuts[:-1], cuts[1:]):
            p0, p1 = starts[k0], starts[k1]
            sj = indices[p0:p1]
            r = rows[k0:k1]
            cnt = counts[k0:k1]
            d = []
            for axis in range(3):
                da = np.repeat(tcol[axis][r], cnt)
                da -= scol[axis][sj]
                d.append(da)
            inv = d[0] * d[0]
            inv += d[1] * d[1]
            inv += d[2] * d[2]
            inv += eps2
            comp = np.sqrt(inv)
            inv *= comp
            np.divide(prefactor, inv, out=inv)
            o = [ocol[axis][sj] for axis in range(3)]
            segments = starts[k0:k1] - p0
            for axis, (p, q) in enumerate(((1, 2), (2, 0), (0, 1))):
                np.multiply(o[p], d[q], out=comp)
                comp -= o[q] * d[p]
                comp *= inv
                out[r, axis] += np.add.reduceat(comp, segments)

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
        # Same bincount-scatter strategy as the CSR neighbor kernel:
        # np.add.at is the reference semantics but notoriously slow.
        nt = targets.shape[0]
        total = int(pair_targets.shape[0])
        for start in range(0, total, _FARFIELD_BATCH):
            stop = min(start + _FARFIELD_BATCH, total)
            ti = pair_targets[start:stop]
            ni = pair_nodes[start:stop]
            r = targets[ti] - centers[ni]                     # (b, 3)
            u = r[:, 0] * r[:, 0]
            u += r[:, 1] * r[:, 1]
            u += r[:, 2] * r[:, 2]
            u += eps2
            root = np.sqrt(u)
            g = root * u                                      # u^{3/2}
            np.divide(prefactor, g, out=g)
            h = u * u * root                                  # u^{5/2}
            np.divide(3.0 * prefactor, h, out=h)
            m = moment_m[ni]
            s = moment_s[ni]
            qr = np.einsum("bij,bj->bi", moment_q[ni], r)
            contrib = np.cross(m, r)
            contrib -= s
            contrib *= g[:, None]
            qxr = np.cross(qr, r)
            qxr *= h[:, None]
            contrib += qxr
            for axis in range(3):
                out[:, axis] += np.bincount(
                    ti, weights=contrib[:, axis], minlength=nt
                )

    # -- reductions -------------------------------------------------------

    def max_displacement(self, a: np.ndarray, b: np.ndarray) -> float:
        n = a.shape[0]
        if n == 0:
            return 0.0
        worst = 0.0
        chunk = max(self.tile * self.tile, 1)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            d = a[start:stop, 0] - b[start:stop, 0]
            r2 = d * d
            d = a[start:stop, 1] - b[start:stop, 1]
            r2 += d * d
            d = a[start:stop, 2] - b[start:stop, 2]
            r2 += d * d
            worst = max(worst, float(r2.max()))
        return float(np.sqrt(worst))

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
        ni = full.shape[1] - 2 * h
        nj = full.shape[2] - 2 * h
        return full[:, h + oi : h + oi + ni, h + oj : h + oj + nj]

    @staticmethod
    def _bcheck(full: np.ndarray) -> None:
        if full.ndim < 3 or full.shape[1] < 5 or full.shape[2] < 5:
            raise ConfigurationError(
                "depth-2 stencils need ghosted arrays of at least 5 x 5 "
                f"nodes (stacked: (B, >=5, >=5, ...)), got {full.shape}"
            )

    def stencil_dx(self, full: np.ndarray, spacing: float) -> np.ndarray:
        """4th-order ∂/∂α₁ of every scenario in one in-place sweep."""
        self._bcheck(full)
        out = self._binterior(full, -2, 0) - self._binterior(full, 2, 0)
        out -= 8.0 * self._binterior(full, -1, 0)
        out += 8.0 * self._binterior(full, 1, 0)
        out *= 1.0 / (12.0 * spacing)
        return out

    def stencil_dy(self, full: np.ndarray, spacing: float) -> np.ndarray:
        """4th-order ∂/∂α₂ of every scenario in one in-place sweep."""
        self._bcheck(full)
        out = self._binterior(full, 0, -2) - self._binterior(full, 0, 2)
        out -= 8.0 * self._binterior(full, 0, -1)
        out += 8.0 * self._binterior(full, 0, 1)
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
