"""Optional cupy backend: device-resident kernels, auto-detected at import.

Registered only when ``cupy`` is importable *and* a CUDA device is
actually usable; the container image ships neither, so this module must
degrade to a no-op import exactly like :mod:`repro.backend.numba_backend`
(the registry records the reason and ``rocketrig --list-backends``
shows it).

The engine mirrors the numpy reference formulations with ``cupy``'s
drop-in API: the dense/CSR Birkhoff-Rott accumulations, the FFT
stages and the fused RK3 update run on device, with
host arrays staged in through :meth:`CupyBackend.asarray` and results
staged back into the caller's host accumulators (the PCIe crossings the
machine model charges through ``MachineSpec.pcie_bw``).  The tree
moment/far-field kernels and the ghosted stencils inherit the host
reference — they are bandwidth-bound scatter loops that want a custom
kernel, not a translation, and staging them would only launder copies.

Numerical contract: device reductions reorder floating-point sums, so
this engine leans on the same ~1e-12 parity budget the blocked backend
uses; ``tests/backend/test_parity.py`` parameterizes over every
*registered* backend and therefore pins this automatically wherever a
GPU is present (and skips cleanly — visibly, via the registry's
unavailable list — everywhere else).
"""

from __future__ import annotations

import numpy as np

from repro.backend.numpy_backend import NumpyBackend

try:  # pragma: no cover - exercised only where cupy is installed
    import cupy
    cupy.cuda.runtime.getDeviceCount()  # raises when no usable device
except Exception:  # pragma: no cover - ImportError or CUDA runtime error
    cupy = None

__all__ = ["CupyBackend", "CUPY_AVAILABLE"]

CUPY_AVAILABLE = cupy is not None


class CupyBackend(NumpyBackend):  # pragma: no cover - requires cupy
    """Device BR/FFT kernels over the numpy reference elsewhere."""

    name = "cupy"
    device = "cuda:0"

    def capabilities(self) -> frozenset[str]:
        return frozenset({"device", "fft", "vectorized"})

    # -- device surface ----------------------------------------------------

    def asarray(self, arr):
        return cupy.asarray(arr)

    def to_host(self, arr):
        if cupy is not None and isinstance(arr, cupy.ndarray):
            return cupy.asnumpy(arr)
        return np.asarray(arr)

    def empty_like_pool(self, prototype, pool):
        # Device scratch comes from cupy's own memory pool, which is
        # already size-bucketed and device-aware; the host BufferPool is
        # the wrong allocator for it.
        proto = prototype
        return cupy.empty(proto.shape, dtype=proto.dtype)

    # -- staging helpers ---------------------------------------------------

    @staticmethod
    def _accumulate_out(out, acc) -> None:
        """Fold a device accumulation into the caller's accumulator."""
        if isinstance(out, cupy.ndarray):
            out += acc
        else:
            out += cupy.asnumpy(acc)

    # -- Birkhoff-Rott ----------------------------------------------------

    def br_allpairs(self, targets, sources, omega, eps2, prefactor, out,
                    *, symmetric=False, batch_pairs=2_000_000):
        t = cupy.asarray(targets)
        s = cupy.asarray(sources)
        o = cupy.asarray(omega)
        acc = cupy.zeros((t.shape[0], 3), dtype=cupy.float64)
        nt, ns = t.shape[0], s.shape[0]
        bt = max(1, min(nt, batch_pairs // max(ns, 1)))
        for start in range(0, nt, bt):
            stop = min(start + bt, nt)
            diff = t[start:stop, None, :] - s[None, :, :]
            r2 = (diff * diff).sum(axis=-1) + eps2
            inv = r2 ** -1.5
            cx = o[None, :, 1] * diff[..., 2] - o[None, :, 2] * diff[..., 1]
            cy = o[None, :, 2] * diff[..., 0] - o[None, :, 0] * diff[..., 2]
            cz = o[None, :, 0] * diff[..., 1] - o[None, :, 1] * diff[..., 0]
            acc[start:stop, 0] = prefactor * (cx * inv).sum(axis=1)
            acc[start:stop, 1] = prefactor * (cy * inv).sum(axis=1)
            acc[start:stop, 2] = prefactor * (cz * inv).sum(axis=1)
        self._accumulate_out(out, acc)

    def br_neighbors(self, targets, sources, omega, offsets, indices,
                     eps2, prefactor, out, *, batch_pairs=4_000_000):
        t = cupy.asarray(targets)
        s = cupy.asarray(sources)
        o = cupy.asarray(omega)
        offs = cupy.asarray(offsets, dtype=cupy.int64)
        idx = cupy.asarray(indices, dtype=cupy.int64)
        counts = cupy.diff(offs)
        pair_target = cupy.repeat(
            cupy.arange(t.shape[0], dtype=cupy.int64), counts
        )
        acc = cupy.zeros((t.shape[0], 3), dtype=cupy.float64)
        total_pairs = int(offsets[-1])
        for start in range(0, total_pairs, batch_pairs):
            stop = min(start + batch_pairs, total_pairs)
            ti = pair_target[start:stop]
            sj = idx[start:stop]
            diff = t[ti] - s[sj]
            r2 = (diff * diff).sum(axis=-1) + eps2
            inv = prefactor * r2 ** -1.5
            ob = o[sj]
            contrib = cupy.empty_like(diff)
            contrib[:, 0] = (ob[:, 1] * diff[:, 2] - ob[:, 2] * diff[:, 1]) * inv
            contrib[:, 1] = (ob[:, 2] * diff[:, 0] - ob[:, 0] * diff[:, 2]) * inv
            contrib[:, 2] = (ob[:, 0] * diff[:, 1] - ob[:, 1] * diff[:, 0]) * inv
            cupyx_scatter_add(acc, ti, contrib)
        self._accumulate_out(out, acc)

    # -- reductions -------------------------------------------------------

    def max_displacement(self, a, b):
        if a.shape[0] == 0:
            return 0.0
        da = cupy.asarray(a, dtype=cupy.float64)
        db = cupy.asarray(b, dtype=cupy.float64)
        diff = da - db
        return float(cupy.sqrt((diff * diff).sum(axis=-1).max()))

    # -- spectral ---------------------------------------------------------

    def fft1d(self, data, axis):
        if isinstance(data, cupy.ndarray):
            return cupy.fft.fft(data, axis=axis)
        return cupy.asnumpy(cupy.fft.fft(cupy.asarray(data), axis=axis))

    def ifft1d(self, data, axis):
        if isinstance(data, cupy.ndarray):
            return cupy.fft.ifft(data, axis=axis)
        return cupy.asnumpy(cupy.fft.ifft(cupy.asarray(data), axis=axis))

    # -- fused state updates ----------------------------------------------

    def rk3_axpy(self, out, u, au, u0, a0, du, adu):
        if isinstance(out, cupy.ndarray):
            out[...] = au * u + a0 * u0 + adu * du
        else:
            # Host accumulators: the staged round trip costs more than
            # the fused host update saves; keep it on the host.
            super().rk3_axpy(out, u, au, u0, a0, du, adu)


def cupyx_scatter_add(acc, ti, contrib):  # pragma: no cover - requires cupy
    """``np.add.at`` analogue (cupyx.scatter_add, import deferred)."""
    import cupyx

    cupyx.scatter_add(acc, ti, contrib)
