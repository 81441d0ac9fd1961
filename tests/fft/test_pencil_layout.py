"""The FFT plan's memory contract: a transposed spectrum, in-place stages
that never touch the caller's arrays, and no full-size staging copies."""

import tracemalloc

import numpy as np
import pytest

from repro import mpi
from repro.fft import ALL_CONFIGS, DistributedFFT2D
from tests.conftest import spmd

SHAPE = (16, 12)


def _frozen(a):
    """A read-only view, strided where ``a`` is: a write through it raises."""
    a = a.view()
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"cfg{c.index}")
@pytest.mark.parametrize("nranks", [1, 2, 4])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["block", "stack"])
class TestPencilLayout:
    def test_spectrum_is_a_transposed_view(self, cfg, nranks, lead, rng):
        """The spectrum's complete axis is contiguous, values unchanged:
        bitwise the per-axis ``numpy`` transforms, sliced."""
        field = rng.normal(size=lead + SHAPE) + 1j * rng.normal(size=lead + SHAPE)
        ref = np.fft.fft(np.fft.fft(field, axis=-1), axis=-2)

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, SHAPE, cfg)
            spec = fft.forward_transposed(field[(Ellipsis, *fft.brick_box.slices())])
            assert spec.shape == lead + fft.spectrum_box.shape
            assert spec.strides[-2] == spec.itemsize
            np.testing.assert_array_equal(
                spec, ref[(Ellipsis, *fft.spectrum_box.slices())])
            return not fft._rows_to_cols.identity

        real_hops = spmd(nranks, program)
        assert all(real_hops) == (nranks > 1)

    def test_caller_arrays_are_never_written(self, cfg, nranks, lead, rng):
        """Read-only inputs go through every entry point: a stage that
        wrote its input would raise."""
        field = rng.normal(size=lead + SHAPE) + 1j * rng.normal(size=lead + SHAPE)

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, SHAPE, cfg)
            brick = _frozen(field[(Ellipsis, *fft.brick_box.slices())])
            spec = _frozen(fft.forward_transposed(brick))
            back = fft.backward_transposed(spec)
            np.testing.assert_allclose(back, brick, rtol=0, atol=1e-13)
            full = _frozen(fft.forward(brick))
            np.testing.assert_allclose(fft.backward(full), brick, rtol=0, atol=1e-13)
            return True

        assert all(spmd(nranks, program))

    def test_backward_transposed_stages_no_copy(self, cfg, nranks, lead, rng):
        """The inverse allocates two arrays the size of its input — the
        first stage's result and one hop's destination, the other stage
        runs in place — plus, point to point, the buffered copies of the
        pieces in flight.  A C-order copy of the transposed spectrum would
        be one spectrum more than that."""
        shape = (64, 64)
        field = rng.normal(size=lead + shape) + 1j * rng.normal(size=lead + shape)
        spec_bytes = field.nbytes  # every rank's spectrum together
        in_flight = {}
        live = []

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, shape, cfg)
            spec = fft.forward_transposed(field[(Ellipsis, *fft.brick_box.slices())])
            for _ in range(3):  # warm the communicator's buffer pool
                fft.backward_transposed(spec)
            members = int(np.prod(lead))
            in_flight[comm.rank] = 0 if cfg.alltoall else sum(
                part.size * spec.itemsize * members
                for d, part in enumerate(fft._cols_to_rows.send_parts)
                if d != comm.rank and part is not None
            )
            comm.barrier()
            if comm.rank == 0:
                live.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            comm.barrier()
            fft.backward_transposed(spec)
            comm.barrier()

        tracemalloc.start()
        try:
            spmd(nranks, program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - live[0] - 2 * spec_bytes - sum(in_flight.values())
        assert extra < 0.5 * spec_bytes, (
            f"backward_transposed allocated {extra / spec_bytes:.2f} spectra "
            "beyond its two stage arrays and its messages"
        )
