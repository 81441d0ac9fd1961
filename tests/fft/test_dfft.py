"""Distributed FFT: correctness across all 8 heFFTe-style configurations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpi
from repro.fft import ALL_CONFIGS, DistributedFFT2D, FftConfig
from repro.fft.layouts import (
    brick_layout,
    cols_pencil_layout,
    cols_slab_layout,
    rows_pencil_layout,
    rows_slab_layout,
)
from repro.fft.serial import fft_along, ifft_along
from repro.util.errors import ConfigurationError
from tests.conftest import spmd


def _distributed_fft(nranks, shape, cfg, field):
    ref = np.fft.fft2(field)

    def program(comm):
        cart = mpi.create_cart(comm, ndims=2)
        fft = DistributedFFT2D(cart, shape, cfg)
        box = fft.brick_box
        spec = fft.forward(field[box.slices()])
        ok_fwd = np.allclose(spec, ref[box.slices()], atol=1e-9 * np.abs(ref).max())
        back = fft.backward(spec)
        ok_inv = np.allclose(back.real, field[box.slices()], atol=1e-9)
        return ok_fwd and ok_inv

    return all(spmd(nranks, program))


class TestAllConfigs:
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"cfg{c.index}")
    @pytest.mark.parametrize("nranks", [1, 4, 6])
    def test_forward_inverse_matches_numpy(self, cfg, nranks, rng):
        field = rng.normal(size=(16, 12))
        assert _distributed_fft(nranks, (16, 12), cfg, field)

    def test_complex_input(self, rng):
        field = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        ref = np.fft.fft2(field)

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, (8, 8))
            box = fft.brick_box
            return np.allclose(fft.forward(field[box.slices()]), ref[box.slices()])

        assert all(spmd(4, program))

    @pytest.mark.parametrize("shape", [(8, 8), (12, 20), (9, 15), (32, 8)])
    def test_odd_shapes(self, shape, rng):
        field = rng.normal(size=shape)
        assert _distributed_fft(4, shape, FftConfig(), field)


class TestTransposedHalves:
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"cfg{c.index}")
    @pytest.mark.parametrize("nranks", [1, 2, 4, 6])
    def test_spectrum_stays_in_cols_layout(self, cfg, nranks, rng):
        """forward_transposed == fft2 sliced by spectrum_box; the pair inverts."""
        shape = (16, 12)
        field = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ref = np.fft.fft2(field)

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, shape, cfg)
            local = field[fft.brick_box.slices()]
            spec = fft.forward_transposed(local)
            assert spec.shape == fft.spectrum_box.shape
            assert fft.spectrum_box.shape[0] == shape[0]  # complete columns
            np.testing.assert_allclose(
                spec, ref[fft.spectrum_box.slices()],
                rtol=0, atol=1e-12 * np.abs(ref).max(),
            )
            np.testing.assert_allclose(
                fft.backward_transposed(spec), local, rtol=0, atol=1e-13
            )
            return True

        assert all(spmd(nranks, program))

    def test_backward_transposed_rejects_brick_shaped_input(self):
        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, (8, 8))
            with pytest.raises(ConfigurationError):
                fft.backward_transposed(np.zeros(fft.brick_box.shape))
            return True

        assert all(spmd(4, program))

    def test_elided_hop_returns_its_input(self):
        """Coinciding layouts move nothing: same object, no trace event."""
        trace = mpi.CommTrace()

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, (8, 8))
            hops = (fft._to_rows, fft._rows_to_cols, fft._cols_to_brick,
                    fft._brick_to_cols, fft._cols_to_rows, fft._rows_to_brick)
            elided = []
            for hop in hops:
                data = np.zeros(hop.src_box.shape, dtype=np.complex128)
                elided.append(hop.apply(data) is data)
            assert elided == [hop.identity for hop in hops]
            return elided

        # One rank: every layout is the whole array.
        assert spmd(1, program, trace=trace) == [[True] * 6]
        assert trace.message_count() == 0
        # (2, 1) grid: a brick is already a rows pencil, nothing else is.
        assert spmd(2, program) == [[True, False, False, False, False, True]] * 2
        # (2, 2) grid: every hop moves data.
        assert spmd(4, program) == [[False] * 6] * 4

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_overwrite_input_is_the_same_spectrum_in_place(self, nranks, rng):
        """A handed-over brick is transformed in place where the first
        hop is elided (one rank, a (2, 1) grid), bitwise as a copy of it
        would be; without ``overwrite_input`` it is never written."""
        shape = (16, 12)
        field = rng.normal(size=shape) + 1j * rng.normal(size=shape)

        def program(comm):
            fft = DistributedFFT2D(mpi.create_cart(comm, ndims=2), shape)
            local = field[fft.brick_box.slices()].copy()
            want = fft.forward_transposed(local)
            unwritten = np.array_equal(local, field[fft.brick_box.slices()])
            got = fft.forward_transposed(local, overwrite_input=True)
            overwritten = not np.array_equal(local, field[fft.brick_box.slices()])
            return unwritten, np.array_equal(got, want), overwritten

        for unwritten, same, overwritten in spmd(nranks, program):
            assert unwritten and same
            assert overwritten == (nranks < 4)


class TestStacks:
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"cfg{c.index}")
    @pytest.mark.parametrize("nranks", [1, 4])
    def test_stack_transforms_like_each_member_alone(self, cfg, nranks, rng):
        """A (B, …) stack of bricks: the transposed halves give each
        member bitwise what it gets alone, in the same messages."""
        fields = rng.normal(size=(3, 16, 12)) + 1j * rng.normal(size=(3, 16, 12))

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, (16, 12), cfg)
            bricks = fields[(Ellipsis, *fft.brick_box.slices())]
            spectrum = fft.forward_transposed(bricks)
            back = fft.backward_transposed(spectrum)
            alone = [fft.forward_transposed(b) for b in bricks]
            return (
                np.array_equal(spectrum, np.stack(alone))
                and np.array_equal(
                    back, np.stack([fft.backward_transposed(a) for a in alone])
                )
            )

        assert all(spmd(nranks, program))


class TestFftProperties:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), cfg_idx=st.integers(0, 7))
    def test_linearity(self, seed, cfg_idx):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        cfg = FftConfig.from_index(cfg_idx)

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, (8, 8), cfg)
            box = fft.brick_box
            fa = fft.forward(a[box.slices()])
            fb = fft.forward(b[box.slices()])
            fab = fft.forward((2.0 * a + 3.0 * b)[box.slices()])
            return np.allclose(fab, 2.0 * fa + 3.0 * fb, atol=1e-8)

        assert all(spmd(2, program))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        field = rng.normal(size=(16, 16))

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, (16, 16))
            box = fft.brick_box
            spec = fft.forward(field[box.slices()])
            local_spec = float(np.sum(np.abs(spec) ** 2))
            local_phys = float(np.sum(field[box.slices()] ** 2))
            total_spec = comm.allreduce(local_spec)
            total_phys = comm.allreduce(local_phys)
            return np.isclose(total_spec, total_phys * 16 * 16, rtol=1e-10)

        assert all(spmd(4, program))


class TestLayouts:
    @pytest.mark.parametrize(
        "layout_fn",
        [
            brick_layout,
            rows_slab_layout,
            cols_slab_layout,
            rows_pencil_layout,
            cols_pencil_layout,
        ],
    )
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (3, 2), (2, 5)])
    def test_layouts_tile_exactly(self, layout_fn, dims):
        shape = (20, 24)
        boxes = layout_fn(shape, dims)
        assert len(boxes) == dims[0] * dims[1]
        assert sum(b.size for b in boxes) == shape[0] * shape[1]
        # No overlap: pairwise intersections empty.
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                inter = boxes[i].intersect(boxes[j])
                assert inter is None or inter.empty

    def test_rows_layouts_own_complete_rows(self):
        for fn in (rows_slab_layout, rows_pencil_layout):
            for box in fn((16, 16), (2, 2)):
                assert box.mins[1] == 0 and box.maxs[1] == 16

    def test_pencil_locality(self):
        """Pencil brick→rows hops stay within the row sub-communicator."""

        bricks = brick_layout((18, 18), (3, 3))
        rows = rows_pencil_layout((18, 18), (3, 3))
        for r in range(9):
            peers = {
                d for d in range(9) if d != r and (
                    bricks[r].intersect(rows[d]) or rows[r].intersect(bricks[d])
                )
            }
            # brick→rows touches only the 2 peers sharing my block-row.
            assert len(peers) <= 2


class TestTraceStructure:
    def test_alltoall_mode_records_collectives(self):
        trace = mpi.CommTrace()
        field = np.random.default_rng(0).normal(size=(8, 8))

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, (8, 8), FftConfig(alltoall=True))
            fft.forward(field[fft.brick_box.slices()])

        spmd(4, program, trace=trace)
        assert trace.message_count(kind="alltoallv") > 0
        assert trace.message_count(kind="send") == 0

    def test_p2p_mode_records_sends(self):
        trace = mpi.CommTrace()
        field = np.random.default_rng(0).normal(size=(8, 8))

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            fft = DistributedFFT2D(cart, (8, 8), FftConfig(alltoall=False))
            fft.forward(field[fft.brick_box.slices()])

        spmd(4, program, trace=trace)
        assert trace.message_count(kind="alltoallv") == 0
        assert trace.message_count(kind="send") > 0

    def test_reorder_is_a_copy_flag(self):
        """Point to point, ``reorder`` changes how each peer's piece is
        copied, not the messages: the same sends and bytes, ``fft_pack``
        copies with it and ``fft_strided`` copies without."""
        field = np.random.default_rng(0).normal(size=(16, 16))

        def run(reorder):
            trace = mpi.CommTrace()

            def program(comm):
                cart = mpi.create_cart(comm, ndims=2)
                fft = DistributedFFT2D(
                    cart, (16, 16), FftConfig(alltoall=False, reorder=reorder)
                )
                fft.forward(field[fft.brick_box.slices()])

            spmd(4, program, trace=trace)
            sends = sorted((e.rank, e.peer, e.nbytes)
                           for e in trace.filter(kind="send"))
            copies = {(e.kernel, e.rank, e.bytes_moved)
                      for e in trace.compute_events
                      if e.kernel.startswith("fft_")}
            return sends, copies

        sends_packed, packed = run(True)
        sends_strided, strided = run(False)
        assert sends_packed == sends_strided and sends_packed
        assert {k for k, _, _ in packed} == {"fft_pack"}
        assert {k for k, _, _ in strided} == {"fft_strided"}
        assert ({(r, b) for _, r, b in packed}
                == {(r, b) for _, r, b in strided})

    def test_stage_compute_events_pinned(self):
        """The 1-D stages call ``numpy.fft`` themselves and record the
        ``fft1d`` / ``ifft1d`` events the e2e ledger reads, with the
        flops, bytes and items they recorded as backend kernels."""
        trace = mpi.CommTrace()
        data = np.random.default_rng(0).normal(size=(8, 12)) + 0j
        for axis in (0, 1):
            out = fft_along(data, axis, trace=trace, rank=1)
            assert np.array_equal(out, np.fft.fft(data, axis=axis))
            out = ifft_along(data, axis, trace=trace, rank=1)
            assert np.array_equal(out, np.fft.ifft(data, axis=axis))
        fft_along(np.ones((16, 4)), 0, trace=trace)
        assert [
            (e.kernel, e.rank, e.flops, e.bytes_moved, e.items)
            for e in trace.compute_events
        ] == [
            ("fft1d", 1, 1440.0, 3072.0, 96),
            ("ifft1d", 1, 1440.0, 3072.0, 96),
            ("fft1d", 1, 1720.782000346155, 3072.0, 96),
            ("ifft1d", 1, 1720.782000346155, 3072.0, 96),
            ("fft1d", 0, 1280.0, 2048.0, 64),
        ]


class TestConfig:
    def test_table1_numbering(self):
        assert FftConfig(False, False, False).index == 0
        assert FftConfig(False, False, True).index == 1
        assert FftConfig(False, True, False).index == 2
        assert FftConfig(True, False, False).index == 4
        assert FftConfig(True, True, True).index == 7

    def test_roundtrip(self):
        for i in range(8):
            assert FftConfig.from_index(i).index == i

    def test_bad_index(self):
        with pytest.raises(ValueError):
            FftConfig.from_index(8)
