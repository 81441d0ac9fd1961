"""Remap plans: validation, introspection, cross-layout data movement."""

import numpy as np
import pytest

from repro import mpi
from repro.fft import FftConfig, Remap
from repro.fft.layouts import (
    brick_layout,
    cols_slab_layout,
    rows_pencil_layout,
    rows_slab_layout,
)
from repro.util.errors import ConfigurationError
from tests.conftest import spmd

SHAPE = (12, 12)
DIMS = (2, 2)


def _remap_roundtrip(nranks, src_fn, dst_fn, cfg):
    """Move a global array src→dst layout and verify every element."""
    global_data = np.arange(SHAPE[0] * SHAPE[1], dtype=np.complex128).reshape(SHAPE)

    def program(comm):
        src = src_fn(SHAPE, DIMS)
        dst = dst_fn(SHAPE, DIMS)
        remap = Remap(comm, src, dst, cfg, tag_base=9000)
        local = np.ascontiguousarray(global_data[src[comm.rank].slices()])
        out = remap.apply(local)
        expected = global_data[dst[comm.rank].slices()]
        return np.array_equal(out, expected)

    return all(spmd(nranks, program))


class TestRemapDataMovement:
    @pytest.mark.parametrize("cfg_idx", range(8))
    def test_brick_to_rows(self, cfg_idx):
        assert _remap_roundtrip(
            4, brick_layout, rows_slab_layout, FftConfig.from_index(cfg_idx)
        )

    def test_rows_to_cols_global_transpose(self):
        assert _remap_roundtrip(4, rows_slab_layout, cols_slab_layout, FftConfig())

    def test_brick_to_pencil(self):
        assert _remap_roundtrip(4, brick_layout, rows_pencil_layout, FftConfig())

    def test_identity_remap(self):
        assert _remap_roundtrip(4, brick_layout, brick_layout, FftConfig())


class TestRemapValidation:
    def test_wrong_input_shape_raises(self):
        def program(comm):
            src = brick_layout(SHAPE, DIMS)
            dst = rows_slab_layout(SHAPE, DIMS)
            remap = Remap(comm, src, dst, FftConfig(), tag_base=9100)
            with pytest.raises(ConfigurationError):
                remap.apply(np.zeros((3, 3), dtype=np.complex128))
            comm.Barrier()
            return True

        assert all(spmd(4, program))

    def test_layout_size_mismatch_raises(self):
        def program(comm):
            src = brick_layout(SHAPE, DIMS)
            with pytest.raises(ConfigurationError):
                Remap(comm, src[:2], src, FftConfig(), tag_base=9200)
            return True

        assert spmd(4, program)[0]
