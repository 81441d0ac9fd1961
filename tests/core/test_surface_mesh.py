"""SurfaceMesh: one rank's block, resolved once from the block split."""

import numpy as np
import pytest

from repro.core import SurfaceMesh
from repro.grid import IndexSpace
from tests.conftest import spmd

SHAPE = (14, 11)


@pytest.mark.parametrize("nranks", [1, 2, 3, 4, 6, 12])
@pytest.mark.parametrize("periodic", [(True, True), (False, True)], ids=str)
def test_block_fields_agree_with_the_owned_box(nranks, periodic):
    def program(comm):
        mesh = SurfaceMesh(comm, (0.0, -1.0), (2.0, 1.0), SHAPE, periodic)
        box, h = mesh.owned_space, mesh.halo_width
        ni, nj = mesh.owned_shape
        assert box.shape == (ni, nj) and h == SurfaceMesh.HALO_WIDTH
        assert mesh.local_shape == (ni + 2 * h, nj + 2 * h)
        local = np.arange(np.prod(mesh.local_shape)).reshape(mesh.local_shape)
        assert np.array_equal(local[mesh.own_slices], local[h:-h, h:-h])
        # A face is on the global edge exactly when the box touches it.
        assert mesh.global_boundary == tuple(
            (box.mins[axis] == 0, box.maxs[axis] == SHAPE[axis])
            for axis in range(2)
        )
        X, Y = np.broadcast_arrays(*mesh.owned_coordinates())
        gx, gy = np.broadcast_arrays(
            *mesh.global_mesh.node_coordinates(IndexSpace.from_shape(SHAPE))
        )
        assert np.array_equal(X, gx[box.slices()])
        assert np.array_equal(Y, gy[box.slices()])
        assert mesh.cell_area == mesh.global_mesh.cell_area
        return box

    covered = np.zeros(SHAPE, dtype=int)
    for box in spmd(nranks, program):
        covered[box.slices()] += 1
    assert np.all(covered == 1)
