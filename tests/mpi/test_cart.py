"""Cartesian communicators: coords, neighbours, open boundaries."""

import numpy as np
import pytest

from repro import mpi
from repro.mpi.world import PROC_NULL
from repro.util.errors import ConfigurationError
from repro.util.misc import dims_create
from tests.conftest import spmd


class TestDimsCreate:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1, 1)), (2, (2, 1)), (4, (2, 2)), (6, (3, 2)), (12, (4, 3)),
         (36, (6, 6)), (64, (8, 8)), (1024, (32, 32)), (7, (7, 1))],
    )
    def test_2d(self, n, expected):
        assert dims_create(n, 2) == expected

    def test_3d_product(self):
        for n in (8, 12, 30, 64):
            dims = dims_create(n, 3)
            assert dims[0] * dims[1] * dims[2] == n

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            dims_create(0, 2)


class TestCartTopology:
    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 3), (3, 2), (2, 4)])
    def test_coords_roundtrip(self, dims):
        def program(comm):
            cart = mpi.create_cart(comm, dims=dims, periods=(True, False))
            coords = cart.coords
            assert cart.rank_of(coords) == cart.rank
            assert cart.coords_of(cart.rank) == coords
            return coords

        results = spmd(dims[0] * dims[1], program)
        assert sorted(results) == [
            (i, j) for i in range(dims[0]) for j in range(dims[1])
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_neighbor_periodic_wraps(self, n):
        def program(comm):
            cart = mpi.create_cart(comm, dims=(n, 1), periods=(True, True))
            return cart.neighbor((-1, 0)), cart.neighbor((1, 0))

        results = spmd(n, program)
        for r, (src, dst) in enumerate(results):
            assert src == (r - 1) % n
            assert dst == (r + 1) % n

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_neighbor_open_boundary_proc_null(self, n):
        """Past an open boundary ``neighbor`` is PROC_NULL, and a halo
        Sendrecv with it sends nothing and leaves the ghost untouched."""

        def program(comm):
            cart = mpi.create_cart(comm, dims=(n, 1), periods=(False, False))
            lo, hi = cart.neighbor((-1, 0)), cart.neighbor((1, 0))
            ghost = np.full(1, -1.0)
            cart.Sendrecv(np.array([float(cart.rank)]), hi, 3, ghost, lo, 3)
            return lo, hi, float(ghost[0])

        results = spmd(n, program)
        assert results[0] == (PROC_NULL, 1, -1.0)
        assert results[n - 1][1] == PROC_NULL
        for r in range(1, n):
            lo, hi, ghost = results[r]
            assert lo == r - 1 and ghost == float(r - 1)
            if r < n - 1:
                assert hi == r + 1

    def test_neighbor_diagonal(self):
        def program(comm):
            cart = mpi.create_cart(comm, dims=(2, 2), periods=(True, True))
            return cart.neighbor((1, 1))

        results = spmd(4, program)
        # (0,0) -> (1,1) which is rank 3; etc.
        assert results[0] == 3
        assert results[3] == 0

    def test_dims_mismatch_raises(self):
        def program(comm):
            with pytest.raises(ConfigurationError):
                mpi.create_cart(comm, dims=(3, 3))
            comm.Barrier()
            return True

        assert all(spmd(4, program))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_communication_through_cart(self, n):
        """Neighbour ring over the Cartesian communicator."""

        def program(comm):
            cart = mpi.create_cart(comm, dims=(comm.size, 1), periods=(True, True))
            src, dst = cart.neighbor((-1, 0)), cart.neighbor((1, 0))
            got = cart.Sendrecv(np.array([float(cart.rank)]), dst, 1, None, src, 1)
            return float(got[0])

        results = spmd(n, program)
        assert results == [float((r - 1) % n) for r in range(n)]
