"""Halo exchange correctness: corners, periodicity, open boundaries."""

import numpy as np
import pytest

from repro import mpi
from repro.core import SurfaceMesh
from repro.grid import NodeArray
from repro.util.errors import ConfigurationError
from tests.conftest import spmd

N = 12


def _encode(gi, gj):
    return gi * 1000.0 + gj


def _mesh(cart, n=N):
    return SurfaceMesh(cart, (0, 0), (1, 1), (n, n), cart.periods)


def _local_origin(mesh):
    """Global index of local array element (0, 0)."""
    h = mesh.halo_width
    return mesh.owned_space.mins[0] - h, mesh.owned_space.mins[1] - h


def _fill_owned(mesh, arr):
    gi0, gj0 = mesh.owned_space.mins
    ni, nj = mesh.owned_shape
    I, J = np.meshgrid(
        np.arange(gi0, gi0 + ni), np.arange(gj0, gj0 + nj), indexing="ij"
    )
    arr.own[..., 0] = _encode(I, J)


class TestPeriodicHalo:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 6, 9])
    def test_all_ghosts_correct(self, nranks):
        def program(comm):
            cart = mpi.create_cart(comm, ndims=2, periods=(True, True))
            mesh = _mesh(cart)
            f = NodeArray(mesh, 1)
            _fill_owned(mesh, f)
            mesh.halo.gather([f.full])
            li0, lj0 = _local_origin(mesh)
            full = f.full[0]
            for li in range(full.shape[0]):
                for lj in range(full.shape[1]):
                    gi = (li0 + li) % N
                    gj = (lj0 + lj) % N
                    if full[li, lj] != _encode(gi, gj):
                        return False
            return True

        assert all(spmd(nranks, program))

    def test_multiple_arrays_one_exchange(self):
        trace = mpi.CommTrace()

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2, periods=(True, True))
            mesh = _mesh(cart)
            a = NodeArray(mesh, 3)
            b = NodeArray(mesh, 2)
            _fill_owned(mesh, a)
            b.own[..., 0] = 5.0
            mesh.halo.gather([a.full, b.full])
            return np.all(b.full[0] == 5.0)

        results = spmd(4, program, trace=trace)
        assert all(results)
        # 4 packed messages per rank regardless of array count.
        assert trace.message_count(kind="send") == 4 * 4


class TestOpenBoundaryHalo:
    def test_edge_ghosts_untouched(self):
        def program(comm):
            cart = mpi.create_cart(comm, ndims=2, periods=(False, False))
            mesh = _mesh(cart)
            f = NodeArray(mesh, 1)
            f.full.fill(-99.0)
            _fill_owned(mesh, f)
            mesh.halo.gather([f.full])
            full = f.full[0]
            li0, lj0 = _local_origin(mesh)
            ok = True
            for li in range(full.shape[0]):
                for lj in range(full.shape[1]):
                    gi, gj = li0 + li, lj0 + lj
                    inside = 0 <= gi < N and 0 <= gj < N
                    if inside:
                        ok &= full[li, lj] == _encode(gi, gj)
                    else:
                        ok &= full[li, lj] == -99.0  # untouched
            return ok

        assert all(spmd(4, program))

    def test_mixed_periodicity(self):
        def program(comm):
            cart = mpi.create_cart(comm, ndims=2, periods=(True, False))
            mesh = _mesh(cart)
            f = NodeArray(mesh, 1)
            f.full.fill(-99.0)
            _fill_owned(mesh, f)
            mesh.halo.gather([f.full])
            full = f.full[0]
            li0, lj0 = _local_origin(mesh)
            for li in range(full.shape[0]):
                for lj in range(full.shape[1]):
                    gi = (li0 + li) % N
                    gj = lj0 + lj
                    if 0 <= gj < N:
                        if full[li, lj] != _encode(gi, gj):
                            return False
                    elif full[li, lj] != -99.0:
                        return False
            return True

        assert all(spmd(6, program))


class TestStacks:
    @pytest.mark.parametrize(
        "periodic", [(True, True), (False, False), (True, False)], ids=str
    )
    def test_stack_gathers_like_each_member_alone(self, periodic, rng):
        """A (B, …) stack on one rank: 4 messages, and every member's
        ghosts bitwise those of a gather of that member alone."""
        trace = mpi.CommTrace()

        def program(comm):
            cart = mpi.create_cart(comm, ndims=2, periods=periodic)
            mesh = _mesh(cart)
            halo = mesh.halo
            stack = NodeArray(mesh, 2)
            stack.full = rng.normal(size=(3,) + stack.shape)
            alone = stack.full.copy()
            halo.gather([stack.full])
            sends = trace.message_count(kind="send")
            for member in alone:
                halo.gather([member])
            return sends, np.array_equal(stack.full, alone)

        sends, equal = spmd(1, program, trace=trace)[0]
        assert equal
        assert sends == 2 * sum(periodic)      # self-sends of periodic axes

    @pytest.mark.parametrize("nranks,nbytes", [(1, 5760), (2, 8960), (4, 12800)])
    def test_one_block_message_counts_and_bytes(self, nranks, nbytes):
        """The state gather of one block (z and w in one exchange) on a
        16² periodic mesh: 4 sends per rank, bytes as before stacks."""
        from repro.core import ProblemManager, SurfaceMesh

        trace = mpi.CommTrace()

        def program(comm):
            pm = ProblemManager(
                SurfaceMesh(comm, (0, 0), (1, 1), (16, 16), (True, True))
            )
            pm.gather_state()

        spmd(nranks, program, trace=trace)
        assert trace.message_count(kind="send") == 4 * nranks
        assert trace.total_bytes(kind="send") == nbytes

    def test_node_array_rebinds_to_a_stack(self):
        def program(comm):
            mesh = _mesh(mpi.create_cart(comm, ndims=2))
            arr = NodeArray(mesh, 3)
            arr.full = np.zeros((5,) + arr.shape)
            own_shape = arr.own.shape
            with pytest.raises(ConfigurationError, match="node-array shape"):
                arr.full = np.zeros((5, N, N, 3))
            return own_shape

        assert spmd(1, program)[0] == (5, N, N, 3)


class TestHaloValidation:
    def test_wrong_shape_raises(self):
        def program(comm):
            cart = mpi.create_cart(comm, ndims=2, periods=(True, True))
            mesh = _mesh(cart)
            with pytest.raises(ConfigurationError):
                mesh.halo.gather([np.zeros((3, 3))])
            comm.Barrier()
            return True

        assert all(spmd(2, program))

    def test_mixed_dtypes_raise(self):
        def program(comm):
            cart = mpi.create_cart(comm, ndims=2, periods=(True, True))
            mesh = _mesh(cart)
            a = np.zeros(mesh.local_shape)
            b = np.zeros(mesh.local_shape, dtype=np.float32)
            with pytest.raises(ConfigurationError):
                mesh.halo.gather([a, b])
            comm.Barrier()
            return True

        assert all(spmd(2, program))

    def test_block_thinner_than_halo_raises(self):
        def program(comm):
            cart = mpi.create_cart(comm, dims=(4, 1), periods=(True, True))
            with pytest.raises(ConfigurationError, match="thinner than halo"):
                _mesh(cart, n=4)
            comm.Barrier()
            return True

        assert all(spmd(4, program))


class TestNodeArray:
    def test_views_share_memory(self):
        def program(comm):
            cart = mpi.create_cart(comm, ndims=2)
            mesh = _mesh(cart)
            arr = NodeArray(mesh, 2)
            arr.own[...] = 3.0
            h = mesh.halo_width
            return float(arr.full[0, h, h])

        assert spmd(1, program)[0] == 3.0
