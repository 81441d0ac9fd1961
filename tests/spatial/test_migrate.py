"""Spatial mesh ownership, the row router, migration round-trips,
cutoff halos."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpi
from repro.spatial import (
    ParticleMigrator,
    SpatialMesh,
    halo_exchange,
    route_rows,
)
from repro.util.errors import CommunicationError, ConfigurationError
from tests.conftest import spmd

MESH = SpatialMesh((-3, -3, -3), (3, 3, 3), (2, 2))


class TestSpatialMesh:
    def test_owner_row_major(self):
        mesh = SpatialMesh((0, 0, 0), (4, 4, 1), (2, 2))
        owners = mesh.owner_of(
            np.array([[0.5, 0.5, 0], [0.5, 3.5, 0], [3.5, 0.5, 0], [3.5, 3.5, 0]])
        )
        assert list(owners) == [0, 1, 2, 3]

    def test_outside_clamped(self):
        owners = MESH.owner_of(np.array([[-100, -100, 0], [100, 100, 0]]))
        assert list(owners) == [0, 3]

    def test_halo_targets_boundary_point(self):
        mesh = SpatialMesh((0, 0, 0), (4, 4, 1), (2, 2))
        # Point near the center corner is within cutoff of all 4 blocks.
        idx, dest = mesh.halo_targets(np.array([[1.9, 1.9, 0.0]]), 0.5)
        assert set(dest) == {1, 2, 3}

    def test_halo_targets_interior_point_none(self):
        mesh = SpatialMesh((0, 0, 0), (4, 4, 1), (2, 2))
        idx, dest = mesh.halo_targets(np.array([[0.5, 0.5, 0.0]]), 0.2)
        assert len(idx) == 0

    def test_halo_targets_large_cutoff_reaches_all(self):
        mesh = SpatialMesh((0, 0, 0), (4, 4, 1), (2, 2))
        idx, dest = mesh.halo_targets(np.array([[0.5, 0.5, 0.0]]), 10.0)
        assert set(dest) == {1, 2, 3}

    def test_degenerate_raises(self):
        with pytest.raises(ConfigurationError):
            SpatialMesh((0, 0, 0), (0, 1, 1), (1, 1))


class TestMigration:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_roundtrip_exact_order(self, seed):
        def program(comm):
            rng = np.random.default_rng(seed + comm.rank)
            n = int(rng.integers(0, 80))
            pos = rng.uniform(-3.2, 3.2, size=(n, 3))
            pay = rng.normal(size=(n, 2))
            mig = ParticleMigrator(comm, MESH)
            m = mig.migrate(pos, pay)
            assert np.all(MESH.owner_of(m.positions) == comm.rank) or m.count == 0
            result = m.payload[:, :1] * 2.0 + m.positions[:, :1]
            back = mig.migrate_back(m, result)
            expected = pay[:, :1] * 2.0 + pos[:, :1]
            return np.allclose(back, expected)

        assert all(spmd(4, program))

    def test_global_multiset_preserved(self):
        def program(comm):
            rng = np.random.default_rng(50 + comm.rank)
            pos = rng.uniform(-3, 3, size=(40, 3))
            mig = ParticleMigrator(comm, MESH)
            m = mig.migrate(pos, np.empty((40, 0)))
            local = comm.allgather(m.positions)
            sent = comm.allgather(pos)
            return local, sent

        results = spmd(4, program)
        received = np.concatenate([p for p in results[0][0]])
        sent = np.concatenate([p for p in results[0][1]])
        assert received.shape == sent.shape
        order_a = np.lexsort(received.T)
        order_b = np.lexsort(sent.T)
        assert np.allclose(received[order_a], sent[order_b])

    def test_payload_row_mismatch_raises(self):
        def program(comm):
            mig = ParticleMigrator(comm, MESH)
            with pytest.raises(CommunicationError):
                mig.migrate(np.zeros((3, 3)), np.zeros((2, 1)))
            comm.Barrier()
            return True

        assert all(spmd(4, program))

    def test_mesh_comm_size_mismatch_raises(self):
        def program(comm):
            with pytest.raises(CommunicationError):
                ParticleMigrator(comm, MESH)  # 4 blocks, 2 ranks
            comm.Barrier()
            return True

        assert all(spmd(2, program))

    def test_empty_ranks_ok(self):
        def program(comm):
            mig = ParticleMigrator(comm, MESH)
            # All particles from rank 0 only; others contribute none.
            if comm.rank == 0:
                pos = np.array([[-2.0, -2.0, 0.0], [2.0, 2.0, 0.0]])
            else:
                pos = np.empty((0, 3))
            m = mig.migrate(pos, np.empty((pos.shape[0], 0)))
            back = mig.migrate_back(m, np.full((m.count, 1), float(comm.rank)))
            return m.count, back.shape

        results = spmd(4, program)
        assert sum(c for c, _ in results) == 2
        assert results[0][1] == (2, 1)
        assert results[0][1][0] == 2


@pytest.mark.parametrize("nranks", [1, 2, 4])
class TestRouteRows:
    """The one router under migrate, migrate-back and the spatial halo."""

    def test_source_order_stable_within_a_source(self, nranks):
        def program(comm):
            rng = np.random.default_rng(11 + comm.rank)
            n = 40 + 3 * comm.rank
            dest = rng.integers(0, comm.size, size=n)
            # Each row names its source, its index there and its target.
            rows = np.column_stack(
                [np.full(n, comm.rank), np.arange(n), dest]
            ).astype(np.float64)
            return rows, route_rows(comm, rows, dest)

        results = spmd(nranks, program)
        for rank, (_, got) in enumerate(results):
            expected = np.concatenate(
                [rows[rows[:, 2] == rank] for rows, _ in results]
            )
            assert got.shape == expected.shape and got.dtype == np.float64
            assert np.array_equal(got, expected)

    def test_empty_sends_and_a_rank_that_receives_nothing(self, nranks):
        """Rank 0 sends no row, and every row goes to the last rank."""

        def program(comm):
            n = 0 if comm.rank == 0 else comm.rank + 1
            rows = np.arange(2.0 * n).reshape(n, 2) + 100.0 * comm.rank
            return rows, route_rows(comm, rows, np.full(n, comm.size - 1))

        results = spmd(nranks, program)
        everything = np.concatenate([rows for rows, _ in results])
        for rank, (_, got) in enumerate(results):
            want = everything if rank == nranks - 1 else np.empty((0, 2))
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_zero_rows_overall(self, nranks):
        def program(comm):
            none = np.empty(0, dtype=np.int64)
            return (route_rows(comm, np.empty((0, 4)), none),
                    route_rows(comm, np.empty((0, 3), dtype=np.int32), none))

        for floats, ints in spmd(nranks, program):
            assert floats.shape == (0, 4) and floats.dtype == np.float64
            assert ints.shape == (0, 3) and ints.dtype == np.int32

    def test_result_is_fresh(self, nranks):
        """The result shares no memory with the input or any rank's
        pooled send buffer, and later rounds that reuse those buffers
        leave it intact."""

        def program(comm):
            rows = np.arange(12.0).reshape(6, 2) + 100.0 * comm.rank
            # Everything from one peer: the only receipt is borrowed.
            dest = np.full(6, (comm.rank + 1) % comm.size)
            got = route_rows(comm, rows, dest)
            leases = [lease for _, lease in comm._pending]
            kept = got.copy()
            for _ in range(3):  # the pool hands the same buffers out again
                route_rows(comm, rows * -1.0, dest)
            return rows, got, kept, leases

        results = spmd(nranks, program)
        every_lease = [lease for *_, leases in results for lease in leases]
        assert every_lease
        for rows, got, kept, _ in results:
            assert not np.shares_memory(got, rows)
            assert not any(np.shares_memory(got, lease) for lease in every_lease)
            assert np.array_equal(got, kept)


def test_route_rows_survives_back_to_back_rounds():
    """Six rank threads on two cores, a 1 µs switch interval and fresh
    rows every round: a receiver copies each peer's rows out of that
    peer's pooled send buffer after the exchange has returned, so a
    buffer reused one round too early would corrupt a row."""
    rounds = 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def rows_of(rank, step, size):
            rng = np.random.default_rng((rank, step))
            n = int(rng.integers(0, 30))
            dest = rng.integers(0, size, size=n)
            return np.column_stack(
                [np.full(n, rank), np.arange(n), dest, rng.normal(size=n)]
            ), dest

        def program(comm):
            for step in range(rounds):
                # Every rank's rows are known here without a collective,
                # which would hold the senders back until this rank had
                # copied out.
                sent = [rows_of(src, step, comm.size)[0] for src in range(comm.size)]
                expected = np.concatenate([r[r[:, 2] == comm.rank] for r in sent])
                got = route_rows(comm, *rows_of(comm.rank, step, comm.size))
                np.testing.assert_array_equal(got, expected)
            return True

        assert all(spmd(6, program, timeout=60.0))
    finally:
        sys.setswitchinterval(interval)


class TestCutoffHalo:
    @pytest.mark.parametrize("cutoff", [0.4, 1.1, 2.5])
    def test_completeness(self, cutoff):
        """Every pair within the cutoff must be locally visible."""

        def program(comm):
            rng = np.random.default_rng(7 + comm.rank)
            pos = rng.uniform(-3, 3, size=(45, 3))
            mig = ParticleMigrator(comm, MESH)
            m = mig.migrate(pos, np.empty((45, 0)))
            ghosts = halo_exchange(comm, MESH, m.positions, m.payload, cutoff)
            everyone = np.concatenate(comm.allgather(m.positions))
            local = np.concatenate([m.positions, ghosts.positions])
            for i in range(m.count):
                d = np.linalg.norm(everyone - m.positions[i], axis=1)
                needed = everyone[d <= cutoff]
                for p in needed:
                    if not np.any(np.all(np.isclose(local, p, atol=1e-12), axis=1)):
                        return False
            return True

        assert all(spmd(4, program))

    def test_payload_travels_with_ghosts(self):
        def program(comm):
            mig = ParticleMigrator(comm, MESH)
            # One particle per rank near the global center corner.
            offsets = {0: (-0.1, -0.1), 1: (-0.1, 0.1), 2: (0.1, -0.1), 3: (0.1, 0.1)}
            dx, dy = offsets[comm.rank]
            pos = np.array([[dx, dy, 0.0]])
            pay = np.array([[float(comm.rank) + 10.0]])
            m = mig.migrate(pos, pay)
            ghosts = halo_exchange(comm, MESH, m.positions, m.payload, 0.5)
            return sorted(ghosts.payload[:, 0].tolist())

        results = spmd(4, program)
        for rank, ghost_payloads in enumerate(results):
            assert ghost_payloads == sorted(
                 [10.0 + r for r in range(4) if r != rank]
            )

    def test_no_ghosts_for_tiny_cutoff_interior(self):
        def program(comm):
            mig = ParticleMigrator(comm, MESH)
            # Center of my own block: far from every boundary.
            bx, by = divmod(comm.rank, MESH.dims[1])
            wx, wy = MESH.block_widths()
            pos = np.array([[MESH.low[0] + (bx + 0.5) * wx,
                             MESH.low[1] + (by + 0.5) * wy, 0.0]])
            m = mig.migrate(pos, np.empty((1, 0)))
            ghosts = halo_exchange(comm, MESH, m.positions, m.payload, 0.05)
            return ghosts.count == 0 and ghosts.sent_copies == 0

        assert all(spmd(4, program))


@pytest.mark.parametrize("dims", [(2, 1), (2, 2)])
def test_halo_targets_of_migrated_points_need_no_owner_lookup(dims):
    """``halo_exchange`` tells ``halo_targets`` that this rank owns its
    migrated points; the (point, dest) lists must be the ones a lookup
    per point gives — points migrated in from outside the domain (owned
    by the nearest edge block) included."""
    mesh = SpatialMesh((-3, -3, -3), (3, 3, 3), dims)

    def program(comm):
        rng = np.random.default_rng(11 + comm.rank)
        pos = rng.uniform(-4.5, 4.5, size=(200, 3))    # a third outside
        m = ParticleMigrator(comm, mesh).migrate(pos, np.empty((200, 0)))
        assert np.all(mesh.owner_of(m.positions) == comm.rank)
        same = []
        for cutoff in (0.3, 1.7, 7.0):
            told = mesh.halo_targets(m.positions, cutoff, comm.rank)
            looked_up = mesh.halo_targets(m.positions, cutoff)
            same.append(all(np.array_equal(a, b)
                            for a, b in zip(told, looked_up)))
        outside = np.any(np.abs(m.positions[:, :2]) > 3, axis=1).sum()
        return all(same), int(outside)

    results = spmd(dims[0] * dims[1], program)
    assert all(ok for ok, _ in results)
    assert sum(outside for _, outside in results) > 0


def test_halo_exchange_makes_no_owner_lookup(monkeypatch):
    """Migration routed every point by its owner; the halo that follows
    it does not look the owners up again."""
    callers = []
    real = SpatialMesh.owner_of

    def spy(self, positions):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(self, positions)

    monkeypatch.setattr(SpatialMesh, "owner_of", spy)

    def program(comm):
        rng = np.random.default_rng(5 + comm.rank)
        pos = rng.uniform(-3, 3, size=(60, 3))
        m = ParticleMigrator(comm, MESH).migrate(pos, np.empty((60, 0)))
        return halo_exchange(comm, MESH, m.positions, m.payload, 0.8).count

    assert sum(spmd(4, program)) > 0
    assert "migrate" in callers and "halo_targets" not in callers
