"""The migrate / ghost-exchange contract on a one-block mesh.

On one block every hop is an identity (no owner lookup, no packing, no
``exchange_arrays``), but what callers may rely on is the same as on
any mesh: fresh arrays, caller order, filled provenance, and the
row-count checks.
"""

import numpy as np
import pytest

from repro import mpi
from repro.spatial import ParticleMigrator, SpatialMesh, halo_exchange
from repro.util.errors import CommunicationError, ConfigurationError
from tests.conftest import spmd

ONE_BLOCK = SpatialMesh((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (1, 1))


def _on_one_rank(body, trace=None):
    return spmd(1, body, trace=trace)[0]


def _particles(n=25, k=2):
    rng = np.random.default_rng(3)
    # Some points lie outside the box: one block still owns them all.
    return rng.uniform(-1.5, 1.5, size=(n, 3)), rng.normal(size=(n, k))


def test_hops_make_no_owner_lookup(monkeypatch):
    """One-block ``migrate`` / ``halo_exchange`` return their identity
    without asking the mesh who owns or neighbours a point."""
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        raise AssertionError("one block: nobody to look up")

    monkeypatch.setattr(SpatialMesh, "owner_of", spy)
    monkeypatch.setattr(SpatialMesh, "halo_targets", spy)
    pos, pay = _particles()

    def body(comm):
        m = ParticleMigrator(comm, ONE_BLOCK).migrate(pos, pay)
        ghosts = halo_exchange(comm, ONE_BLOCK, m.positions, m.payload, 0.4)
        return m, ghosts

    m, ghosts = _on_one_rank(body)
    assert built == []
    assert np.array_equal(m.positions, pos) and ghosts.count == 0


def test_round_trip_is_fresh_ordered_and_silent():
    pos, pay = _particles()
    pos_before, pay_before = pos.copy(), pay.copy()
    trace = mpi.CommTrace()

    def body(comm):
        migrator = ParticleMigrator(comm, ONE_BLOCK)
        m = migrator.migrate(pos, pay)
        ghosts = halo_exchange(comm, ONE_BLOCK, m.positions, m.payload, 0.4)
        result = m.positions * 2.0
        back = migrator.migrate_back(m, result)
        return m, ghosts, result, back

    m, ghosts, result, back = _on_one_rank(body, trace)
    # Caller order, provenance filled.
    assert np.array_equal(m.positions, pos) and np.array_equal(m.payload, pay)
    assert np.array_equal(m.src_rank, np.zeros(25, dtype=np.int64))
    assert np.array_equal(m.src_index, np.arange(25))
    assert m.sent_count == m.count == 25
    assert np.array_equal(back, pos * 2.0)
    # No neighbouring block: no ghosts, shaped like an empty exchange.
    assert ghosts.count == 0 and ghosts.sent_copies == 0
    assert ghosts.positions.shape == (0, 3) and ghosts.payload.shape == (0, 2)
    # Fresh arrays: mutating what came back touches nothing that went in.
    assert not np.shares_memory(m.positions, pos)
    assert not np.shares_memory(m.payload, pay)
    assert not np.shares_memory(back, result)
    m.positions += 1.0
    m.payload += 1.0
    back += 1.0
    assert np.array_equal(pos, pos_before) and np.array_equal(pay, pay_before)
    assert np.array_equal(result, pos_before * 2.0)
    # A hop that moved nothing recorded nothing.
    assert trace.events == [] and trace.spans == []


def test_migrate_back_follows_provenance():
    """A caller that reorders its migrated particles (and their
    provenance) still gets results back in the original order."""
    pos, pay = _particles()

    def body(comm):
        migrator = ParticleMigrator(comm, ONE_BLOCK)
        m = migrator.migrate(pos, pay)
        shuffle = np.random.default_rng(9).permutation(m.count)
        m.positions, m.src_index = m.positions[shuffle], m.src_index[shuffle]
        return migrator.migrate_back(m, m.positions[:, :1])

    assert np.array_equal(_on_one_rank(body), pos[:, :1])


def test_payload_shapes_coerced_as_on_any_mesh():
    pos, _ = _particles()

    def body(comm):
        migrator = ParticleMigrator(comm, ONE_BLOCK)
        column = migrator.migrate(pos, np.arange(25.0))        # 1-D payload
        empty = migrator.migrate(pos.tolist(), np.empty((25, 0)))
        back = migrator.migrate_back(column, np.arange(25.0))  # 1-D results
        return column.payload.shape, empty.payload.shape, back.shape

    assert _on_one_rank(body) == ((25, 1), (25, 0), (25, 1))


def test_row_count_checks_still_raise():
    pos, pay = _particles()

    def body(comm):
        migrator = ParticleMigrator(comm, ONE_BLOCK)
        with pytest.raises(CommunicationError, match="payload rows"):
            migrator.migrate(pos, pay[:-1])
        m = migrator.migrate(pos, pay)
        with pytest.raises(CommunicationError, match="results rows"):
            migrator.migrate_back(m, np.zeros((24, 3)))
        # A particle dropped on the way never returns.
        m.positions, m.payload = m.positions[:-1], m.payload[:-1]
        m.src_rank, m.src_index = m.src_rank[:-1], m.src_index[:-1]
        with pytest.raises(CommunicationError, match="returned 24 of 25"):
            migrator.migrate_back(m, np.zeros((24, 3)))
        with pytest.raises(CommunicationError, match="payload rows"):
            halo_exchange(comm, ONE_BLOCK, pos, pay[:-1], 0.4)
        with pytest.raises(ConfigurationError, match="cutoff must be positive"):
            halo_exchange(comm, ONE_BLOCK, pos, pay, 0.0)
        return True

    assert _on_one_rank(body)


def test_block_count_must_match_the_communicator():
    def body(comm):
        with pytest.raises(CommunicationError, match="1 blocks for comm of size 2"):
            ParticleMigrator(comm, ONE_BLOCK)
        with pytest.raises(CommunicationError, match="1 blocks for comm of size 2"):
            halo_exchange(comm, ONE_BLOCK, np.zeros((1, 3)), np.zeros((1, 0)), 0.4)
        comm.Barrier()
        return True

    assert all(spmd(2, body))
