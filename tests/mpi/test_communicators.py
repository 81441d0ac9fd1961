"""Packed vector collectives: descriptors, buffer pool, semantics.

The contract under test (see :mod:`repro.mpi.collectives`): the packed
``Allgatherv`` / ``exchange_arrays`` return exactly
what a per-segment object exchange would — each rank's arrays, with
their dtypes and shapes, in rank order, as caller-owned copies — the
trace records the logical payloads, and the pooled send buffers are
reused in steady state without ever being released early.
"""

from collections import Counter

import numpy as np
import pytest

from repro import mpi
from repro.mpi.descriptor import (
    MessageDescriptor,
    describe,
    pack_segments,
    payload_nbytes,
    unpack_segments,
)
from repro.util.bufferpool import BufferPool
from repro.util.errors import CommunicationError
from tests.conftest import spmd


# -- descriptors -----------------------------------------------------------


class TestMessageDescriptor:
    def test_describe_host_array(self):
        d = describe(np.zeros((3, 4), dtype=np.float32))
        assert d.shape == (3, 4)
        assert np.dtype(d.dtype) == np.float32
        assert d.size == 12 and d.nbytes == 48 and d.itemsize == 4
        assert d == MessageDescriptor(shape=(3, 4), dtype=np.dtype(np.float32).str)

    def test_describe_strided_view(self):
        base = np.zeros((8, 8))
        d = describe(base[:, :3])
        assert d.shape == (8, 3)
        assert d.nbytes == 8 * 3 * 8

    def test_payload_nbytes_array_vs_object(self):
        arr = np.zeros(100)
        assert payload_nbytes(arr) == arr.nbytes
        # Opaque objects fall back to pickled size; unpicklables to 0.
        assert payload_nbytes({"a": 1}) > 0
        assert payload_nbytes(lambda: None) == 0

    def test_pack_unpack_round_trip(self):
        segs = [
            np.arange(5.0),
            None,
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.empty(0),
            np.linspace(0, 1, 7)[::2],  # strided
        ]
        buf, descs, offsets = pack_segments(segs)
        out = unpack_segments(buf, descs, offsets)
        assert out[1] is None
        np.testing.assert_array_equal(out[0], segs[0])
        np.testing.assert_array_equal(out[2], segs[2])
        assert out[2].dtype == np.int32 and out[2].shape == (2, 3)
        assert out[3].size == 0 and out[3].dtype == np.float64
        np.testing.assert_array_equal(out[4], segs[4])

    def test_pack_unaligned_and_fortran_segments(self):
        """A 3-byte segment leaves the next float64 span unaligned: it is
        staged through a contiguous temporary and still round-trips, as
        does a Fortran-ordered 2-D segment."""
        fortran = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        segs = [
            np.array([1, 2, 3], dtype=np.uint8),
            np.linspace(0, 1, 9)[::4],  # strided, at byte offset 3
            fortran,
            np.array([7], dtype=np.int16),
        ]
        buf, descs, offsets = pack_segments(segs)
        assert offsets == [0, 3, 27, 123]
        assert buf.size == 125
        out = unpack_segments(buf, descs, offsets)
        for got, want in zip(out, segs):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_pack_into_lease_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            pack_segments([np.arange(100.0)], out=np.empty(8, dtype=np.uint8))


# -- buffer pool -----------------------------------------------------------


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool()
        a = pool.acquire(1000)
        assert a.size == 1024  # power-of-two bucket
        assert (pool.hits, pool.misses) == (0, 1)
        pool.release(a)
        b = pool.acquire(900)  # same bucket
        assert b is a
        assert (pool.hits, pool.misses) == (1, 1)

    def test_release_accepts_typed_views(self):
        pool = BufferPool()
        lease = pool.acquire(80)
        view = lease[:80].view(np.float64).reshape(2, 5)
        pool.release(view)
        assert pool.acquire(80) is lease

    def test_max_resident_drops_excess(self):
        pool = BufferPool(max_resident=1024)
        a, b = pool.acquire(1024), pool.acquire(1024)
        pool.release(a)
        pool.release(b)  # over the soft cap: dropped, not cached
        assert pool.acquire(1024) is a
        assert pool.acquire(1024) is not b
        assert (pool.hits, pool.misses) == (1, 3)

    def test_clear(self):
        pool = BufferPool()
        pool.release(pool.acquire(256))
        pool.clear()
        assert pool.acquire(256).size == 256  # miss again
        assert pool.misses == 2


# -- semantics ---------------------------------------------------------------


def _inputs(rank, size):
    """What ``rank`` contributes to the workload: strided, 2-D, ragged,
    empty, ``None`` and mixed-dtype payloads."""
    rng = np.random.default_rng(100 + rank)
    ag_flat = rng.standard_normal(3 + rank)
    ag_strided = rng.standard_normal(12)[::3]
    ag_2d = np.arange(6, dtype=np.float32).reshape(2, 3) + rank
    counts = [(rank + dst) % 3 for dst in range(size)]
    flat = rng.standard_normal(sum(counts))
    xchg = []
    for d in range(size):
        if d == rank:
            xchg.append(None)
        elif (d + rank) % 3 == 0:
            xchg.append(np.empty(0))
        else:
            # Sizes follow the destination, so what a rank sends and
            # what it receives differ.
            xchg.append(np.arange(2 + d, dtype=np.int64) * (d + 1) + rank)
    return {"ag_flat": ag_flat, "ag_strided": ag_strided, "ag_2d": ag_2d,
            "counts": counts, "flat": flat, "xchg": xchg}


def _collective_workload(comm):
    """A mixed-shape, mixed-dtype tour of the two vector collectives."""
    mine = _inputs(comm.rank, comm.size)
    edges = np.cumsum(mine["counts"])[:-1]
    return {
        "ag_flat": comm.Allgatherv(mine["ag_flat"]),
        "ag_strided": comm.Allgatherv(mine["ag_strided"]),
        "ag_2d": comm.Allgatherv(mine["ag_2d"]),
        "xchg_flat": comm.exchange_arrays(np.split(mine["flat"], edges)),
        "xchg": comm.exchange_arrays(mine["xchg"]),
    }


def _object_semantics(rank, size):
    """What a per-segment object exchange delivers to ``rank``: every
    source's own array (copied), in source order."""
    sent = [_inputs(src, size) for src in range(size)]
    xchg_flat = []
    for src in sent:
        edges = np.concatenate(([0], np.cumsum(src["counts"])))
        xchg_flat.append(src["flat"][edges[rank]:edges[rank + 1]].copy())
    return {
        "ag_flat": [np.ascontiguousarray(s["ag_flat"]) for s in sent],
        "ag_strided": [np.ascontiguousarray(s["ag_strided"]) for s in sent],
        "ag_2d": [s["ag_2d"].copy() for s in sent],
        "xchg_flat": xchg_flat,
        "xchg": [
            np.empty(0, dtype=np.float64) if s["xchg"][rank] is None
            else s["xchg"][rank].copy()
            for s in sent
        ],
    }


def _assert_object_semantics(got, rank, size):
    """``got`` is exactly what :func:`_object_semantics` delivers."""
    expected = _object_semantics(rank, size)
    assert got.keys() == expected.keys()
    for key, want in expected.items():
        have = got[key]
        assert len(have) == len(want), (rank, key)
        for a, b in zip(have, want):
            assert a.dtype == b.dtype, (rank, key)
            assert a.shape == b.shape, (rank, key)
            assert np.array_equal(a, b), (rank, key)


@pytest.mark.parametrize("nranks", [1, 2, 3, 4])
class TestCollectiveSemantics:
    def test_matches_per_segment_object_exchange(self, nranks):
        results = spmd(nranks, _collective_workload)
        for rank, got in enumerate(results):
            _assert_object_semantics(got, rank, nranks)

    def test_every_round_stays_intact_under_lease_reuse(self, nranks):
        """Results of earlier rounds are never overwritten once the pool
        starts handing their send buffers out again."""
        rounds = 5

        def program(comm):
            history = [_collective_workload(comm) for _ in range(rounds)]
            return history, comm._pool.hits

        for rank, (history, hits) in enumerate(spmd(nranks, program)):
            assert hits > 0  # the leases really were reused
            for got in history:
                _assert_object_semantics(got, rank, nranks)

    def test_dup_and_cart_communicators_keep_private_pools(self, nranks):
        """Every communicator leases from its own pool, and the trace's
        pool counters are the sum over all of them."""
        trace = mpi.CommTrace()

        def program(comm):
            comms = [comm, comm.Dup(), mpi.create_cart(comm, ndims=1)]
            for _ in range(3):
                for c in comms:
                    _assert_object_semantics(
                        _collective_workload(c), c.rank, c.size
                    )
            pools = [c._pool for c in comms]
            assert len({id(p) for p in pools}) == len(comms)
            return sum(p.hits for p in pools), sum(p.misses for p in pools)

        stats = spmd(nranks, program, trace=trace)
        snap = trace.metrics.snapshot()
        assert snap["bufferpool.hits"] == sum(h for h, _ in stats)
        assert snap["bufferpool.misses"] == sum(m for _, m in stats)

    def test_trace_records_logical_payloads(self, nranks):
        trace = mpi.CommTrace()
        spmd(nranks, _collective_workload, trace=trace)
        expected_kinds, expected_bytes, expected_counts = Counter(), Counter(), []
        for rank in range(nranks):
            mine = _inputs(rank, nranks)
            for key in ("ag_flat", "ag_strided", "ag_2d"):
                expected_kinds["allgather"] += 1
                expected_bytes["allgather"] += mine[key].nbytes
            xchg = [0 if a is None else a.nbytes for a in mine["xchg"]]
            expected_kinds["alltoallv"] += 2
            expected_bytes["alltoallv"] += mine["flat"].nbytes + sum(xchg)
            expected_counts.append(
                (rank, tuple(8 * c for c in mine["counts"]))
            )
            expected_counts.append((rank, tuple(xchg)))
        events = trace.events
        assert Counter(e.kind for e in events) == expected_kinds
        got_bytes = Counter()
        for e in events:
            got_bytes[e.kind] += e.nbytes
        assert got_bytes == expected_bytes
        got_counts = [(e.rank, e.counts) for e in events if e.kind == "alltoallv"]
        assert sorted(got_counts) == sorted(expected_counts)

    def test_results_are_caller_owned(self, nranks):
        def program(comm):
            first = comm.Allgatherv(np.full(4, float(comm.rank)))
            for arr in first:
                arr += 1000.0  # must not leak into anyone else's view
            second = comm.Allgatherv(np.full(4, float(comm.rank)))
            return [a.copy() for a in second]

        for results in spmd(nranks, program):
            for rank, arr in enumerate(results):
                np.testing.assert_array_equal(arr, np.full(4, float(rank)))


class TestPackedPool:
    def test_steady_state_hits_and_deferred_release(self):
        rounds = 6

        def program(comm):
            local = np.arange(64.0) + comm.rank
            for _ in range(rounds):
                comm.Allgatherv(local)
            # In-flight leases are bounded by the two-round release lag.
            assert len(comm._pending) <= 2
            return {"hits": comm._pool.hits, "misses": comm._pool.misses}

        trace = mpi.CommTrace()
        stats = spmd(2, program, trace=trace)
        for s in stats:
            # First two rounds miss; everything after reuses the lease.
            assert s["misses"] <= 2
            assert s["hits"] >= rounds - 2
        snap = trace.metrics.snapshot()
        assert snap["bufferpool.hits"] == sum(s["hits"] for s in stats)
        assert snap["comm.packed_bytes"] == 2 * rounds * 64 * 8

    def test_packed_bytes_counter_counts_payload(self):
        trace = mpi.CommTrace()

        def program(comm):
            comm.exchange_arrays(
                [None if d == comm.rank else np.arange(8.0)
                 for d in range(comm.size)]
            )
            return True

        spmd(2, program, trace=trace)
        assert trace.metrics.snapshot()["comm.packed_bytes"] == 2 * 8 * 8


# -- safety checks -----------------------------------------------------------


#: Calls every rank of a 2-rank communicator rejects before the
#: rendezvous, with the message that names the fault.
REJECTED = {
    "exchange-arrays-length": (
        lambda c: c.exchange_arrays([np.arange(2.0)]), "needs 2 entries"),
    "exchange-arrays-too-many": (
        lambda c: c.exchange_arrays([np.arange(2.0)] * 3), "needs 2 entries"),
    "root-out-of-range": (
        lambda c: c.gather("x", root=2), "root 2 out of range"),
    "root-negative": (
        lambda c: c.gather("x", root=-1), "root -1 out of range"),
}


class TestCollectiveChecks:
    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_bad_call_is_rejected_and_comm_stays_usable(self, case):
        call, message = REJECTED[case]

        def program(comm):
            with pytest.raises(CommunicationError, match=message):
                call(comm)
            # The rejected call leaves the communicator in step: the
            # next packed round delivers exactly what it should.
            got = _collective_workload(comm)
            _assert_object_semantics(got, comm.rank, comm.size)
            return True

        assert spmd(2, program) == [True, True]

    @pytest.mark.parametrize(
        "first, second",
        [
            ("Allgatherv", "exchange_arrays"),
            ("Allgatherv", "allgather"),
            ("exchange_arrays", "Barrier"),
            ("allreduce", "gather"),
            ("allreduce", "allgather"),
            ("Dup", "Barrier"),
        ],
    )
    def test_divergent_collectives_fail_loudly(self, first, second):
        """Ranks entering different collectives on the same call — even
        the vector and object gathers, which record the same trace kind
        — raise instead of mixing payloads."""
        calls = {
            "Allgatherv": lambda c: c.Allgatherv(np.arange(4.0)),
            "allgather": lambda c: c.allgather(np.arange(4.0)),
            "Barrier": lambda c: c.Barrier(),
            "Dup": lambda c: c.Dup(),
            "allreduce": lambda c: c.allreduce(1),
            "gather": lambda c: c.gather(1),
            "exchange_arrays": lambda c: c.exchange_arrays(
                [np.arange(1.0), np.arange(1.0)]
            ),
        }

        def program(comm):
            calls[first if comm.rank == 0 else second](comm)

        with pytest.raises(CommunicationError, match="collective mismatch"):
            spmd(2, program, timeout=10.0)
