"""Collective operations: correctness, determinism, properties."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.ops import MAX, SUM
from repro.mpi.trace import CommTrace
from tests.conftest import spmd

SIZES = [1, 2, 3, 4, 7]


@pytest.mark.parametrize("nranks", SIZES)
class TestBasicCollectives:
    def test_barrier(self, nranks):
        def program(comm):
            for _ in range(3):
                comm.Barrier()
            return True

        assert all(spmd(nranks, program))

    def test_barrier_waits_for_every_rank(self, nranks):
        """No rank leaves a barrier before every rank has entered it."""
        arrived = []
        lock = threading.Lock()

        def program(comm):
            with lock:
                arrived.append(comm.rank)
            comm.barrier()
            with lock:
                return len(arrived)

        assert spmd(nranks, program) == [nranks] * nranks

    def test_allreduce_sum(self, nranks):
        def program(comm):
            return comm.allreduce(comm.rank + 1)

        expected = sum(range(1, nranks + 1))
        assert spmd(nranks, program) == [expected] * nranks

    def test_allreduce_array_ops(self, nranks):
        def program(comm):
            local = np.array([float(comm.rank), float(-comm.rank)])
            return comm.allreduce(local, op=SUM), comm.allreduce(local, op=MAX)

        total = sum(range(nranks))
        for s, mx in spmd(nranks, program):
            assert np.array_equal(s, [total, -total])
            assert np.array_equal(mx, [nranks - 1, 0])

    def test_gather_and_allgather(self, nranks):
        def program(comm):
            g = comm.gather(comm.rank * 10, root=0)
            ag = comm.allgather(comm.rank)
            return g, ag

        results = spmd(nranks, program)
        assert results[0][0] == [r * 10 for r in range(nranks)]
        assert all(g is None for g, _ in results[1:])
        for _, ag in results:
            assert ag == list(range(nranks))

    def test_gather_nonzero_root(self, nranks):
        root = nranks - 1

        def program(comm):
            return comm.gather({"v": comm.rank}, root=root)

        results = spmd(nranks, program)
        assert results[root] == [{"v": r} for r in range(nranks)]
        assert all(out is None for r, out in enumerate(results) if r != root)

    def test_object_collectives_return_private_lists(self, nranks):
        """Every rank gets its own list: appending to one rank's result
        is invisible to the others."""

        def program(comm):
            everyone = comm.allgather(comm.rank)
            gathered = comm.gather(comm.rank, root=0)
            everyone.append(-comm.rank)
            if gathered is not None:
                gathered.append(-1)
            comm.Barrier()
            return everyone, gathered

        for rank, (everyone, gathered) in enumerate(spmd(nranks, program)):
            assert everyone == list(range(nranks)) + [-rank]
            if rank == 0:
                assert gathered == list(range(nranks)) + [-1]

    def test_allgatherv_variable_sizes(self, nranks):
        def program(comm):
            local = np.full(comm.rank + 1, float(comm.rank))
            return comm.Allgatherv(local)

        for parts in spmd(nranks, program):
            for r, arr in enumerate(parts):
                assert arr.size == r + 1 and np.all(arr == r)

    def test_allgatherv_into_sees_every_block_in_source_order(self, nranks):
        """``Allgatherv(into=)`` hands each rank's block, this rank's
        own included and empty ones too, to the sink in source order,
        records the same event as the returning form, and returns
        nothing."""

        def program(comm):
            local = np.full((comm.rank % 3, 2), float(comm.rank))
            seen = []
            assert comm.Allgatherv(
                local, into=lambda src, view: seen.append((src, view.tolist()))
            ) is None
            comm.Allgatherv(local)
            return seen

        trace = CommTrace()
        for rank, seen in enumerate(spmd(nranks, program, trace=trace)):
            assert seen == [(src, [[float(src)] * 2] * (src % 3))
                            for src in range(nranks)]
        events = trace.filter(kind="allgather")
        assert len(events) == 2 * nranks
        for rank in range(nranks):
            first, second = [e.nbytes for e in events if e.rank == rank]
            assert first == second == 16 * (rank % 3)

    def test_exchange_results_are_caller_owned(self, nranks):
        """Mutating a receipt, the own one included, leaks into neither
        a peer's receipt, nor what was sent, nor the next round."""

        def program(comm):
            send = [np.full(4, 10.0 * comm.rank + d) for d in range(comm.size)]
            first = comm.exchange_arrays(send)
            for arr in first:
                arr += 1000.0
            second = comm.exchange_arrays(send)
            comm.Barrier()
            return send, [a.copy() for a in first], [a.copy() for a in second]

        for rank, (send, first, second) in enumerate(spmd(nranks, program)):
            for dest, arr in enumerate(send):
                np.testing.assert_array_equal(arr, np.full(4, 10.0 * rank + dest))
            for src in range(nranks):
                sent = np.full(4, 10.0 * src + rank)
                np.testing.assert_array_equal(first[src], sent + 1000.0)
                np.testing.assert_array_equal(second[src], sent)


class TestAlltoallv:
    def test_exchange_arrays_shapes(self):
        def program(comm):
            per_dest = [
                np.full((comm.rank + 1, 2), float(d)) if d != comm.rank else None
                for d in range(comm.size)
            ]
            got = comm.exchange_arrays(per_dest)
            for src, arr in enumerate(got):
                if src == comm.rank:
                    assert arr.size == 0
                else:
                    assert arr.shape == (src + 1, 2)
                    assert np.all(arr == comm.rank)
            return True

        assert all(spmd(4, program))

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_into_sees_every_array_receipt_in_source_order(self, nranks):
        """``into`` gets each receipt sent as an array, empty ones too,
        in source order; a ``None`` entry is never delivered."""

        def program(comm):
            send = [
                None if (comm.rank + d) % 3 == 2
                else np.full((d + comm.rank) % 2, float(comm.rank))
                for d in range(comm.size)
            ]
            seen = []
            assert comm.exchange_arrays(
                send, into=lambda src, view: seen.append((src, view.tolist()))
            ) is None
            return seen

        for rank, seen in enumerate(spmd(nranks, program)):
            assert seen == [
                (src, [float(src)] * ((rank + src) % 2))
                for src in range(nranks) if (src + rank) % 3 != 2
            ]

    @pytest.mark.parametrize("nranks", [2, 3, 5])
    def test_roundtrip_identity(self, nranks):
        """Sending every receipt back to its source returns each rank's
        original arrays, with their shapes and dtypes."""

        def program(comm):
            rng = np.random.default_rng(comm.rank)
            send = [rng.standard_normal((d + 1, 2)) for d in range(comm.size)]
            send[-1] = send[-1].astype(np.float32)
            back = comm.exchange_arrays(comm.exchange_arrays(send))
            return all(
                a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
                for a, b in zip(send, back)
            )

        assert all(spmd(nranks, program))


class TestDeterminism:
    def test_reduction_deterministic_across_runs(self):
        """Rank-ordered reduction gives bit-identical results run to run."""

        def program(comm):
            rng = np.random.default_rng(comm.rank)
            return comm.allreduce(rng.normal(size=16).astype(np.float64).sum())

        a = spmd(5, program)
        b = spmd(5, program)
        assert a == b

    def test_reduction_folds_in_rank_order(self):
        """SUM and MAX fold contributions left to right in rank order:
        a non-associative float sum comes out as (r0 + r1) + r2 on every
        rank, and MAX keeps the elementwise largest of any shape."""

        values = [1e16, 1.0, -1e16]

        def program(comm):
            total = comm.allreduce(values[comm.rank], op=SUM)
            peak = comm.allreduce(
                np.array([values[comm.rank], -comm.rank]), op=MAX
            )
            return total, peak

        for total, peak in spmd(3, program):
            assert total == (values[0] + values[1]) + values[2] == 0.0
            assert np.array_equal(peak, [1e16, 0.0])


class TestCollectiveProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        nranks=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_allreduce_matches_numpy_sum(self, nranks, seed):
        def program(comm):
            rng = np.random.default_rng(seed + comm.rank)
            local = rng.normal(size=8)
            return comm.allreduce(local, op=SUM), local

        results = spmd(nranks, program)
        expected = np.sum([loc for _, loc in results], axis=0)
        # Deterministic rank order must equal the same-order numpy sum.
        ordered = results[0][1].copy()
        for _, loc in results[1:]:
            ordered = ordered + loc
        assert np.array_equal(results[0][0], ordered)
        np.testing.assert_allclose(results[0][0], expected, rtol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(
        nranks=st.integers(min_value=2, max_value=5),
        data=st.data(),
    )
    def test_exchange_arrays_is_transpose(self, nranks, data):
        matrix = data.draw(
            st.lists(
                st.lists(
                    st.integers(min_value=-1000, max_value=1000),
                    min_size=nranks,
                    max_size=nranks,
                ),
                min_size=nranks,
                max_size=nranks,
            )
        )

        def program(comm):
            send = [np.array([v], dtype=np.int64) for v in matrix[comm.rank]]
            return [int(a[0]) for a in comm.exchange_arrays(send)]

        results = spmd(nranks, program)
        for r in range(nranks):
            assert results[r] == [matrix[s][r] for s in range(nranks)]


class TestDup:
    @pytest.mark.parametrize("nranks", [2, 3, 4, 7])
    def test_dup_isolated_context(self, nranks):
        """The same (source, tag) on the parent and on a Dup are two
        channels: each receive gets its own communicator's message."""

        def program(comm):
            dup = comm.Dup()
            if comm.rank == 0:
                for dest in range(1, comm.size):
                    dup.Send(np.array([1.0, dest]), dest, tag=2)
                    comm.Send(np.array([2.0, dest]), dest, tag=2)
                return None
            parent = comm.Recv(None, 0, 2)
            duplicate = dup.Recv(None, 0, 2)
            return parent.tolist(), duplicate.tolist()

        results = spmd(nranks, program)
        for rank in range(1, nranks):
            assert results[rank] == ([2.0, rank], [1.0, rank])

    @pytest.mark.parametrize("nranks", SIZES)
    def test_dup_ids_agree_and_are_fresh(self, nranks):
        def program(comm):
            first, second = comm.Dup(), comm.Dup()
            return comm.id, first.id, second.id, first.allgather(first.id)

        results = spmd(nranks, program)
        assert {r[:3] for r in results} == {(0, 1, 2)}
        assert all(ids == [1] * nranks for *_, ids in results)
