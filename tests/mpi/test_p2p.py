"""Point-to-point semantics of the simulated MPI layer."""

import tracemalloc

import numpy as np
import pytest

from repro import mpi
from repro.mpi.world import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.util.errors import CommunicationError, DeadlockError
from tests.conftest import spmd

SIZES = [1, 2, 3, 4, 7]


class TestSendRecv:
    def test_basic_two_ranks(self):
        def program(comm):
            if comm.rank == 0:
                comm.Send(np.arange(10.0), 1, tag=3)
                return None
            out = comm.Recv(None, 0, 3)
            return out

        results = spmd(2, program)
        assert np.array_equal(results[1], np.arange(10.0))

    def test_recv_into_buffer(self):
        def program(comm):
            if comm.rank == 0:
                comm.Send(np.full(4, 7.0), 1)
                return None
            buf = np.zeros(4)
            comm.Recv(buf, 0)
            return buf

        results = spmd(2, program)
        assert np.array_equal(results[1], np.full(4, 7.0))

    def test_dtype_mismatch_raises(self):
        def program(comm):
            if comm.rank == 0:
                comm.Send(np.arange(4, dtype=np.float64), 1)
                return None
            buf = np.zeros(4, dtype=np.int32)
            with pytest.raises(CommunicationError):
                comm.Recv(buf, 0)
            return True

        assert spmd(2, program)[1]

    def test_too_small_buffer_raises(self):
        def program(comm):
            if comm.rank == 0:
                comm.Send(np.arange(8.0), 1)
                return None
            with pytest.raises(CommunicationError):
                comm.Recv(np.zeros(4), 0)
            return True

        assert spmd(2, program)[1]

    def test_message_order_preserved_per_source(self):
        def program(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.Send(np.array([float(i)]), 1, tag=9)
                return None
            return [float(comm.Recv(None, 0, 9)[0]) for _ in range(5)]

        assert spmd(2, program)[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_tag_selectivity(self):
        def program(comm):
            if comm.rank == 0:
                comm.Send(np.array([1.0]), 1, tag=1)
                comm.Send(np.array([2.0]), 1, tag=2)
                return None
            second = comm.Recv(None, 0, 2)
            first = comm.Recv(None, 0, 1)
            return (float(first[0]), float(second[0]))

        assert spmd(2, program)[1] == (1.0, 2.0)

    @pytest.mark.parametrize("nranks", [2, 3, 4, 7])
    def test_any_source_any_tag(self, nranks):
        def program(comm):
            if comm.rank != 0:
                comm.Send(np.array([float(comm.rank)]), 0, tag=comm.rank)
                return None
            return {int(comm.Recv(None, ANY_SOURCE, ANY_TAG)[0])
                    for _ in range(comm.size - 1)}

        assert spmd(nranks, program)[0] == set(range(1, nranks))

    @pytest.mark.parametrize("nranks", [2, 3, 4, 7])
    def test_any_source_keeps_per_source_order(self, nranks):
        """Wildcard receives interleave sources freely but never reorder
        the messages of one source, whatever their tags."""
        per_source = 3

        def program(comm):
            if comm.rank != 0:
                for i in range(per_source):
                    comm.Send(np.array([comm.rank, i]), 0, tag=i)
                return None
            seen = {}
            for _ in range(per_source * (comm.size - 1)):
                src, i = comm.Recv(None, ANY_SOURCE, ANY_TAG).tolist()
                seen.setdefault(src, []).append(i)
            return seen

        seen = spmd(nranks, program)[0]
        assert seen == {r: list(range(per_source)) for r in range(1, nranks)}

    def test_send_to_proc_null_is_noop(self):
        def program(comm):
            comm.Send(np.arange(3.0), PROC_NULL)
            return True

        assert spmd(1, program)[0]

    def test_recv_from_proc_null_returns_buf_untouched(self):
        trace = mpi.CommTrace()

        def program(comm):
            buf = np.full(3, -1.0)
            out = comm.Recv(buf, PROC_NULL, 4)
            return out is buf, buf.tolist()

        assert spmd(1, program, trace=trace)[0] == (True, [-1.0] * 3)
        assert trace.events == []

    def test_recv_into_larger_buffer_fills_prefix(self):
        def program(comm):
            if comm.rank == 0:
                comm.Send(np.array([1.0, 2.0, 3.0]), 1)
                return None
            return comm.Recv(np.zeros(5), 0).tolist()

        assert spmd(2, program)[1] == [1.0, 2.0, 3.0, 0.0, 0.0]

    def test_send_strided_view(self):
        """A non-contiguous view arrives with its shape and values."""

        def program(comm):
            base = np.arange(24.0).reshape(4, 6)
            if comm.rank == 0:
                comm.Send(base[::2, 1::2], 1)
                return None
            got = comm.Recv(None, 0)
            return got.shape, np.array_equal(got, base[::2, 1::2])

        assert spmd(2, program)[1] == ((2, 3), True)

    def test_strided_send_is_one_buffered_copy(self):
        """A strided payload is copied once, C-ordered, at the call: the
        sender may overwrite its array before the receive."""

        def program(comm):
            base = np.arange(512.0 * 512).reshape(512, 512)
            if comm.rank == 0:
                view = base[:, ::2]
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                comm.Send(view, 0)
                staged = tracemalloc.get_traced_memory()[1] - before
                base[...] = -1.0
                got = comm.Recv(None, 0)
                return staged / view.nbytes, got.flags.c_contiguous, got[3, 4]
            return None

        tracemalloc.start()
        try:
            staged, contiguous, value = spmd(1, program)[0]
        finally:
            tracemalloc.stop()
        assert contiguous and value == 3 * 512 + 8
        assert staged < 1.5

    def test_send_out_of_range_raises(self):
        def program(comm):
            with pytest.raises(CommunicationError):
                comm.Send(np.arange(3.0), 5)
            return True

        assert spmd(2, program)[0]

    @pytest.mark.parametrize("nranks", SIZES)
    def test_self_send(self, nranks):
        def program(comm):
            comm.Send(np.array([42.0]), comm.rank, tag=5)
            return float(comm.Recv(None, comm.rank, 5)[0])

        assert spmd(nranks, program) == [42.0] * nranks

    def test_send_copies_payload(self):
        """Mutating a buffer after Send must not affect the receiver."""

        def program(comm):
            if comm.rank == 0:
                payload = np.arange(3.0)
                comm.Send(payload, 1)
                payload[:] = -1.0
                return None
            return comm.Recv(None, 0).tolist()

        assert spmd(2, program)[1] == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("nranks", SIZES)
    def test_sendrecv_ring(self, nranks):
        def program(comm):
            dest = (comm.rank + 1) % comm.size
            src = (comm.rank - 1) % comm.size
            out = comm.Sendrecv(np.array([float(comm.rank)]), dest, 11, None, src, 11)
            return float(out[0])

        results = spmd(nranks, program)
        assert results == [float((r - 1) % nranks) for r in range(nranks)]


class TestFailureHandling:
    def test_deadlock_detected(self):
        def program(comm):
            comm.Recv(None, 0, 99)  # nobody sends

        with pytest.raises(DeadlockError):
            spmd(2, program, timeout=0.5)

    def test_exception_propagates(self):
        def program(comm):
            if comm.rank == 1:
                raise RuntimeError("rank 1 died")
            comm.Barrier()

        with pytest.raises(RuntimeError, match="rank 1 died"):
            spmd(3, program, timeout=5.0)

    def test_mismatched_collectives_raise(self):
        def program(comm):
            if comm.rank == 0:
                comm.Barrier()
            else:
                comm.allreduce(1)

        with pytest.raises((CommunicationError, DeadlockError)):
            spmd(2, program, timeout=5.0)
