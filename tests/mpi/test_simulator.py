"""SPMD launcher semantics: return values, inline path, kwargs, aborts."""

import threading

import numpy as np
import pytest

from repro import mpi


class TestRunSpmd:
    def test_per_rank_return_values(self):
        results = mpi.run_spmd(5, lambda comm: comm.rank ** 2)
        assert results == [0, 1, 4, 9, 16]

    def test_args_and_kwargs_forwarded(self):
        def program(comm, a, b=0):
            return a + b + comm.rank

        assert mpi.run_spmd(2, program, 10, b=5) == [15, 16]

    def test_single_rank_runs_inline(self):
        main_thread = threading.current_thread()

        def program(comm):
            return threading.current_thread() is main_thread

        assert mpi.run_spmd(1, program) == [True]

    def test_multi_rank_uses_threads(self):
        main_thread = threading.current_thread()

        def program(comm):
            return threading.current_thread() is not main_thread

        assert all(mpi.run_spmd(3, program))

    def test_collectives_work_inline_at_size_one(self):
        def program(comm):
            assert comm.allreduce(5) == 5
            assert comm.allgather("x") == ["x"]
            (out,) = comm.exchange_arrays([np.array([[1.0, 2.0]])])
            comm.Barrier()
            return float(out[0, 0])

        assert mpi.run_spmd(1, program) == [1.0]

    def test_lowest_failing_rank_exception_wins(self):
        def program(comm):
            if comm.rank in (1, 3):
                raise ValueError(f"rank {comm.rank}")
            comm.Barrier()

        with pytest.raises(ValueError, match="rank 1"):
            mpi.run_spmd(4, program, timeout=5.0)

    def test_abort_wakes_blocked_ranks_quickly(self):
        import time

        def program(comm):
            if comm.rank == 0:
                raise RuntimeError("early death")
            comm.Recv(None, 0, 1)  # would block for the full timeout

        start = time.monotonic()
        with pytest.raises(RuntimeError):
            mpi.run_spmd(3, program, timeout=60.0)
        assert time.monotonic() - start < 10.0


class TestSingleRankComm:
    def test_standalone_comm(self):
        comm = mpi.single_rank_comm()
        assert comm.size == 1 and comm.rank == 0
        assert comm.allreduce(3.5) == 3.5

    def test_traced(self):
        trace = mpi.CommTrace()
        comm = mpi.single_rank_comm(trace=trace)
        comm.Barrier()
        assert trace.message_count(kind="barrier") == 1

    def test_self_messaging(self):
        comm = mpi.single_rank_comm()
        comm.Send(np.array([1.0, 2.0]), 0, tag=4)
        out = comm.Recv(None, 0, 4)
        assert np.array_equal(out, [1.0, 2.0])
