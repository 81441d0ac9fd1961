"""Communication tracing: events, phases, aggregate queries."""

import numpy as np

from repro import mpi
from repro.mpi.trace import CommTrace, NullTrace
from tests.conftest import spmd


class TestTraceRecording:
    def test_send_recv_events(self):
        trace = CommTrace()

        def program(comm):
            if comm.rank == 0:
                comm.Send(np.arange(10, dtype=np.float64), 1)
            else:
                comm.Recv(None, 0)

        spmd(2, program, trace=trace)
        sends = trace.filter(kind="send")
        recvs = trace.filter(kind="recv")
        assert len(sends) == 1 and len(recvs) == 1
        assert sends[0].nbytes == 80
        assert sends[0].peer == 1
        assert recvs[0].peer == 0

    def test_phase_labels(self):
        trace = CommTrace()

        def program(comm):
            with trace.phase("setup"):
                comm.Barrier()
            with trace.phase("work"):
                comm.allreduce(1)
                with trace.phase("inner"):
                    comm.Barrier()
            comm.Barrier()

        spmd(3, program, trace=trace)
        assert set(trace.phases()) == {"setup", "work", "inner", "unphased"}
        assert len(trace.filter(phase="work", kind="allreduce")) == 3

    def test_total_bytes_excludes_recv(self):
        trace = CommTrace()

        def program(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(100), 1)
            else:
                comm.Recv(None, 0)

        spmd(2, program, trace=trace)
        assert trace.total_bytes() == 800
        assert trace.message_count(kind="send") == 1

    def test_alltoallv_counts_recorded(self):
        trace = CommTrace()

        def program(comm):
            per_dest = [np.zeros(d + 1) for d in range(comm.size)]
            comm.exchange_arrays(per_dest)

        spmd(3, program, trace=trace)
        events = trace.filter(kind="alltoallv")
        assert len(events) == 3
        assert events[0].counts == (8, 16, 24)

    def test_partners(self):
        trace = CommTrace()

        def program(comm):
            dest = (comm.rank + 1) % comm.size
            src = (comm.rank - 1) % comm.size
            comm.Sendrecv(np.zeros(2), dest, 0, None, src, 0)

        spmd(4, program, trace=trace)
        assert {e.peer for e in trace.events if e.rank == 0} == {1, 3}

    def test_compute_events(self):
        trace = CommTrace()
        trace.record_compute("kernel", 0, flops=100.0, bytes_moved=800.0, items=10)
        assert len(trace.compute_events) == 1
        assert trace.compute_events[0].kernel == "kernel"

    def test_filter_covers_compute_events(self):
        trace = CommTrace()
        with trace.phase("fft"):
            trace.record_compute("fft1d", 0, flops=1.0, bytes_moved=8.0)
            trace.record_compute("fft1d", 1, flops=1.0, bytes_moved=8.0)
            trace.record_comm("allreduce", 0, None, 8)
        assert len(trace.filter(kernel="fft1d")) == 2
        assert len(trace.filter(kernel="fft1d", rank=1)) == 1
        # rank/phase-only criteria match both event families.
        assert len(trace.filter(phase="fft")) == 3

    def test_null_trace_drops_everything(self):
        trace = NullTrace()
        trace.record_comm("send", 0, 1, 100)
        trace.record_compute("k", 0, flops=1, bytes_moved=1)
        assert len(trace) == 0

    def test_clear(self):
        trace = CommTrace()
        trace.record_comm("send", 0, 1, 100)
        trace.clear()
        assert len(trace) == 0
        assert trace.events == []

    def test_seq_monotonic_per_rank(self):
        trace = CommTrace()

        def program(comm):
            for _ in range(4):
                comm.allreduce(1)

        spmd(2, program, trace=trace)
        for rank in (0, 1):
            seqs = [ev.seq for ev in trace.events if ev.rank == rank]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
