"""Wall-clock spans, metrics registry, and the NullTelemetry fast path."""

import pytest

from repro import mpi
from repro.mpi.trace import CommTrace, NullTrace
from repro.telemetry import MetricsRegistry, NullMetrics
from tests.conftest import spmd


class TestSpanRecording:
    def test_nesting_under_threaded_spmd(self):
        """Every rank thread records its own correctly-nested spans."""
        trace = CommTrace()

        def program(comm):
            with trace.phase("outer"):
                comm.Barrier()
                with trace.phase("inner"):
                    comm.allreduce(1)
            with trace.phase("tail"):
                pass

        spmd(4, program, trace=trace)
        for rank in range(4):
            mine = [s for s in trace.spans if s.rank == rank]
            by_phase = {s.phase: s for s in mine}
            assert set(by_phase) == {"outer", "inner", "tail"}
            assert by_phase["outer"].depth == 0
            assert by_phase["inner"].depth == 1
            assert by_phase["tail"].depth == 0
            # Children close before (and nest inside) their parent.
            assert by_phase["inner"].t_start >= by_phase["outer"].t_start
            assert by_phase["inner"].t_end <= by_phase["outer"].t_end
            for span in mine:
                assert span.t_end >= span.t_start
                assert 0.0 <= span.self_time <= span.duration

    def test_self_time_excludes_children(self):
        trace = CommTrace()
        with trace.phase("parent"):
            with trace.phase("child"):
                pass
        parent = next(s for s in trace.spans if s.phase == "parent")
        child = next(s for s in trace.spans if s.phase == "child")
        assert parent.self_time <= parent.duration - child.duration + 1e-9

    def test_exception_still_closes_span(self):
        trace = CommTrace()
        with pytest.raises(RuntimeError):
            with trace.phase("doomed"):
                raise RuntimeError("boom")
        (span,) = trace.spans
        assert span.phase == "doomed"
        assert span.t_end >= span.t_start
        # The phase label is restored too: new events are unphased.
        trace.record_comm("send", 0, 1, 8)
        assert trace.events[0].phase == "unphased"

    def test_phase_walls_max_rank(self):
        trace = CommTrace()

        def program(comm):
            with trace.phase("work"):
                comm.Barrier()

        spmd(2, program, trace=trace)
        walls = trace.phase_walls()
        assert set(walls["work"]) == {0, 1}

    def test_events_carry_stamps_and_wall(self):
        trace = CommTrace()
        t0 = trace.clock()
        assert t0 is not None
        trace.record_compute(
            "k", 0, flops=1.0, bytes_moved=8.0, t_wall=trace.clock_since(t0)
        )
        (cev,) = trace.compute_events
        assert cev.t_stamp is not None and cev.t_wall >= 0.0

    def test_clear_drops_spans(self):
        trace = CommTrace()
        with trace.phase("p"):
            pass
        trace.clear()
        assert trace.spans == []


class TestFilterComputeEvents:
    """filter() covers ComputeEvents (ISSUE 6 satellite)."""

    def _trace(self):
        trace = CommTrace()
        with trace.phase("fft"):
            trace.record_compute("fft1d", 0, flops=1.0, bytes_moved=8.0)
            trace.record_compute("fft1d", 1, flops=1.0, bytes_moved=8.0)
            trace.record_comm("allreduce", 0, None, 8)
        with trace.phase("br"):
            trace.record_compute("br_pairs", 0, flops=2.0, bytes_moved=16.0)
        return trace

    def test_by_kernel(self):
        trace = self._trace()
        assert len(trace.filter(kernel="fft1d")) == 2
        assert len(trace.filter(kernel="fft1d", rank=1)) == 1
        assert trace.filter(kernel="br_pairs")[0].phase == "br"

    def test_rank_phase_cover_both_families(self):
        trace = self._trace()
        both = trace.filter(phase="fft")
        kinds = {type(ev).__name__ for ev in both}
        assert kinds == {"CommEvent", "ComputeEvent"}
        assert len(both) == 3

    def test_kind_and_kernel_mutually_exclusive(self):
        with pytest.raises(ValueError):
            self._trace().filter(kind="send", kernel="fft1d")

    def test_kind_excludes_compute(self):
        assert len(self._trace().filter(kind="allreduce")) == 1


class TestNullTelemetry:
    """NullTrace/NullMetrics no-op invariants — the fast path."""

    def test_phase_records_nothing(self):
        trace = NullTrace()
        with trace.phase("p"):
            trace.record_comm("send", 0, 1, 8)
            trace.record_compute("k", 0, flops=1, bytes_moved=1)
        assert trace.spans == []
        assert len(trace) == 0
        assert trace.phase_walls() == {}

    def test_clock_is_none(self):
        trace = NullTrace()
        assert trace.clock() is None
        assert trace.clock_since(None) is None

    def test_null_metrics_absorb_everything(self):
        metrics = NullMetrics()
        metrics.counter("a").inc()
        metrics.gauge("b").set(3)
        metrics.histogram("c").observe(1.0)
        assert metrics.snapshot() == {}
        trace = NullTrace()
        assert isinstance(trace.metrics, NullMetrics)

    def test_exception_passthrough(self):
        trace = NullTrace()
        with pytest.raises(KeyError):
            with trace.phase("p"):
                raise KeyError("x")
        assert trace.current_phase() == "unphased"


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc()
        reg.counter("runs").inc(2)
        reg.gauge("depth").set(4)
        reg.histogram("elapsed").observe(1.0)
        reg.histogram("elapsed").observe(3.0)
        snap = reg.snapshot()
        assert snap["runs"] == 3
        assert snap["depth"] == 4
        assert snap["elapsed"]["count"] == 2
        assert snap["elapsed"]["sum"] == 4.0
        assert snap["elapsed"]["mean"] == 2.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_collision(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_thread_safety_under_spmd(self):
        trace = CommTrace()

        def program(comm):
            for _ in range(100):
                trace.metrics.counter("ticks").inc()

        spmd(4, program, trace=trace)
        assert trace.metrics.snapshot()["ticks"] == 400
