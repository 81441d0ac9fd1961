"""Executor: concurrent runs, dedup, failure isolation, model mode."""

import io
import logging
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    RunSpec,
    campaign_summary,
    configure_logging,
    estimate_cost,
    longest_job_first,
    makespan_estimate,
    series_grid,
)
from repro.core import InitialCondition, SolverConfig


def functional_deck(**overrides):
    data = {
        "name": "exec",
        "mode": "functional",
        "steps": 2,
        "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
        "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
        "grid": {"fft_config": [0, 7], "ranks": [1, 2]},
    }
    data.update(overrides)
    return CampaignDeck.from_dict(data)


@pytest.fixture
def store(tmp_path):
    return CampaignStore("exec", root=str(tmp_path))


class TestFunctionalCampaign:
    def test_concurrent_run_and_dedup(self, store):
        executor = CampaignExecutor(store, max_workers=2)
        specs = functional_deck().expand()
        outcomes = executor.submit(specs)
        assert [o.status for o in outcomes] == ["completed"] * 4
        for outcome in outcomes:
            diag = outcome.result["diagnostics"]
            assert diag["steps"] == 2
            assert np.isfinite(diag["amplitude"])
        # Resubmission: all store hits, nothing recomputes.
        again = executor.submit(specs)
        assert all(o.skipped for o in again)
        # Skipped outcomes still surface the stored result.
        assert again[0].result["diagnostics"]["steps"] == 2
        summary = campaign_summary(store)
        assert summary["completed"] == 4 and summary["failed"] == 0

    def test_duplicate_specs_run_once(self, store):
        executor = CampaignExecutor(store, max_workers=2)
        spec = functional_deck(grid={"ranks": [1]}).expand()[0]
        outcomes = executor.submit([spec, spec, spec])
        assert len(outcomes) == 3
        assert sum(1 for o in outcomes if o.status == "completed") >= 1
        terminal = [r for r in store.iter_records() if r.status != "running"]
        assert len(terminal) == 1

    def test_failure_isolation(self, store):
        """One raising run is recorded failed; siblings complete."""
        good = functional_deck(grid={"ranks": [1, 2]}).expand()
        # Low order with free boundaries: the Solver constructor raises
        # deep inside the run (the FFT Riesz solve needs periodicity).
        bad = RunSpec(
            config=SolverConfig(
                num_nodes=(8, 8), order="low", periodic=(False, False),
                dt=0.002,
            ),
            ic=InitialCondition(kind="flat"),
            ranks=4,
            steps=2,
        )
        outcomes = CampaignExecutor(store, max_workers=2).submit(
            [good[0], bad, good[1]]
        )
        assert [o.status for o in outcomes] == ["completed", "failed", "completed"]
        assert "ConfigurationError" in outcomes[1].error
        latest = store.latest_records()
        assert latest[bad.run_hash()].status == "failed"
        assert latest[bad.run_hash()].error

    def test_failed_run_retries_on_resubmit(self, store):
        bad = RunSpec(
            config=SolverConfig(
                num_nodes=(8, 8), order="low", periodic=(False, False),
                dt=0.002,
            ),
            ic=InitialCondition(kind="flat"),
            ranks=4,
            steps=2,
        )
        executor = CampaignExecutor(store, max_workers=1)
        assert executor.submit([bad])[0].status == "failed"
        # A failed hash is not a store hit — it runs (and fails) again.
        assert executor.submit([bad])[0].status == "failed"
        terminal = [r for r in store.iter_records() if r.status != "running"]
        assert len(terminal) == 2


class TestModelCampaign:
    def test_model_mode_payload(self, store):
        deck = functional_deck(
            mode="model",
            grid={"fft_config": [0, 7]},
            zip={"ranks": [4, 256], "num_nodes": [[512, 512], [4096, 4096]]},
        )
        outcomes = CampaignExecutor(store, max_workers=4).submit(deck.expand())
        assert all(o.status == "completed" for o in outcomes)
        for outcome in outcomes:
            result = outcome.result
            assert result["kind"] == "model"
            assert result["step_time"] > 0
            assert result["total_time"] == pytest.approx(
                deck.steps * result["step_time"]
            )
            assert set(result["phases"]) == {"halo", "fft", "stencil"}
        pivot = series_grid(
            store, row="config.fft_config", col="ranks",
            value="result.step_time",
        )
        assert pivot["rows"] == [0, 7] and pivot["cols"] == [4, 256]
        assert all(v is not None for row in pivot["grid"].values() for v in row)

    def test_model_hits_are_machine_specific(self, store):
        """Model results costed on one machine don't dedup for another."""
        from repro.machine import LASSEN

        deck = functional_deck(
            mode="model", grid={"fft_config": [0]},
            zip={"ranks": [4], "num_nodes": [[512, 512]]},
        )
        specs = deck.expand()
        assert CampaignExecutor(store, max_workers=1).submit(specs)[0].status == "completed"
        # Same machine: store hit.
        assert CampaignExecutor(store, max_workers=1).submit(specs)[0].skipped
        # Different machine: must recompute, not serve LASSEN numbers.
        slow = replace(LASSEN, name="slow-net", bandwidth_inter=1.0e9)
        outcome = CampaignExecutor(store, machine=slow, max_workers=1).submit(specs)[0]
        assert outcome.status == "completed"
        assert outcome.result["machine"] == "slow-net"


class TestTimeouts:
    """Run-level wall-clock budget vs per-collective deadlock deadline
    (the two used to be conflated: the executor passed its 120 s budget
    straight into run_spmd's per-collective timeout, so a rank that
    computed slowly while peers waited died as a spurious
    DeadlockError)."""

    def _spec(self, steps=2):
        deck = functional_deck(grid={"ranks": [2]}, steps=steps)
        return deck.expand()[0]

    def test_defaults_align_with_single_run_cli(self, store):
        executor = CampaignExecutor(store)
        assert executor.timeout == 3600.0
        # The collective deadline follows the run budget, so one slow
        # rank can never trip deadlock detection inside its budget.
        assert executor.collective_timeout == 3600.0
        executor = CampaignExecutor(store, timeout=50.0)
        assert executor.collective_timeout == 50.0

    def test_collective_timeout_reaches_run_spmd(self, store, monkeypatch):
        import repro.campaign.executor as executor_module

        seen = {}
        real_run_spmd = executor_module.mpi.run_spmd

        def spy(nranks, fn, *args, **kwargs):
            seen["timeout"] = kwargs.get("timeout")
            return real_run_spmd(nranks, fn, *args, **kwargs)

        monkeypatch.setattr(executor_module.mpi, "run_spmd", spy)
        executor = CampaignExecutor(
            store, max_workers=1, timeout=900.0, collective_timeout=77.0,
        )
        assert executor.submit([self._spec()])[0].status == "completed"
        assert seen["timeout"] == 77.0

    def test_over_budget_run_fails_cleanly(self, store):
        """Blowing the run budget is a recorded failure naming the
        budget — not a DeadlockError out of a collective."""
        executor = CampaignExecutor(
            store, max_workers=1, timeout=1e-9, collective_timeout=3600.0,
        )
        (outcome,) = executor.submit([self._spec(steps=3)])
        assert outcome.status == "failed"
        assert "wall-clock budget" in outcome.error
        assert "DeadlockError" not in outcome.error
        record = store.latest_records()[self._spec(steps=3).run_hash()]
        assert record.status == "failed"

    def test_zero_timeout_disables_the_budget(self, store):
        executor = CampaignExecutor(
            store, max_workers=1, timeout=0.0, collective_timeout=120.0,
        )
        (outcome,) = executor.submit([self._spec()])
        assert outcome.status == "completed"


class TestSerialWorker:
    def test_serial_matches_process_outcomes(self, store, tmp_path):
        specs = functional_deck(grid={"fft_config": [0, 7]}).expand()
        serial_store = CampaignStore("serial", root=str(tmp_path / "s"))
        leased = CampaignExecutor(store, max_workers=2)
        serial = CampaignExecutor(serial_store, max_workers=1)
        p_outcomes = leased.submit(specs)
        s_outcomes = serial.submit(specs)
        assert [o.status for o in p_outcomes] == [o.status for o in s_outcomes]
        for p, s in zip(p_outcomes, s_outcomes):
            assert p.result == s.result


class TestScheduler:
    def _spec(self, order, nodes, ranks=4, br_solver="exact", steps=2):
        return RunSpec(
            config=SolverConfig(
                num_nodes=(nodes, nodes), order=order, br_solver=br_solver,
                eps=0.05, dt=0.002,
            ),
            ic=InitialCondition(kind="flat"),
            ranks=ranks,
            steps=steps,
        )

    def test_cost_ordering_matches_solver_weight(self):
        low = self._spec("low", 64)
        exact = self._spec("high", 64)
        assert estimate_cost(exact) > estimate_cost(low)
        # More steps cost proportionally more.
        assert estimate_cost(self._spec("low", 64, steps=10)) == pytest.approx(
            5 * estimate_cost(self._spec("low", 64, steps=2))
        )

    def test_longest_job_first_order(self):
        small = self._spec("low", 32)
        big = self._spec("high", 256)
        mid = self._spec("high", 64)
        ordered = longest_job_first([small, big, mid])
        costs = [estimate_cost(s) for s in ordered]
        assert costs == sorted(costs, reverse=True)
        assert ordered[0] is big

    def test_makespan_bounds(self):
        specs = [self._spec("low", n) for n in (32, 48, 64, 96)]
        serial = sum(estimate_cost(s) for s in specs)
        longest = max(estimate_cost(s) for s in specs)
        span = makespan_estimate(specs, workers=2)
        assert longest <= span <= serial
        assert makespan_estimate(specs, workers=1) == pytest.approx(serial)


def test_log_handler_follows_sys_stderr(monkeypatch):
    """The console handler writes to the current ``sys.stderr``: closing
    the stream it was configured under (a CLI test's capture) loses no
    later line."""
    logger = logging.getLogger("repro.campaign")
    saved = logger.handlers[:], logger.propagate, logger.level
    logger.handlers[:] = []
    first, second = io.StringIO(), io.StringIO()
    try:
        monkeypatch.setattr(sys, "stderr", first)
        configure_logging(0)
        first.close()
        monkeypatch.setattr(sys, "stderr", second)
        logger.warning("after the first stream closed")
    finally:
        logger.handlers[:], logger.propagate = saved[:2]
        logger.setLevel(saved[2])
    assert "after the first stream closed" in second.getvalue()
    assert "Logging error" not in second.getvalue()
