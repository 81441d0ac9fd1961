"""Live campaign status: status.json heartbeats and summary lines."""

import json
import os

import pytest

from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    Coordinator,
)
from repro.campaign.service import status_line
from repro.core import InitialCondition, SolverConfig
from repro.campaign.deck import RunSpec
from repro.telemetry import TELEMETRY_SCHEMA

DECK = {
    "name": "status",
    "mode": "functional",
    "steps": 2,
    "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
    "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
    "grid": {"fft_config": [0, 3, 5]},
}


def specs():
    return CampaignDeck.from_dict(DECK).expand()


def read_status(store):
    with open(store.status_path, encoding="utf-8") as fh:
        return json.load(fh)


class TestStatusUnderProcessBackend:
    def test_final_snapshot_consistent(self, tmp_path):
        """ISSUE 6: status.json snapshot consistency under the process
        backend — every run terminal, counts adding up, done=True."""
        store = CampaignStore("status", root=str(tmp_path))
        executor = CampaignExecutor(
            store, max_workers=2
        )
        outcomes = executor.submit(specs())
        assert all(o.status == "completed" for o in outcomes)

        snap = read_status(store)
        assert snap["schema"] == TELEMETRY_SCHEMA
        assert snap["campaign"] == "status"
        assert snap["worker_type"] == "process"
        assert snap["done"] is True
        assert snap["total"] == len(outcomes)
        assert sum(snap["counts"].values()) == snap["total"]
        assert snap["counts"]["completed"] == len(outcomes)
        assert snap["eta_modeled_seconds"] == 0.0
        states = {run["state"] for run in snap["runs"].values()}
        assert states == {"completed"}
        for outcome in outcomes:
            assert snap["runs"][outcome.run_hash]["elapsed"] >= 0.0
        # Campaign-level metrics made it into the heartbeat.
        assert snap["metrics"]["campaign.runs_completed"] == len(outcomes)

    def test_resubmission_counts_skips(self, tmp_path):
        store = CampaignStore("status", root=str(tmp_path))
        executor = CampaignExecutor(
            store, max_workers=2
        )
        executor.submit(specs())
        again = executor.submit(specs())
        assert all(o.skipped for o in again)
        snap = read_status(store)
        assert snap["counts"]["skipped"] == len(again)
        assert snap["counts"]["completed"] == 0
        assert snap["done"] is True


class TestStatusDefaultAndSerial:
    def test_default_backend_writes_status(self, tmp_path):
        store = CampaignStore("status", root=str(tmp_path))
        CampaignExecutor(store, max_workers=2).submit(specs())
        snap = read_status(store)
        assert snap["done"] and snap["counts"]["completed"] == 3

    @pytest.mark.parametrize("workers,batch", [
        (1, specs), (4, lambda: specs()[:1]),
    ], ids=["one-worker", "single-run"])
    def test_in_process_drain_reports_serial(self, tmp_path, workers, batch):
        """Whatever ``max_workers`` says, a drain that spawns nothing is
        ``serial`` and its service section is unbound."""
        store = CampaignStore("status", root=str(tmp_path))
        CampaignExecutor(store, max_workers=workers).submit(batch())
        snap = read_status(store)
        assert snap["worker_type"] == "serial"
        assert snap["service"]["address"] is None
        assert snap["service"]["pid"] == os.getpid()

    def test_heartbeat_logs_summaries(self, tmp_path, campaign_log):
        store = CampaignStore("status", root=str(tmp_path))
        executor = CampaignExecutor(
            store, max_workers=1, status_interval=0.01
        )
        executor.submit(specs())
        assert any(
            "status:" in line and "completed" in line
            for line in campaign_log.messages
        )

    def test_failed_run_counted(self, tmp_path):
        bad = RunSpec(
            config=SolverConfig(
                num_nodes=(8, 8), order="low", periodic=(False, False),
                dt=0.002,
            ),
            ic=InitialCondition(kind="flat"),
            ranks=4, steps=2,
        )
        store = CampaignStore("status", root=str(tmp_path))
        outcomes = CampaignExecutor(store, max_workers=1).submit(
            [specs()[0], bad]
        )
        assert [o.status for o in outcomes] == ["completed", "failed"]
        snap = read_status(store)
        assert snap["counts"] == {
            "queued": 0, "running": 0, "completed": 1, "failed": 1,
            "skipped": 0, "interrupted": 0,
        }


class TestSummaryLine:
    def test_in_flight_line_has_eta(self, tmp_path):
        store = CampaignStore("s", root=str(tmp_path))
        coordinator = Coordinator(store, specs(), None)
        coordinator._mark(specs()[0].run_hash(), "running")
        snap = coordinator.snapshot()
        assert snap["counts"] == {
            "queued": 2, "running": 1, "completed": 0, "failed": 0,
            "skipped": 0, "interrupted": 0,
        }
        assert snap["eta_modeled_seconds"] > 0.0
        line = status_line(snap)
        assert "0/3 completed" in line and "modeled ETA" in line

    def test_interrupted_pass_marks_the_rest_interrupted(self, tmp_path):
        store = CampaignStore("s", root=str(tmp_path))
        coordinator = Coordinator(store, specs(), None)

        def interrupt():
            coordinator._mark(specs()[0].run_hash(), "running")
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            coordinator.drive(interrupt)
        snap = read_status(store)
        assert snap["done"] is True
        assert snap["counts"]["interrupted"] == 3
