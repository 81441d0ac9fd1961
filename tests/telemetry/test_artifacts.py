"""Telemetry documents: build, store round-trip, report keys, drift."""

import json
import os

import numpy as np
import pytest

from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    RunRecord,
    record_field,
)
from repro.core.solver import NUMERICS_VERSION
from repro.machine import LASSEN
from repro.mpi.trace import CommTrace, NullTrace
from repro.telemetry import (
    TELEMETRY_SCHEMA,
    atomic_write_json,
    build_run_telemetry,
    drift_report,
    format_drift_table,
)
from tests.conftest import spmd

DECK = {
    "name": "telem",
    "mode": "functional",
    "steps": 2,
    "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
    "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
    "grid": {"ranks": [1, 2]},
}


def specs():
    return CampaignDeck.from_dict(DECK).expand()


@pytest.fixture
def traced_run():
    trace = CommTrace()

    def program(comm):
        with trace.phase("halo"):
            comm.Barrier()
        with trace.phase("compute"):
            t0 = trace.clock()
            trace.record_compute(
                "axpy", comm.rank, flops=10.0, bytes_moved=80.0,
                t_wall=trace.clock_since(t0),
            )

    spmd(2, program, trace=trace)
    trace.metrics.counter("solver.steps").inc(2)
    return trace


class TestAtomicWriteJson:
    def test_write_and_replace(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"a": 1})
        atomic_write_json(path, {"a": 2})
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == {"a": 2}
        # No temp litter left behind.
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_numpy_scalars_serialized(self, tmp_path):
        path = str(tmp_path / "np.json")
        atomic_write_json(path, {"x": np.float64(1.5)})
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["x"] in (1.5, "1.5")

    def test_failure_leaves_previous_version(self, tmp_path):
        path = str(tmp_path / "keep.json")
        atomic_write_json(path, {"ok": True})
        circular: dict = {}
        circular["self"] = circular
        with pytest.raises(ValueError):
            atomic_write_json(path, circular)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == {"ok": True}
        assert os.listdir(tmp_path) == ["keep.json"]


class TestBuildRunTelemetry:
    def test_document_shape(self, traced_run):
        doc = build_run_telemetry(traced_run, elapsed=1.25)
        assert doc["schema"] == TELEMETRY_SCHEMA
        assert doc["elapsed"] == 1.25
        assert doc["phase"]["halo"]["wall"] == max(
            traced_run.phase_walls()["halo"].values())
        assert set(doc["phase"]["compute"]["wall_by_rank"]) == {"0", "1"}
        assert doc["phase"]["compute"]["compute_events"] == 2
        assert doc["kernel"]["axpy"]["count"] == 2
        assert doc["kernel"]["axpy"]["wall"] >= 0.0
        assert doc["events"]["spans"] == len(traced_run.spans)
        assert doc["metrics"]["solver.steps"] == 2
        assert json.loads(json.dumps(doc)) == doc

    def test_extra_merged(self, traced_run):
        doc = build_run_telemetry(traced_run, extra={"run_hash": "abc"})
        assert doc["run_hash"] == "abc"

    def test_null_trace_produces_empty_document(self):
        doc = build_run_telemetry(NullTrace())
        assert doc["phase"] == {} and doc["kernel"] == {}
        assert doc["events"] == {"comm": 0, "compute": 0, "spans": 0}
        assert doc["metrics"] == {}


class TestStoreRoundTrip:
    def test_write_load(self, tmp_path, traced_run):
        store = CampaignStore("t", root=str(tmp_path))
        spec = specs()[0]
        doc = build_run_telemetry(traced_run)
        store.record_completed(spec, {"kind": "functional"}, telemetry=doc)
        # The document rides in the one completed index line.
        assert sorted(os.listdir(store.root)) == [".store.lock", "index.jsonl"]
        with open(store.index_path, encoding="utf-8") as fh:
            (line,) = fh.read().splitlines()
        assert json.loads(line)["telemetry"] == json.loads(json.dumps(doc))
        assert store.load_telemetry(spec.run_hash()) == json.loads(
            json.dumps(doc)
        )

    def test_load_missing_is_none(self, tmp_path):
        store = CampaignStore("t", root=str(tmp_path))
        assert store.load_telemetry("deadbeef") is None


class TestExecutorWritesTelemetry:
    def test_functional_runs_leave_telemetry_json(self, tmp_path):
        store = CampaignStore("telem", root=str(tmp_path))
        outcomes = CampaignExecutor(store, max_workers=2).submit(specs())
        assert all(o.status == "completed" for o in outcomes)
        for outcome in outcomes:
            doc = store.load_telemetry(outcome.run_hash)
            assert doc is not None
            assert doc["schema"] == TELEMETRY_SCHEMA
            # Every rank thread counts its own step() calls.
            assert (doc["metrics"]["solver.steps"]
                    == DECK["steps"] * outcome.spec["ranks"])
            assert doc["phase"], doc
            record = store.latest_records()[outcome.run_hash]
            assert record.telemetry is doc
            assert record.run_hash == outcome.run_hash
        # No per-run directory: the index carries every run's document.
        assert sorted(os.listdir(store.root)) == [
            ".store.lock", "index.jsonl", "status.json",
        ]

    def test_telemetry_disabled_writes_nothing(self, tmp_path):
        store = CampaignStore("off", root=str(tmp_path))
        (outcome,) = CampaignExecutor(
            store, max_workers=1, telemetry=False
        ).submit(specs()[:1])
        assert outcome.status == "completed"
        assert store.load_telemetry(outcome.run_hash) is None

    def test_record_field_reaches_telemetry(self, tmp_path):
        store = CampaignStore("telem", root=str(tmp_path))
        CampaignExecutor(store, max_workers=1).submit(specs()[:1])
        record = next(iter(store.latest_records().values()))
        steps = record_field(record, "telemetry.metrics.solver.steps")
        assert steps == DECK["steps"]
        wall = record_field(record, "telemetry.phase.halo.wall")
        assert wall is not None and wall >= 0.0

    def test_parent_format_record_is_a_hit_without_telemetry(self, tmp_path):
        """A completed line written before telemetry moved into the
        index stays a store hit, and a stray ``runs/<h>/telemetry.json``
        beside it is not read: its telemetry cells are blank."""
        store = CampaignStore("telem", root=str(tmp_path))
        spec = specs()[0]
        run_hash = spec.run_hash()
        CampaignExecutor(
            store, max_workers=1, telemetry=False
        ).submit([spec])
        (done,) = [r for r in store.iter_records() if r.status == "completed"]
        line = json.loads(done.to_json())
        line.pop("telemetry", None)
        assert line["numerics"] == NUMERICS_VERSION
        with open(store.index_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
        stray = os.path.join(store.root, "runs", run_hash)
        os.makedirs(stray)
        atomic_write_json(
            os.path.join(stray, "telemetry.json"),
            {"schema": TELEMETRY_SCHEMA, "phase": {"fft": {"wall": 1.0}}},
        )

        (again,) = CampaignExecutor(store, max_workers=1).submit([spec])
        assert again.skipped
        assert store.load_telemetry(run_hash) is None
        (record,) = store.latest_records().values()
        assert isinstance(record, RunRecord) and record.telemetry is None
        assert record_field(record, "telemetry.phase.fft.wall") is None


class TestDriftReport:
    def test_report_shape_and_table(self, traced_run):
        report = drift_report(traced_run, LASSEN)
        assert report["machine"] == LASSEN.name
        assert report["nranks"] == 2
        by_phase = {row["phase"]: row for row in report["phases"]}
        assert set(by_phase) >= {"halo", "compute"}
        for row in report["phases"]:
            assert row["drift"] == pytest.approx(
                row["measured"] - row["modeled"]
            )
        total = report["total"]
        assert total["measured"] == pytest.approx(
            sum(r["measured"] for r in report["phases"])
        )
        table = format_drift_table(report)
        assert "TOTAL" in table and "halo" in table
        assert json.loads(json.dumps(report)) == report
