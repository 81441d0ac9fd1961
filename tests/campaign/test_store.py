"""Run store: append-only index, last-record-wins, dedup, env root,
crash tolerance (torn index lines), the record schema and its cached
reads."""

import dataclasses
import json
import os

import pytest

from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    RunRecord,
    campaign_summary,
    results_root,
)
from repro.campaign.store import COMPLETED, FAILED
from repro.core.solver import NUMERICS_VERSION
from repro.util.errors import ConfigurationError


@pytest.fixture
def spec():
    return CampaignDeck.from_dict(
        {"mode": "model", "base": {"order": "low"}, "grid": {"ranks": [4]}}
    ).expand()[0]


@pytest.fixture
def store(tmp_path):
    return CampaignStore("t", root=str(tmp_path))


class TestIndex:
    def test_empty_store(self, store):
        assert list(store.iter_records()) == []
        assert store.completed_hashes() == set()
        assert "deadbeef" not in store.completed_hashes()

    def test_record_completed_roundtrip(self, store, spec):
        record = store.record_completed(spec, {"step_time": 1.5}, elapsed=0.1)
        assert spec.run_hash() in store.completed_hashes()
        assert store.load_result(spec.run_hash()) == {"step_time": 1.5}
        # The index record is the result's one home: no run directory.
        assert not os.path.exists(store.run_dir(spec.run_hash()))
        assert record.spec == spec.payload()
        assert record.numerics == NUMERICS_VERSION

    def test_last_record_wins(self, store, spec):
        store.record_failed(spec, "boom")
        assert spec.run_hash() not in store.completed_hashes()
        store.record_completed(spec, {"ok": True})
        assert spec.run_hash() in store.completed_hashes()
        records = list(store.iter_records())
        assert [r.status for r in records] == [FAILED, COMPLETED]

    def test_records_parse_back(self, store, spec):
        store.record_failed(spec, "trace...", elapsed=2.0)
        (record,) = store.iter_records()
        assert isinstance(record, RunRecord)
        assert record.error == "trace..."
        assert record.elapsed == 2.0
        assert record.timestamp > 0

    def test_unknown_result_is_none(self, store):
        assert store.load_result("cafebabe") is None


class TestCrashTolerance:
    """What a killed writer leaves behind must not wedge the store."""

    def test_torn_trailing_index_line_is_skipped(self, store, spec, caplog):
        """A crash mid-append leaves a partial trailing line; every
        subsequent store open must still parse the complete records
        (this used to raise JSONDecodeError out of iter_records)."""
        store.record_failed(spec, "boom")
        store.record_completed(spec, {"ok": True})
        with open(store.index_path, "a", encoding="utf-8") as fh:
            fh.write('{"run_hash": "dead", "status": "comp')  # no newline
        with caplog.at_level("WARNING", logger="repro.campaign.store"):
            records = list(store.iter_records())
        assert [r.status for r in records] == [FAILED, COMPLETED]
        assert any("unparseable" in rec.message for rec in caplog.records)
        assert spec.run_hash() in store.completed_hashes()
        # The store stays writable: a later append supersedes cleanly.
        store.record_failed(spec, "later")
        assert spec.run_hash() not in store.completed_hashes()


class TestAudit:
    """``campaign_summary`` reports what a sound store never holds, from
    the one scan ``latest_records`` makes."""

    def test_one_case_of_each(self, store):
        specs = CampaignDeck.from_dict(
            {"mode": "model", "base": {"order": "low"},
             "grid": {"ranks": [1, 2, 4, 8, 16]}}
        ).expand()
        clean, orphan, empty, stale, _ = specs
        store.record_completed(clean, {"step_time": 1.0})
        store.record_running(orphan, owner="w0", lease_expires=1.0)
        store.record_completed(empty, {})
        store.append(RunRecord(
            run_hash=stale.run_hash(), status=COMPLETED, spec=stale.payload(),
            result={"step_time": 2.0}, numerics=NUMERICS_VERSION - 1,
        ))
        with open(store.index_path, "a", encoding="utf-8") as fh:
            fh.write('{"run_hash": "dead", "status": "comp\n')
        assert store.torn_lines() == [5]
        summary = campaign_summary(store)
        assert {key: summary[key] for key in
                ("interrupted", "torn", "no_result", "stale")} == {
            "interrupted": 1, "torn": 1, "no_result": 1, "stale": 1,
        }
        assert summary["completed"] == 3

        # A deck naming the stale hash runs it again, as plan_runs does.
        (outcome,) = CampaignExecutor(store, max_workers=1).submit([stale])
        assert outcome.status == COMPLETED and not outcome.skipped
        assert outcome.numerics == NUMERICS_VERSION
        assert campaign_summary(store)["stale"] == 0

    def test_clean_store_audits_clean(self, store, spec):
        store.record_completed(spec, {"ok": 1})
        summary = campaign_summary(store)
        assert [summary[key] for key in
                ("interrupted", "torn", "no_result", "stale")] == [0] * 4
        assert store.torn_lines() == []


class TestSchema:
    """The dataclass is the record schema: the same keys both ways."""

    def test_to_json_writes_every_field_sorted(self, store, spec):
        record = store.record_completed(spec, {"ok": 1})
        data = json.loads(record.to_json())
        assert list(data) == sorted(
            field.name for field in dataclasses.fields(RunRecord)
        )
        assert RunRecord.from_json(record.to_json()) == record

    @pytest.mark.parametrize("missing", ["run_hash", "status"])
    def test_line_without_hash_or_status_is_unparseable(
        self, store, spec, missing, caplog
    ):
        data = json.loads(store.record_completed(spec, {"ok": 1}).to_json())
        del data[missing]
        with open(store.index_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(data) + "\n")
        with caplog.at_level("WARNING", logger="repro.campaign.store"):
            records = list(store.iter_records())
        assert [r.status for r in records] == [COMPLETED]
        assert any("unparseable" in rec.message for rec in caplog.records)


class TestCachedReads:
    def test_append_by_another_store_is_seen(self, tmp_path, spec):
        """Two stores on one root: the first one's cached view picks up
        the second one's append on its next read."""
        first = CampaignStore("t", root=str(tmp_path))
        second = CampaignStore("t", root=str(tmp_path))
        first.record_failed(spec, "boom")
        assert first.latest_records()[spec.run_hash()].status == FAILED
        assert first.load_result(spec.run_hash()) is None
        second.record_completed(spec, {"step_time": 2.5})
        assert first.latest_records()[spec.run_hash()].status == COMPLETED
        assert first.load_result(spec.run_hash()) == {"step_time": 2.5}

    def test_unchanged_index_is_not_parsed_again(self, store, spec, monkeypatch):
        store.record_completed(spec, {"ok": 1})
        assert spec.run_hash() in store.latest_records()
        monkeypatch.setattr(
            store, "iter_records",
            lambda: pytest.fail("index parsed again although unchanged"),
        )
        for _ in range(3):
            assert store.load_result(spec.run_hash()) == {"ok": 1}


class TestLayout:
    def test_run_dir_and_checkpoint_path(self, store):
        path = store.run_dir("abc123", create=True)
        assert os.path.isdir(path)
        assert store.checkpoint_path("abc123").startswith(path)

    def test_invalid_campaign_names(self, tmp_path):
        for bad in ("", ".", "..", f"a{os.sep}b"):
            with pytest.raises(ConfigurationError):
                CampaignStore(bad, root=str(tmp_path))


class TestResultsRoot:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        assert results_root() == "results"

    def test_env_override_normpathed(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path) + os.sep + "x" + os.sep)
        assert results_root() == os.path.join(str(tmp_path), "x")
        store = CampaignStore("c")
        assert store.root == os.path.join(str(tmp_path), "x", "campaigns", "c")

    def test_benchmark_harness_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        import importlib
        import sys

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks"))
        try:
            import common
            importlib.reload(common)
            assert common.RESULTS_DIR == os.path.normpath(str(tmp_path))
            saved = common.save_results("probe", {"v": 1})
            assert saved.startswith(os.path.normpath(str(tmp_path)))
            assert common.load_results("probe") == {"v": 1}
        finally:
            monkeypatch.delenv("REPRO_RESULTS_DIR")
            importlib.reload(common)
            sys.path.pop(0)


class TestLeaseFields:
    """Claim-marker leases (owner + lease_expires) and the
    mixed-version story: indexes written before the fields existed must
    keep parsing, and old readers must survive new records."""

    def test_record_running_stamps_lease(self, store, spec):
        store.record_running(spec, owner="w0", lease_expires=123.5)
        (record,) = store.iter_records()
        assert record.owner == "w0"
        assert record.lease_expires == 123.5

    def test_record_running_default_is_anonymous(self, store, spec):
        store.record_running(spec)
        (record,) = store.iter_records()
        assert record.owner is None
        assert record.lease_expires == 0.0

    def test_pre_lease_index_line_parses_with_defaults(self, store, spec):
        """A record appended by a pre-lease writer (no owner /
        lease_expires keys) reads back as claimant-unknown,
        lease-lapsed."""
        old_line = json.dumps({
            "run_hash": spec.run_hash(),
            "status": "running",
            "spec": spec.payload(),
            "result": {},
            "error": None,
            "elapsed": 0.0,
            "timestamp": 1000.0,
            "resumed_from_step": 0,
        })
        os.makedirs(os.path.dirname(store.index_path), exist_ok=True)
        with open(store.index_path, "a", encoding="utf-8") as fh:
            fh.write(old_line + "\n")
        (record,) = store.iter_records()
        assert record.owner is None
        assert record.lease_expires == 0.0
        assert record.status == "running"

    def test_old_reader_ignores_new_keys(self, store, spec):
        """The reverse direction: a new record round-trips through the
        defaults-based parser even when extra future keys are present
        (the parser takes only the keys it knows)."""
        store.record_running(spec, owner="w1", lease_expires=99.0)
        with open(store.index_path, encoding="utf-8") as fh:
            data = json.loads(fh.readline())
        data["some_future_field"] = {"x": 1}
        record = RunRecord.from_json(json.dumps(data))
        assert record.owner == "w1"
        assert record.run_hash == spec.run_hash()

    def test_mixed_version_store(self, store, spec):
        """Old anonymous claims and new leased claims coexist in one
        index: expired_claims reports the old claim (no lease = always
        lapsed) and respects the new claim's live deadline."""
        import time as _time

        old = CampaignDeck.from_dict(
            {"mode": "model", "base": {"order": "low"}, "grid": {"ranks": [2]}}
        ).expand()[0]
        old_line = json.dumps({
            "run_hash": old.run_hash(),
            "status": "running",
            "spec": old.payload(),
            "timestamp": 1000.0,
        })
        os.makedirs(os.path.dirname(store.index_path), exist_ok=True)
        with open(store.index_path, "a", encoding="utf-8") as fh:
            fh.write(old_line + "\n")
        store.record_running(
            spec, owner="w0", lease_expires=_time.time() + 3600.0
        )

        claimed = store.claimed_runs()
        assert set(claimed) == {old.run_hash(), spec.run_hash()}
        expired = store.expired_claims()
        assert set(expired) == {old.run_hash()}

    def test_expired_claims_clock(self, store, spec):
        store.record_running(spec, owner="w0", lease_expires=500.0)
        assert set(store.expired_claims(now=499.0)) == set()
        assert set(store.expired_claims(now=500.0)) == {spec.run_hash()}
        # A terminal record clears the claim entirely.
        store.record_completed(spec, {"ok": 1})
        assert store.claimed_runs() == {}
        assert store.expired_claims(now=10**12) == {}
