"""Campaign executor batch fast path: routing, store parity, telemetry."""

import numpy as np
import pytest

from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    campaign_summary,
)

DECK = {
    "name": "fastpath",
    "mode": "functional",
    "steps": 3,
    "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
    "ic": {"kind": "multi_mode", "magnitude": 0.05, "period": 3},
    "grid": {"atwood": [0.1, 0.3, 0.5, 0.7, 0.9, 0.95]},
}


def specs(**deck_overrides):
    deck = dict(DECK)
    deck.update(deck_overrides)
    return CampaignDeck.from_dict(deck).expand()


def run(tmp_path, name, specs_, **executor_kwargs):
    store = CampaignStore(name, root=str(tmp_path))
    executor = CampaignExecutor(store, max_workers=2, **executor_kwargs)
    outcomes = executor.submit(specs_)
    return store, executor, outcomes


def run_solo(tmp_path, name, specs_, **executor_kwargs):
    """``run`` in submissions of three: under the fleet minimum, so every
    run is its own lease."""
    store = CampaignStore(name, root=str(tmp_path))
    executor = CampaignExecutor(store, max_workers=2, **executor_kwargs)
    outcomes = [
        outcome
        for start in range(0, len(specs_), 3)
        for outcome in executor.submit(specs_[start:start + 3])
    ]
    return store, executor, outcomes


class TestRouting:
    def test_eligible_deck_absorbed_into_fleet(self, tmp_path):
        store, executor, outcomes = run(tmp_path, "fleet", specs())
        assert [o.status for o in outcomes] == ["completed"] * 6
        snap = executor.metrics.snapshot()
        assert snap["campaign.batch_absorbed"] == 6.0
        assert snap["campaign.runs_completed"] == 6.0
        # The fleet's own metrics live in each member's telemetry.
        telemetry = store.load_telemetry(outcomes[0].run_hash)
        assert telemetry["metrics"]["batch.scenario_steps"] == 18.0

    def test_groups_split_by_grid_run_solo(self, tmp_path):
        split = specs(grid={"atwood": [0.1, 0.3, 0.5],
                            "num_nodes": [[16, 16], [12, 12]]})
        store, executor, outcomes = run(tmp_path, "serial", split)
        assert [o.status for o in outcomes] == ["completed"] * 6
        assert "campaign.batch_absorbed" not in executor.metrics.snapshot()

    def test_small_groups_run_solo(self, tmp_path):
        three = specs()[:3]
        store, executor, outcomes = run(tmp_path, "small", three)
        assert [o.status for o in outcomes] == ["completed"] * 3
        assert "campaign.batch_absorbed" not in executor.metrics.snapshot()

    def test_ineligible_specs_stay_on_normal_path(self, tmp_path):
        # ranks=2 and a tree solver are both fleet-ineligible.
        mixed = specs(grid={"ranks": [1, 2]}) + specs(
            base={"order": "high", "br_solver": "tree", "num_nodes": [16, 16],
                  "dt": 0.002, "eps": 0.1},
            grid={"atwood": [0.2, 0.4]},
        )
        store, executor, outcomes = run(tmp_path, "mixed", mixed)
        assert all(o.status == "completed" for o in outcomes)
        assert "campaign.batch_absorbed" not in executor.metrics.snapshot()

    def test_resubmit_hits_store(self, tmp_path):
        store, executor, first = run(tmp_path, "dedup", specs())
        again = CampaignExecutor(store, max_workers=2).submit(specs())
        assert all(o.skipped for o in again)
        assert campaign_summary(store)["runs"] == 6


class TestStoreParity:
    """Satellite: fleet-absorbed runs count identically to pool runs."""

    def test_summary_and_records_match_serial_path(self, tmp_path):
        s_store, _, s_out = run_solo(tmp_path, "par_serial", specs())
        f_store, _, f_out = run(tmp_path, "par_fleet", specs())

        s_sum = campaign_summary(s_store)
        f_sum = campaign_summary(f_store)
        for key in ("runs", "completed", "failed", "interrupted", "resumed"):
            assert f_sum[key] == s_sum[key], key

        s_rec = s_store.latest_records()
        f_rec = f_store.latest_records()
        assert set(s_rec) == set(f_rec)
        for run_hash, record in s_rec.items():
            other = f_rec[run_hash]
            assert other.status == record.status == "completed"
            # Identical physics: the result payloads match bit for bit.
            assert other.result == record.result
            assert other.result["kind"] == "functional"
            assert np.isfinite(other.result["diagnostics"]["amplitude"])

    def test_worker_type_parity_with_process_pool(self, tmp_path):
        f_store, _, _ = run(tmp_path, "wt_fleet", specs())
        p_store, _, _ = run_solo(tmp_path, "wt_pool", specs())
        f_rec = f_store.latest_records()
        p_rec = p_store.latest_records()
        assert set(f_rec) == set(p_rec)
        for run_hash in f_rec:
            assert f_rec[run_hash].status == p_rec[run_hash].status
            assert (
                f_rec[run_hash].result["diagnostics"]
                == p_rec[run_hash].result["diagnostics"]
            )


class TestTelemetry:
    def test_each_absorbed_run_gets_telemetry_artifact(self, tmp_path):
        store, executor, outcomes = run(tmp_path, "telem", specs())
        latest = store.latest_records()
        for outcome in outcomes:
            payload = store.load_telemetry(outcome.run_hash)
            assert payload is not None
            assert payload["fleet_size"] == 6
            record = latest[outcome.run_hash]
            assert record.telemetry is payload
            assert record.spec["ranks"] == 1
            assert record.run_hash == outcome.run_hash

    def test_failure_isolation_from_bad_group_member(self, tmp_path,
                                                     monkeypatch):
        """A spec whose IC evaluation raises fails the fleet's remaining
        members honestly — nothing is recorded completed that did not
        finish, and a resubmit retries the failures."""
        bad = specs(ic={"kind": "multi_mode", "magnitude": 0.05,
                        "period": 3, "seed": 1},
                    grid={"atwood": [0.1, 0.3, 0.5, 0.7]})
        # A typo'd IC kind can no longer reach the fleet — the
        # InitialCondition constructor rejects it — so inject the
        # evaluation-time failure at the fleet's initial_state hook
        # instead: one member carries a sentinel seed (unique run hash,
        # fleet-compatible config) that the sabotaged hook refuses.
        import dataclasses

        from repro.batch import fleet as fleet_module

        broken = dataclasses.replace(
            bad[0], ic=dataclasses.replace(bad[0].ic, seed=666)
        )
        real_initial_state = fleet_module.initial_state

        def sabotaged(ic, *args, **kwargs):
            if ic.seed == 666:
                raise RuntimeError("injected IC evaluation failure")
            return real_initial_state(ic, *args, **kwargs)

        monkeypatch.setattr(fleet_module, "initial_state", sabotaged)
        group = [broken] + bad[1:]
        store, executor, outcomes = run(tmp_path, "bad", group)
        statuses = {o.run_hash: o.status for o in outcomes}
        latest = store.latest_records()
        assert statuses[broken.run_hash()] == "failed"
        assert latest[broken.run_hash()].status == "failed"
        # No phantom completions: every completed outcome has a
        # completed record with real diagnostics.
        for outcome in outcomes:
            if outcome.status == "completed":
                record = latest[outcome.run_hash]
                assert record.status == "completed"
                assert np.isfinite(
                    record.result["diagnostics"]["vorticity_norm"]
                )
