"""Completed records carry the numerics stamp, and a completed record
with another stamp is a store miss that runs again."""

import hashlib
import json
import os
from pathlib import Path

from repro.campaign import CampaignDeck, CampaignExecutor, CampaignStore
from repro.core.solver import NUMERICS_VERSION
from repro.machine import LASSEN

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "figures"


def specs():
    return CampaignDeck.from_dict(
        {"name": "stamp", "mode": "model", "base": {"order": "low"},
         "grid": {"ranks": [4, 16]}}
    ).expand()


def unstamped_line(spec, result):
    """A completed index line as the store wrote it before numerics
    stamps existed: every other key, sorted, and no ``numerics``."""
    return json.dumps(
        {"elapsed": 0.5, "error": None, "lease_expires": 0.0, "owner": None,
         "result": result, "resumed_from_step": 0,
         "run_hash": spec.run_hash(), "spec": spec.payload(),
         "status": "completed", "timestamp": 1000.0},
        sort_keys=True,
    )


class TestNumericsStamp:
    def test_unstamped_completed_record_runs_again(self, tmp_path, campaign_log):
        store = CampaignStore("stamp", root=str(tmp_path))
        old, fresh = specs()
        os.makedirs(store.root)
        with open(store.index_path, "w", encoding="utf-8") as fh:
            fh.write(unstamped_line(
                old, {"kind": "model", "machine": LASSEN.name, "step_time": -1.0}
            ) + "\n")

        outcomes = CampaignExecutor(store, max_workers=1).submit([old, fresh])
        assert [o.status for o in outcomes] == ["completed", "completed"]
        assert next(store.iter_records()).numerics == 0
        assert [o.numerics for o in outcomes] == [NUMERICS_VERSION] * 2
        assert outcomes[0].result["step_time"] > 0
        assert f"1 stale (numerics 0 ≠ {NUMERICS_VERSION})" in campaign_log.text
        assert store.load_result(old.run_hash()) == outcomes[0].result

    def test_resubmit_with_the_same_stamp_is_all_hits(self, tmp_path, campaign_log):
        store = CampaignStore("stamp", root=str(tmp_path))
        first = CampaignExecutor(store, max_workers=1).submit(specs())
        again = CampaignExecutor(store, max_workers=1).submit(specs())
        assert all(o.skipped for o in again)
        assert [o.result for o in again] == [o.result for o in first]
        assert "stale" not in campaign_log.text


#: sha256 prefix of every pinned state digest and golden figure, per
#: ``NUMERICS_VERSION`` — see :func:`pinned_numerics`.
NUMERICS_PINS = {
    2: "6e9ac969ae0d11bf",
    3: "d7e53a3681693b0b",
    4: "a330ff0763edbeb3",
}


def pinned_numerics() -> str:
    """sha256 prefix of the pinned digest tables and the golden figures:
    what a ``NUMERICS_VERSION`` promises stays put."""
    from tests.backend.test_panel_pool import PARENT_FLEET_STATES, PARENT_STATES
    from tests.core.test_cutoff_chunks import CUTOFF_STATES, DECK_CUTOFF_STATES

    h = hashlib.sha256()
    for table in (PARENT_STATES, PARENT_FLEET_STATES, DECK_CUTOFF_STATES,
                  CUTOFF_STATES):
        h.update(repr(sorted(table.items())).encode())
    for path in sorted(GOLDEN.glob("*.json")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def test_pinned_numerics_change_only_with_a_version_bump():
    """A pinned digest or golden figure that changes fails here until
    ``NUMERICS_VERSION`` is bumped and the new hash recorded."""
    assert NUMERICS_PINS.get(NUMERICS_VERSION) == pinned_numerics(), (
        "pinned state digests or golden figures changed: bump "
        "repro.core.solver.NUMERICS_VERSION and record the new hash in "
        "NUMERICS_PINS"
    )
