"""Every completed functional record carries the digest of its final
state and the arithmetic canary of the host that computed it."""

import json
import os

from repro.campaign import CampaignDeck, CampaignExecutor, CampaignStore
from repro.campaign.store import RunRecord
from repro.core.solver import NUMERICS_VERSION, arithmetic_canary


def specs(n=4, *, ranks=1, mode="functional"):
    return CampaignDeck.from_dict({
        "name": "digest", "mode": mode, "steps": 2, "ranks": ranks,
        "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
        "ic": {"kind": "multi_mode", "magnitude": 0.05, "period": 3},
        "grid": {"atwood": [0.1 + 0.1 * k for k in range(n)]},
    }).expand()


def executor(tmp_path, name):
    return CampaignExecutor(
        CampaignStore(name, root=str(tmp_path)), max_workers=1
    )


def test_fleet_member_records_its_solo_digest(tmp_path):
    group = specs()
    members = executor(tmp_path, "fleet").run_fleet(group)
    solo = executor(tmp_path, "solo")
    for spec, member in zip(group, members):
        alone = solo.run_one(spec)
        assert member.status == alone.status == "completed"
        assert member.digest == alone.digest
        assert member.host == alone.host == arithmetic_canary()
    assert len({m.digest for m in members}) == len(group)


def test_two_rank_run_records_the_same_digest_in_two_stores(tmp_path):
    (spec,) = specs(1, ranks=2)
    digests = []
    for name in ("first", "second"):
        run = executor(tmp_path, name)
        run.run_one(spec)
        digests.append(run.store.latest_records()[spec.run_hash()].digest)
    assert digests[0] is not None and digests[0] == digests[1]


def test_model_run_records_no_digest(tmp_path):
    (spec,) = specs(1, ranks=4, mode="model")
    record = executor(tmp_path, "model").run_one(spec)
    assert record.status == "completed"
    assert (record.digest, record.host) == (None, None)


def test_line_written_before_digests_parses_and_hits(tmp_path):
    (spec,) = specs(1)
    store = CampaignStore("old", root=str(tmp_path))
    os.makedirs(store.root)
    line = json.dumps(
        {"elapsed": 0.5, "error": None, "lease_expires": 0.0,
         "numerics": NUMERICS_VERSION, "owner": None,
         "result": {"kind": "functional", "diagnostics": {}},
         "resumed_from_step": 0, "run_hash": spec.run_hash(),
         "spec": spec.payload(), "status": "completed", "telemetry": None,
         "timestamp": 1000.0},
        sort_keys=True,
    )
    with open(store.index_path, "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    record = store.latest_records()[spec.run_hash()]
    assert record == RunRecord.from_json(line)
    assert (record.digest, record.host) == (None, None)
    assert spec.run_hash() in store.completed_hashes()
