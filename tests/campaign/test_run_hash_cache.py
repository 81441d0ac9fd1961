"""``RunSpec.run_hash()`` is computed once per spec object.

The hash is canonical JSON + sha256 of a frozen spec; it sits on the
serial path of dedup, fleet partitioning, every grant and every
completion, so it is kept on the instance — outside the dataclass
fields, where it cannot leak into the payload it is derived from.
"""

import dataclasses
import glob
import hashlib
import json
import os
import sys

import pytest

from repro.campaign import CampaignDeck, CampaignExecutor, CampaignStore, RunSpec

DECKS = sorted(
    glob.glob(
        os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir,
            "examples", "decks", "*.json",
        )
    )
)


def _uncached(spec):
    blob = json.dumps(spec.payload(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("path", DECKS, ids=os.path.basename)
def test_cached_hash_is_the_uncached_hash(path):
    specs = CampaignDeck.from_file(path).expand()
    assert specs
    for spec in specs:
        want = _uncached(spec)
        assert spec.run_hash() == want      # first call computes ...
        assert spec.run_hash() == want      # ... later calls read it back
        rebuilt = RunSpec.from_payload(spec.payload(), campaign=spec.campaign)
        assert rebuilt.run_hash() == want
        assert rebuilt == spec


def test_cache_stays_outside_the_dataclass():
    spec = CampaignDeck.from_file(DECKS[0]).expand()[0]
    fresh = dataclasses.replace(spec)
    payload, text = spec.payload(), repr(spec)
    spec.run_hash()
    # Not a field: payload, asdict, equality and repr do not see it ...
    assert spec.payload() == payload and repr(spec) == text
    assert "_run_hash" not in dataclasses.asdict(spec)
    assert spec == fresh and hash(spec) == hash(fresh)
    # ... and a replaced spec carries nothing over: it hashes afresh.
    longer = dataclasses.replace(spec, steps=spec.steps + 1)
    assert "_run_hash" not in vars(longer)
    assert longer.run_hash() == _uncached(longer) != spec.run_hash()


def test_submit_hashes_each_spec_object_once(tmp_path, monkeypatch):
    deck = CampaignDeck.from_dict({
        "name": "hash32", "mode": "functional", "steps": 1,
        "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
        "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
        "grid": {"atwood": [0.1 + 0.02 * i for i in range(16)],
                 "fft_config": [0, 7]},
    })
    specs = deck.expand()
    assert len(specs) == 32
    hashed = {}  # id(spec) -> canonicalisations made on behalf of run_hash
    real_payload = RunSpec.payload

    def counted(self):
        if sys._getframe(1).f_code.co_name.endswith("run_hash"):
            hashed[id(self)] = hashed.get(id(self), 0) + 1
        return real_payload(self)

    monkeypatch.setattr(RunSpec, "payload", counted)
    store = CampaignStore("hash32", root=str(tmp_path))
    executor = CampaignExecutor(store, max_workers=1)
    outcomes = executor.submit(specs)
    assert [o.status for o in outcomes] == ["completed"] * 32
    # Dedup, fleet partitioning, board marks and store records all ask
    # for the hash; each spec object canonicalised itself for it once.
    assert [hashed.get(id(spec)) for spec in specs] == [1] * 32
