"""Retired config fields: the cutoff solver's Verlet-skin cache is gone,
and with it ``skin`` / ``rebuild_freq``; every solve runs on the blocked
engine, so ``backend`` went too.  Decks, packs and stored payloads that
spell them at the value every run had (``"blocked"`` for the engine)
still load, and every content address stays where it was; any other
value is an error that names the field."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    RunSpec,
    estimate_cost,
)
from repro.campaign.deck import DeckError, build_config
from repro.campaign.report import replay_records
from repro.cli.rocketrig import _run_params, build_parser, main
from repro.core import InitialCondition, SolverConfig

CUTOFF = {
    "num_nodes": [16, 16], "order": "high", "br_solver": "cutoff",
    "cutoff": 0.8, "periodic": [False, False],
}
IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=4)

#: ``RunSpec(build_config({**CUTOFF, "skin": 0.0, "rebuild_freq": 0,
#: "backend": "blocked"}), IC, ranks=2, steps=3).run_hash()`` recorded
#: while all three fields existed: the spec without ``backend`` hashed
#: as ``"auto"`` then (``6a19ef3d723d6aa0``) and as ``"blocked"`` now.
PARENT_CUTOFF_HASH = "3241955e9e578959"


#: ``estimate_cost`` of a 256², 10-step model-mode cutoff spec per rank
#: count, recorded while the cost model still took a skin (at 0).
PARENT_MODELED_COSTS = {
    1: 7.0541348468129215,
    4: 2.4728948180405443,
    64: 1.061550879118069,
    1024: 1.3432029905054776,
}

#: The e2e ``cutoff_r2`` workload's generated config, which still spells
#: ``"skin": 0.0``, and the hash of its seed-11 spec recorded with it.
CUTOFF_R2 = {
    "num_nodes": [64, 64], "low": [-math.pi, -math.pi],
    "high": [math.pi, math.pi], "periodic": [False, False], "order": "high",
    "br_solver": "cutoff", "cutoff": 0.5, "skin": 0.0,
    "dt": 0.002, "eps": 0.05, "backend": "blocked",
}
PARENT_CUTOFF_R2_HASH = "ed1b5640cc10d306"


def cutoff_spec(**retired):
    return RunSpec(config=build_config({**CUTOFF, **retired}), ic=IC,
                   ranks=2, steps=3)


@pytest.mark.parametrize("retired", [
    {"skin": 0.0, "rebuild_freq": 0}, {"skin": 0.0}, {},
], ids=str)
def test_cutoff_run_hash_did_not_move(retired):
    assert cutoff_spec(**retired).run_hash() == PARENT_CUTOFF_HASH


def test_payload_keeps_the_retired_keys_at_their_values():
    spec = cutoff_spec()
    config = spec.payload()["config"]
    assert (config["skin"], config["rebuild_freq"]) == (0.0, 0)
    rebuilt = RunSpec.from_payload(spec.payload())
    assert rebuilt.run_hash() == spec.run_hash() and rebuilt == spec


def test_the_fields_left_the_config_and_the_cli():
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert not {"skin", "rebuild_freq", "backend"} & fields
    for flag in ("--skin", "--rebuild-freq", "--backend"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([flag, "0"])


@pytest.mark.parametrize("field,value", [("skin", 0.2), ("rebuild_freq", 3)])
def test_another_value_is_a_deck_error_in_a_bare_config(field, value):
    with pytest.raises(DeckError, match="neighbor cache was removed") as err:
        build_config({**CUTOFF, field: value})
    assert err.value.field == field


@pytest.mark.parametrize("field,value", [("skin", 0.2), ("rebuild_freq", 3)])
@pytest.mark.parametrize("where", ["base", "grid"])
def test_another_value_is_a_deck_error_in_a_deck(field, value, where):
    deck = {"name": "retired", "base": dict(CUTOFF)}
    if where == "base":
        deck["base"][field] = value
    else:
        deck["grid"] = {field: [value]}
    with pytest.raises(DeckError, match="neighbor cache was removed") as err:
        CampaignDeck.from_dict(deck).expand()
    assert err.value.field == field


def test_a_deck_at_the_retired_values_expands_to_the_same_runs():
    plain = CampaignDeck.from_dict({"name": "d", "base": dict(CUTOFF)})
    spelled = CampaignDeck.from_dict({
        "name": "d", "base": {**CUTOFF, "skin": 0.0},
        "grid": {"rebuild_freq": [0]},
    })
    assert ([s.run_hash() for s in spelled.expand()]
            == [s.run_hash() for s in plain.expand()])


@pytest.mark.parametrize("ranks", sorted(PARENT_MODELED_COSTS))
def test_modeled_cutoff_cost_did_not_move(ranks):
    spec = RunSpec(config=build_config(dict(CUTOFF, num_nodes=[256, 256])),
                   ic=IC, ranks=ranks, steps=10, mode="model")
    assert estimate_cost(spec) == PARENT_MODELED_COSTS[ranks]


def test_the_e2e_cutoff_config_loads_at_its_old_address():
    ic = InitialCondition(kind="multi_mode", magnitude=0.05, period=4, seed=11)
    spec = RunSpec(config=build_config(CUTOFF_R2), ic=ic, ranks=2, steps=60)
    assert spec.run_hash() == PARENT_CUTOFF_R2_HASH


def test_a_toml_deck_at_the_retired_value_loads(tmp_path):
    path = tmp_path / "old.toml"
    path.write_text(
        'mode = "model"\n[base]\nbr_solver = "cutoff"\norder = "high"\n'
        "skin = 0.0\nrebuild_freq = 0\n"
    )
    (spec,) = CampaignDeck.from_file(path).expand()
    assert spec.config.br_solver == "cutoff"
    assert spec.payload()["config"]["skin"] == 0.0


def test_a_pack_with_a_skin_fails_at_expansion_naming_the_field(tmp_path):
    path = tmp_path / "skinned.json"
    path.write_text(json.dumps(
        {"config": {"br_solver": "cutoff", "order": "high", "skin": 0.1}}
    ))
    deck = CampaignDeck.from_file(path)
    with pytest.raises(DeckError, match="field 'skin': skin = 0.1"):
        deck.expand()


# -- the engine field ----------------------------------------------------------

#: A 16² low-order deck, and the hash the parent commit gave its one run
#: with ``"backend": "blocked"`` spelled out.  Without the key the run
#: hashed as ``"auto"`` there, whatever engine ``$REPRO_BACKEND`` chose;
#: now both spellings are this one blocked run.
ENGINE_DECK = {
    "name": "engine", "mode": "functional", "steps": 2,
    "base": {"num_nodes": [16, 16], "order": "low", "dt": 0.004},
    "ic": {"kind": "single_mode", "magnitude": 0.05},
}
PARENT_BLOCKED_HASH = "28370743ecc1b6e9"

#: The e2e campaign deck, which spells ``"backend": "blocked"``, and the
#: hash of its first spec recorded at the parent commit.
MIXED_DECK = (Path(__file__).resolve().parents[2]
              / "benchmarks" / "e2e" / "decks" / "campaign_mixed.json")
PARENT_MIXED_FIRST_HASH = "1de616c758c8640d"


def engine_deck(**base):
    return dict(ENGINE_DECK, base={**ENGINE_DECK["base"], **base})


@pytest.mark.parametrize("base", [{}, {"backend": "blocked"}], ids=str)
def test_a_deck_run_hashes_as_the_explicit_blocked_run(base):
    (spec,) = CampaignDeck.from_dict(engine_deck(**base)).expand()
    assert spec.run_hash() == PARENT_BLOCKED_HASH
    assert spec.payload()["config"]["backend"] == "blocked"


def test_the_e2e_campaign_deck_keeps_its_addresses():
    assert (CampaignDeck.from_file(MIXED_DECK).expand()[0].run_hash()
            == PARENT_MIXED_FIRST_HASH)


@pytest.mark.parametrize("engine", ["numpy", "auto"])
@pytest.mark.parametrize("where", ["base", "grid"])
def test_another_engine_is_a_deck_error(engine, where):
    deck = engine_deck()
    if where == "base":
        deck["base"]["backend"] = engine
    else:
        deck["grid"] = {"backend": ["blocked", engine]}
    with pytest.raises(DeckError, match="blocked engine") as err:
        CampaignDeck.from_dict(deck).expand()
    assert err.value.field == "backend"


@pytest.mark.parametrize("engine", ["numpy", "auto"])
def test_another_engine_in_a_cli_pack_is_a_deck_error(
    engine, tmp_path, monkeypatch
):
    pack = {
        "name": "engine-pack", "family": "test",
        "provenance": {"source": "conf_sc_StewartB24", "section": "§4"},
        "config": {**ENGINE_DECK["base"], "backend": engine},
    }
    (tmp_path / "engine-pack.json").write_text(json.dumps(pack))
    monkeypatch.setenv("REPRO_SCENARIO_PATH", str(tmp_path))
    args = build_parser().parse_args(["--scenario", "engine-pack"])
    with pytest.raises(DeckError) as err:
        _run_params(args)
    assert err.value.field == "config.backend"
    with pytest.raises(SystemExit, match="config.backend"):
        main(["--scenario", "engine-pack"])


def test_a_stored_auto_run_is_skipped_by_replay_not_mismatched(tmp_path):
    """A completed record the parent wrote for a deck without an engine
    carries ``"backend": "auto"`` and that spelling's hash.  Its spec no
    longer loads, so a replay counts it as skipped, and the same deck
    now addresses another run: no store hit serves it."""
    deck = CampaignDeck.from_dict(engine_deck())
    (spec,) = deck.expand()
    store = CampaignStore(deck.name, root=str(tmp_path))
    outcomes = CampaignExecutor(store, max_workers=1).submit([spec])
    assert [o.status for o in outcomes] == ["completed"]

    payload = json.loads(json.dumps(spec.payload()))
    payload["config"]["backend"] = "auto"
    auto_hash = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    index = Path(store.index_path)
    text = index.read_text(encoding="utf-8")
    index.write_text(text.replace(spec.run_hash(), auto_hash)
                     .replace('"backend": "blocked"', '"backend": "auto"'),
                     encoding="utf-8")
    store = CampaignStore(deck.name, root=str(tmp_path))
    assert store.completed_hashes() == {auto_hash} != {spec.run_hash()}

    replay = replay_records(store, 8)
    assert replay["mismatched"] == [] and replay["replayed"] == 0
    (reason, count), = replay["skipped"].items()
    assert count == 1
    assert reason.startswith("spec no longer loads") and "'backend'" in reason
