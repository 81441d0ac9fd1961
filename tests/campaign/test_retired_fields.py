"""The cutoff solver's Verlet-skin cache is gone, and with it the
``skin`` / ``rebuild_freq`` config fields.  Decks, packs and stored
payloads that spell them at the value every run had still load, and
every content address stays where it was; any other value is an error
that names the field."""

import dataclasses
import json
import math

import pytest

from repro.campaign import CampaignDeck, RunSpec, estimate_cost
from repro.campaign.deck import DeckError, build_config
from repro.cli.rocketrig import build_parser
from repro.core import InitialCondition, SolverConfig

CUTOFF = {
    "num_nodes": [16, 16], "order": "high", "br_solver": "cutoff",
    "cutoff": 0.8, "periodic": [False, False],
}
IC = InitialCondition(kind="multi_mode", magnitude=0.05, period=4)

#: ``RunSpec(build_config({**CUTOFF, "skin": 0.0, "rebuild_freq": 0}),
#: IC, ranks=2, steps=3).run_hash()`` recorded while both fields existed.
PARENT_CUTOFF_HASH = "6a19ef3d723d6aa0"


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
    assert not {"skin", "rebuild_freq"} & fields
    for flag in ("--skin", "--rebuild-freq"):
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
