"""Pack→RunSpec parity: packs reproduce hand-coded configs exactly.

The refactor's contract: a scenario pack is *pure data* — resolving one
must produce the identical ``SolverConfig``/``InitialCondition`` (and
therefore the identical content hash, store record and diagnostics) as
the pre-registry hand-coded equivalent.  Two paper scenarios are pinned
here verbatim from the pre-refactor ``examples/`` drivers; a scenario-
axis deck is then proven store-record-compatible with its explicit
counterpart by dedup (pure store hits) and diagnostic equality.
"""

import numpy as np
import pytest

from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    RunSpec,
)
from repro.campaign.deck import build_config
from repro.core import InitialCondition, SolverConfig
from repro.scenarios import get_scenario, load_registry


def _deck_spec(name, ranks, steps):
    """The one RunSpec a deck naming only the pack ``name`` expands to."""
    (spec,) = CampaignDeck.from_dict({
        "name": "parity", "mode": "functional", "ranks": ranks,
        "steps": steps, "base": {"scenario": name},
    }).expand()
    return spec


#: Run hash of each pack's one run (its own steps / ranks).  A change in
#: how packs are read must move none: each is a store entry's address.
#: Packs never name an engine, so each hashed as ``"auto"`` while the
#: engine was a config field; these are the hashes the same runs had
#: with ``"backend": "blocked"`` spelled out, which is what they are now.
PACK_HASHES = {
    "atwood-high": "d5f3ebea1a567b6e",
    "atwood-low": "194e1d2fb8330165",
    "atwood-mid": "54941ad52eb428e2",
    "cfl-loose": "71da66d273460bf7",
    "cfl-tight": "e77936b8f0e15ebd",
    "gaussian-convergence": "faa808368ad5507f",
    "sech2-convergence": "aa7b7c63d60c10e4",
    "multimode-free": "c20fd0ad9e533758",
    "multimode-periodic": "a0d67393ab7ed8fd",
    "multimode-quickstart": "ebba497211e67f9d",
    "singlemode-periodic": "af6015604d5f39d7",
    "singlemode-rollup": "43c71cbb5234cebb",
}


def test_every_shipped_pack_is_pinned():
    assert sorted(load_registry()) == sorted(PACK_HASHES)


@pytest.mark.parametrize("name", sorted(PACK_HASHES))
def test_pack_run_hash_is_pinned(name):
    (spec,) = get_scenario(name).expand()
    assert spec.run_hash() == PACK_HASHES[name]


class TestPaperScenarioParity:
    """Hand-coded configs copied verbatim from the pre-registry examples."""

    def test_singlemode_rollup_matches_figure2_driver(self):
        hand_config = SolverConfig(
            num_nodes=(32, 32),
            low=(-1.0, -1.0),
            high=(1.0, 1.0),
            periodic=(False, False),
            order="high",
            br_solver="cutoff",
            cutoff=0.8,
            atwood=0.5,
            gravity=25.0,
            dt=0.01,
            eps=0.08,
            spatial_low=(-1.5, -1.5, -1.5),
            spatial_high=(1.5, 1.5, 1.5),
        )
        hand_ic = InitialCondition(kind="single_mode", magnitude=0.12,
                                   period=0.5)
        pack = get_scenario("singlemode-rollup")
        assert pack.expand()[0].config == hand_config
        assert pack.expand()[0].ic == hand_ic
        assert pack.ranks == 4 and pack.steps == 60
        hand_spec = RunSpec(config=hand_config, ic=hand_ic, ranks=4,
                            steps=60, mode="functional")
        assert _deck_spec("singlemode-rollup", 4, 60).run_hash() == hand_spec.run_hash()

    def test_multimode_periodic_matches_figure1_driver(self):
        hand_config = SolverConfig(
            num_nodes=(64, 64),
            low=(-np.pi, -np.pi),
            high=(np.pi, np.pi),
            periodic=(True, True),
            order="low",
            atwood=0.5,
            gravity=10.0,
            mu=0.02,
        )
        hand_ic = InitialCondition(kind="multi_mode", magnitude=0.02,
                                   period=4, seed=11)
        pack = get_scenario("multimode-periodic")
        assert pack.expand()[0].config == hand_config
        assert pack.expand()[0].ic == hand_ic
        hand_spec = RunSpec(config=hand_config, ic=hand_ic, ranks=4,
                            steps=20, mode="functional")
        assert _deck_spec("multimode-periodic", 4, 20).run_hash() == hand_spec.run_hash()

    def test_the_retired_engine_field_does_not_change_scenario_identity(self):
        # Every run is on the blocked engine: spelling it changes no
        # config and no run hash.
        pack = get_scenario("multimode-periodic")
        default = pack.expand()[0]
        named = build_config({**pack.base, "backend": "blocked"})
        assert named == default.config
        assert (RunSpec(config=named, ic=default.ic, ranks=default.ranks,
                        steps=default.steps).run_hash() == default.run_hash())


SCENARIO_DECK = {
    "name": "parity",
    "mode": "functional",
    "steps": 2,
    "base": {"num_nodes": [16, 16], "dt": 0.002},
    "grid": {"scenario": ["atwood-low", "atwood-high"]},
}

EXPLICIT_DECK = {
    "name": "parity",
    "mode": "functional",
    "steps": 2,
    "base": {
        # atwood-* pack fields written out by hand, with the deck's
        # base overrides (16x16, dt) already applied.
        "num_nodes": [16, 16],
        "low": [-3.141592653589793, -3.141592653589793],
        "high": [3.141592653589793, 3.141592653589793],
        "periodic": [True, True],
        "order": "low",
        "gravity": 10.0,
        "mu": 0.02,
        "dt": 0.002,
    },
    "ic": {"kind": "multi_mode", "magnitude": 0.05, "period": 3,
           "seed": 12345},
    "grid": {"atwood": [0.1, 0.9]},
}


class TestDeckParity:
    def test_scenario_axis_hashes_equal_explicit_deck(self):
        scenario_specs = CampaignDeck.from_dict(SCENARIO_DECK).expand()
        explicit_specs = CampaignDeck.from_dict(EXPLICIT_DECK).expand()
        assert (
            {s.run_hash() for s in scenario_specs}
            == {s.run_hash() for s in explicit_specs}
        )

    def test_store_records_dedup_across_deck_styles(self, tmp_path):
        """Run the scenario-axis deck, then submit the explicit deck to
        the same store: every run must be a store hit with identical
        diagnostics — pack-derived records ARE explicit records."""
        store = CampaignStore("parity", root=str(tmp_path))
        executor = CampaignExecutor(store, max_workers=2)
        first = executor.submit(CampaignDeck.from_dict(SCENARIO_DECK).expand())
        assert [o.status for o in first] == ["completed"] * 2

        second = executor.submit(CampaignDeck.from_dict(EXPLICIT_DECK).expand())
        assert all(o.skipped for o in second)
        by_hash = {o.run_hash: o for o in first}
        for outcome in second:
            assert (
                outcome.result["diagnostics"]
                == by_hash[outcome.run_hash].result["diagnostics"]
            )

    def test_single_run_cli_equals_pack(self):
        """The CLI's --scenario resolution is the pack, verbatim."""
        from repro.cli.rocketrig import _run_params, build_parser

        args = build_parser().parse_args(["--scenario", "atwood-low"])
        config, ic, steps, ranks = _run_params(args)
        pack = get_scenario("atwood-low")
        assert config == pack.expand()[0].config
        assert ic == pack.expand()[0].ic
        assert (steps, ranks) == (pack.steps, pack.ranks)

    def test_cli_flag_overrides_pack_field(self):
        from repro.cli.rocketrig import _run_params, build_parser

        args = build_parser().parse_args(
            ["--scenario", "atwood-low", "--atwood", "0.7", "--steps", "3"]
        )
        config, ic, steps, ranks = _run_params(args)
        assert config.atwood == 0.7
        assert steps == 3
        assert ranks == get_scenario("atwood-low").ranks

    def test_unknown_scenario_axis_value_fails_with_suggestion(self):
        deck = CampaignDeck.from_dict(
            {**SCENARIO_DECK, "grid": {"scenario": ["atwood-lo"]}}
        )
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="did you mean"):
            deck.expand()
