"""Deck expansion: determinism, grid/zip semantics, validation."""

import pytest

from repro.campaign import CampaignDeck, RunSpec
from repro.campaign.deck import DeckError
from repro.core import InitialCondition, SolverConfig
from repro.util.errors import ConfigurationError


def make_deck(**overrides):
    data = {
        "name": "t",
        "mode": "model",
        "steps": 2,
        "base": {"order": "low", "num_nodes": [32, 32]},
        "ic": {"kind": "multi_mode", "magnitude": 0.02},
        "grid": {"fft_config": [0, 7], "ranks": [4, 16]},
    }
    data.update(overrides)
    return CampaignDeck.from_dict(data)


class TestExpansion:
    def test_grid_product_size(self):
        deck = make_deck()
        specs = deck.expand()
        assert len(specs) == 4
        assert {(s.config.fft_config.index, s.ranks) for s in specs} == {
            (0, 4), (0, 16), (7, 4), (7, 16)
        }

    def test_same_deck_same_hashes(self):
        a = [s.run_hash() for s in make_deck().expand()]
        b = [s.run_hash() for s in make_deck().expand()]
        assert a == b
        assert len(set(a)) == len(a)

    def test_distinct_points_distinct_hashes(self):
        specs = make_deck().expand()
        assert len({s.run_hash() for s in specs}) == len(specs)

    def test_hash_ignores_campaign_name(self):
        spec = RunSpec(SolverConfig(), InitialCondition(), campaign="a")
        other = RunSpec(SolverConfig(), InitialCondition(), campaign="b")
        assert spec.run_hash() == other.run_hash()

    def test_zip_axes_advance_together(self):
        deck = make_deck(
            grid={"fft_config": [0, 7]},
            zip={"ranks": [4, 16], "num_nodes": [[32, 32], [64, 64]]},
        )
        specs = deck.expand()
        assert len(specs) == 4
        pairs = {(s.ranks, s.config.num_nodes) for s in specs}
        assert pairs == {(4, (32, 32)), (16, (64, 64))}

    def test_base_and_ic_overrides(self):
        deck = make_deck(grid={"ic.magnitude": [0.01, 0.04], "steps": [1, 3]})
        specs = deck.expand()
        assert {s.ic.magnitude for s in specs} == {0.01, 0.04}
        assert {s.steps for s in specs} == {1, 3}
        assert all(s.config.order == "low" for s in specs)
        assert all(s.ic.kind == "multi_mode" for s in specs)

    def test_fft_config_index_expansion(self):
        spec = make_deck(grid={"fft_config": [5]}).expand()[0]
        assert spec.config.fft_config.index == 5
        assert spec.payload()["config"]["fft_config"] == 5

    def test_from_file_defaults_name_to_stem(self, tmp_path):
        path = tmp_path / "my_sweep.json"
        path.write_text('{"mode": "model", "grid": {"ranks": [1]}}')
        deck = CampaignDeck.from_file(path)
        assert deck.name == "my_sweep"
        assert deck.expand()[0].campaign == "my_sweep"


class TestValidation:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown deck axis"):
            make_deck(grid={"warp_factor": [1, 2]})

    def test_unknown_ic_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="initial-condition"):
            make_deck(grid={"ic.warp": [1]})

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="equal lengths"):
            make_deck(zip={"ranks": [1, 2], "steps": [1, 2, 3]})

    def test_grid_zip_overlap_rejected(self):
        with pytest.raises(ConfigurationError, match="both grid and zip"):
            make_deck(grid={"ranks": [1]}, zip={"ranks": [2]})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            make_deck(mode="imaginary")

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            make_deck(grid={"ranks": []})

    def test_base_typo_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown base config"):
            make_deck(base={"num_node": [16, 16]})

    def test_ic_typo_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown ic fields"):
            make_deck(ic={"knd": "flat"})

    def test_unknown_deck_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown deck keys"):
            CampaignDeck.from_dict({"mode": "model", "sweeps": {}})

    def test_bad_spec_values_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(SolverConfig(), InitialCondition(), ranks=0)
        with pytest.raises(ConfigurationError):
            RunSpec(SolverConfig(), InitialCondition(), steps=0)
        with pytest.raises(ConfigurationError):
            RunSpec(SolverConfig(), InitialCondition(), mode="dream")


class TestRunCounts:
    """``steps`` / ``ranks`` are positive integers wherever they are set:
    ``True`` or ``2.0`` would otherwise hash as a run distinct from
    ``1`` or ``2``, and ``"3"`` failed as a bare ``TypeError``."""

    @pytest.mark.parametrize("overrides,field", [
        ({"steps": True}, "steps"),
        ({"steps": 2.0}, "steps"),
        ({"steps": "3"}, "steps"),
        ({"steps": 0}, "steps"),
        ({"ranks": True}, "ranks"),
        ({"ranks": 2.0}, "ranks"),
        ({"grid": {"ranks": [2.5, "3"]}}, "grid.ranks"),
        ({"grid": {"steps": [1, False]}}, "grid.steps"),
        ({"grid": {}, "zip": {"ranks": [1, -2]}}, "zip.ranks"),
    ])
    def test_non_integers_rejected(self, overrides, field):
        with pytest.raises(DeckError, match="positive integer") as err:
            make_deck(**overrides)
        assert err.value.field == field

    def test_pack_run_steps_rejected(self):
        with pytest.raises(DeckError) as err:
            CampaignDeck.from_dict({"run": {"steps": True}})
        assert err.value.field == "run.steps"


class TestPackLayout:
    """A scenario pack is a deck: ``config`` is ``base`` and ``run``
    holds ``steps`` / ``ranks``; mixing the layouts is an error."""

    PACK = {
        "name": "p", "family": "f", "tags": ["t"],
        "provenance": {"source": "s", "section": "1"},
        "config": {"order": "low", "num_nodes": [16, 16]},
        "ic": {"kind": "flat"},
        "run": {"steps": 3, "ranks": 2},
    }

    def test_pack_reads_as_deck(self):
        pack = CampaignDeck.from_dict(self.PACK)
        assert pack.base == self.PACK["config"]
        assert (pack.steps, pack.ranks) == (3, 2)
        assert pack.citation() == "s, 1"
        (spec,) = pack.expand()
        explicit = make_deck(
            mode="functional", steps=3, ranks=2, base=self.PACK["config"],
            ic={"kind": "flat"}, grid={},
        ).expand()[0]
        assert spec.run_hash() == explicit.run_hash()

    @pytest.mark.parametrize("extra,field", [
        ({"base": {"order": "low"}}, "config"),
        ({"steps": 3}, "run.steps"),
        ({"run": {"steps": 3, "budget": 1}}, "run.budget"),
    ])
    def test_mixed_layouts_rejected(self, extra, field):
        with pytest.raises(DeckError) as err:
            CampaignDeck.from_dict({**self.PACK, **extra})
        assert err.value.field == field

    def test_toml_file_reads_like_json(self, tmp_path):
        toml = tmp_path / "sweep.toml"
        toml.write_text(
            'mode = "model"\nsteps = 2\n[base]\norder = "low"\n'
            'num_nodes = [32, 32]\n[grid]\nranks = [4, 16]\n'
        )
        as_json = make_deck(ic={}, grid={"ranks": [4, 16]})
        assert [s.run_hash() for s in CampaignDeck.from_file(toml).expand()] == [
            s.run_hash() for s in as_json.expand()
        ]
        assert CampaignDeck.from_file(toml).name == "sweep"

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"steps": 2.5}')
        with pytest.raises(DeckError) as err:
            CampaignDeck.from_file(path)
        assert (err.value.path, err.value.field) == (str(path), "steps")
        assert str(err.value).startswith(f"{path}, field 'steps': ")


class TestScenarioAxis:
    """The scenario deck axis: packs resolve underneath deck overrides."""

    def test_scenario_key_is_valid_axis_and_base(self):
        CampaignDeck.from_dict({"grid": {"scenario": ["atwood-low"]}})
        CampaignDeck.from_dict({"base": {"scenario": "atwood-low"}})

    def test_axis_expansion_resolves_each_pack(self):
        deck = CampaignDeck.from_dict({
            "name": "sweep", "mode": "functional", "steps": 2,
            "grid": {"scenario": ["atwood-low", "atwood-mid", "atwood-high"]},
        })
        specs = deck.expand()
        assert [s.config.atwood for s in specs] == [0.1, 0.5, 0.9]
        assert all(s.steps == 2 for s in specs)

    def test_precedence_pack_below_base_below_point(self):
        deck = CampaignDeck.from_dict({
            "name": "prec", "mode": "functional", "steps": 1,
            "base": {"scenario": "atwood-low", "gravity": 20.0},
            "ic": {"magnitude": 0.01},
            "grid": {"gravity": [30.0]},
        })
        spec = deck.expand()[0]
        assert spec.config.atwood == 0.1        # from the pack
        assert spec.config.gravity == 30.0      # axis beats base beats pack
        assert spec.ic.magnitude == 0.01        # deck ic beats pack ic
        assert spec.ic.seed == 12345            # pack ic survives otherwise

    def test_axis_scenario_overrides_base_scenario(self):
        deck = CampaignDeck.from_dict({
            "name": "override", "mode": "functional", "steps": 1,
            "base": {"scenario": "atwood-low"},
            "grid": {"scenario": ["atwood-high"]},
        })
        assert deck.expand()[0].config.atwood == 0.9

    def test_resolved_specs_hash_like_explicit_specs(self):
        from repro.campaign.deck import build_config
        from repro.scenarios import get_scenario

        deck = CampaignDeck.from_dict({
            "name": "hash", "mode": "functional", "steps": 2,
            "grid": {"scenario": ["cfl-tight"]},
        })
        spec = deck.expand()[0]
        pack = get_scenario("cfl-tight")
        explicit = RunSpec(
            config=build_config(pack.base),
            ic=InitialCondition(**pack.ic),
            ranks=1, steps=2, mode="functional",
        )
        assert spec.run_hash() == explicit.run_hash()

    def test_scenario_composes_with_other_axes(self):
        deck = CampaignDeck.from_dict({
            "name": "combo", "mode": "functional", "steps": 1,
            "grid": {"scenario": ["atwood-low", "atwood-high"],
                     "gravity": [5.0, 10.0]},
        })
        specs = deck.expand()
        assert len(specs) == 4
        assert {(s.config.atwood, s.config.gravity) for s in specs} == {
            (0.1, 5.0), (0.1, 10.0), (0.9, 5.0), (0.9, 10.0),
        }

    def test_unknown_scenario_name_fails_expansion(self):
        deck = CampaignDeck.from_dict({
            "name": "bad", "grid": {"scenario": ["no-such-pack"]},
        })
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            deck.expand()
