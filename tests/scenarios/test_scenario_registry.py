"""Registry roots/lookup and the malformed-pack error paths."""

import json
import os

import pytest

from repro.campaign import CampaignDeck
from repro.campaign.deck import DeckError
from repro.scenarios import get_scenario, load_registry
from repro.util.errors import ConfigurationError

VALID = {
    "name": "tiny-pack",
    "family": "test",
    "provenance": {"source": "conf_sc_StewartB24", "section": "§1"},
    "config": {"num_nodes": [8, 8], "order": "low", "dt": 0.002},
    "ic": {"kind": "multi_mode", "magnitude": 0.05, "period": 2},
}


def write_pack(directory, name="tiny-pack", **overrides):
    data = {**VALID, "name": name, **overrides}
    path = directory / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


class TestRoots:
    def test_env_roots_extend_builtin(self, tmp_path, monkeypatch):
        write_pack(tmp_path, name="local-extra")
        monkeypatch.setenv("REPRO_SCENARIO_PATH", str(tmp_path))
        names = [s.name for s in load_registry().values()]
        assert "local-extra" in names
        assert "singlemode-rollup" in names  # builtin packs still there

    def test_duplicate_name_across_roots_is_an_error(self, tmp_path, monkeypatch):
        root_a = tmp_path / "a"
        root_b = tmp_path / "b"
        root_a.mkdir()
        root_b.mkdir()
        path_a = write_pack(root_a)
        path_b = write_pack(root_b)
        monkeypatch.setenv("REPRO_SCENARIO_PATH",
                           f"{root_a}{os.pathsep}{root_b}")
        with pytest.raises(DeckError) as err:
            load_registry()
        assert str(path_a) in str(err.value)
        assert str(path_b) in str(err.value)

    def test_missing_root_is_empty_not_fatal(self, tmp_path, monkeypatch):
        builtin = load_registry()
        monkeypatch.setenv("REPRO_SCENARIO_PATH", str(tmp_path / "absent"))
        assert load_registry() == builtin


class TestLookup:
    def test_get_scenario(self, tmp_path, monkeypatch):
        write_pack(tmp_path)
        monkeypatch.setenv("REPRO_SCENARIO_PATH", str(tmp_path))
        pack = get_scenario("tiny-pack")
        assert pack.family == "test"
        assert pack.expand()[0].config.dt == 0.002

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(ConfigurationError) as err:
            get_scenario("atwood-lo")
        message = str(err.value)
        assert "did you mean" in message
        assert "atwood-low" in message


class TestMalformedPacks:
    @pytest.fixture(autouse=True)
    def pack_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_PATH", str(tmp_path))

    def test_unknown_config_field(self, tmp_path):
        path = write_pack(tmp_path, config={"num_nodes": [8, 8],
                                            "atwod": 0.5})
        with pytest.raises(DeckError) as err:
            load_registry()
        assert err.value.field == "config.atwod"
        assert err.value.path == str(path)

    @pytest.mark.parametrize("engine", ["numpy", "auto"])
    def test_an_engine_but_blocked_is_a_pack_error(self, tmp_path, engine):
        path = write_pack(tmp_path, config={"num_nodes": [8, 8],
                                            "backend": engine})
        with pytest.raises(DeckError, match="blocked engine") as err:
            load_registry()
        assert err.value.field == "config.backend"
        assert err.value.path == str(path)

    def test_the_retired_blocked_engine_loads(self, tmp_path):
        write_pack(tmp_path, config={**VALID["config"], "backend": "blocked"})
        plain = get_scenario("tiny-pack").expand()[0]
        assert plain.payload()["config"]["backend"] == "blocked"

    def test_unknown_ic_field(self, tmp_path):
        path = write_pack(tmp_path, ic={"kind": "flat", "wavelength": 2})
        with pytest.raises(DeckError) as err:
            load_registry()
        assert err.value.field == "ic.wavelength"

    def test_constructor_rejections_surface_as_pack_errors(self, tmp_path):
        # The typed constructors run at load: bad values never survive
        # to first use.
        path = write_pack(
            tmp_path, ic={"kind": "single_mode", "magnitude": -1.0}
        )
        with pytest.raises(DeckError, match="magnitude"):
            load_registry()

    def test_missing_provenance(self, tmp_path):
        data = {k: v for k, v in VALID.items() if k != "provenance"}
        path = tmp_path / "tiny-pack.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DeckError) as err:
            load_registry()
        assert err.value.field == "provenance"

    def test_provenance_without_citation(self, tmp_path):
        path = write_pack(
            tmp_path, provenance={"source": "conf_sc_StewartB24"}
        )
        with pytest.raises(DeckError, match="cite where"):
            load_registry()

    def test_provenance_without_source(self, tmp_path):
        path = write_pack(tmp_path, provenance={"section": "§1"})
        with pytest.raises(DeckError) as err:
            load_registry()
        assert err.value.field == "provenance.source"

    def test_unknown_top_level_key(self, tmp_path):
        path = write_pack(tmp_path, color="blue")
        with pytest.raises(DeckError, match="unknown keys"):
            load_registry()

    def test_name_must_match_file_stem(self, tmp_path):
        path = tmp_path / "other-name.json"
        path.write_text(json.dumps(VALID))
        with pytest.raises(DeckError, match="file stem"):
            load_registry()

    def test_bad_name_characters(self, tmp_path):
        data = {**VALID, "name": "Bad Name"}
        path = tmp_path / "Bad Name.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DeckError) as err:
            load_registry()
        assert err.value.field == "name"

    def test_json_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DeckError, match="parse error"):
            load_registry()

    def test_toml_parse_error(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("name = [unclosed")
        with pytest.raises(DeckError, match="parse error"):
            load_registry()

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "pack.yaml"
        path.write_text("name: nope")
        with pytest.raises(DeckError, match="unsupported pack type"):
            CampaignDeck.from_file(path)

    def test_non_positive_run_steps(self, tmp_path):
        path = write_pack(tmp_path, run={"steps": 0})
        with pytest.raises(DeckError) as err:
            load_registry()
        assert err.value.field == "run.steps"

    def test_unknown_run_key(self, tmp_path):
        path = write_pack(tmp_path, run={"steps": 2, "budget": 100})
        with pytest.raises(DeckError) as err:
            load_registry()
        assert err.value.field == "run.budget"

    def test_bad_tags(self, tmp_path):
        path = write_pack(tmp_path, tags=["ok", 3])
        with pytest.raises(DeckError) as err:
            load_registry()
        assert err.value.field == "tags"

    def test_duplicate_name_in_one_root(self, tmp_path):
        # Same name, two formats: the registry must refuse, not shadow.
        write_pack(tmp_path)
        (tmp_path / "tiny-pack.toml").write_text(
            'name = "tiny-pack"\nfamily = "test"\n'
            '[provenance]\nsource = "conf_sc_StewartB24"\nsection = "s1"\n'
            '[config]\nnum_nodes = [8, 8]\n'
            '[ic]\nkind = "flat"\n'
        )
        with pytest.raises(DeckError, match="duplicate scenario"):
            load_registry()

    def test_pack_sweeps_no_axes(self, tmp_path):
        path = write_pack(tmp_path, grid={"atwood": [0.1, 0.2]})
        with pytest.raises(DeckError, match="sweeps no axes") as err:
            load_registry()
        assert err.value.path == str(path)

    def test_pack_names_no_other_pack(self, tmp_path):
        write_pack(tmp_path, config={"num_nodes": [8, 8],
                                     "scenario": "atwood-low"})
        with pytest.raises(DeckError) as err:
            load_registry()
        assert err.value.field == "config.scenario"

    def test_every_malformed_pack_is_reported_at_once(self, tmp_path):
        bad_steps = write_pack(tmp_path, name="bad-steps", run={"steps": 0})
        bad_tags = write_pack(tmp_path, name="bad-tags", tags=[3])
        write_pack(tmp_path, name="fine")
        with pytest.raises(ConfigurationError) as err:
            load_registry()
        message = str(err.value)
        assert "2 malformed scenario packs" in message
        assert f"{bad_steps}, field 'run.steps'" in message
        assert f"{bad_tags}, field 'tags'" in message

    def test_list_scenarios_exits_nonzero_naming_the_file(self, tmp_path):
        from repro.cli.rocketrig import main

        path = write_pack(tmp_path, provenance={"source": "x"})
        with pytest.raises(SystemExit) as exit_:
            main(["--list-scenarios"])
        # A string code is printed to stderr and exits with status 1.
        assert isinstance(exit_.value.code, str)
        assert str(path) in exit_.value.code
