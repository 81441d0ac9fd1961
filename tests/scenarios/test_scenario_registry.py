"""Registry roots/lookup and the loader's malformed-pack error paths."""

import json

import pytest

from repro.scenarios import (
    get_scenario,
    iter_scenarios,
    load_registry,
    scenario_families,
)
from repro.scenarios.loader import ScenarioPackError, load_pack
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
    def test_explicit_roots(self, tmp_path):
        write_pack(tmp_path)
        registry = load_registry(roots=[tmp_path])
        assert list(registry) == ["tiny-pack"]

    def test_env_roots_extend_builtin(self, tmp_path, monkeypatch):
        write_pack(tmp_path, name="local-extra")
        monkeypatch.setenv("REPRO_SCENARIO_PATH", str(tmp_path))
        names = [s.name for s in iter_scenarios()]
        assert "local-extra" in names
        assert "singlemode-rollup" in names  # builtin packs still there

    def test_duplicate_name_across_roots_is_an_error(self, tmp_path):
        root_a = tmp_path / "a"
        root_b = tmp_path / "b"
        root_a.mkdir()
        root_b.mkdir()
        path_a = write_pack(root_a)
        path_b = write_pack(root_b)
        with pytest.raises(ScenarioPackError) as err:
            load_registry(roots=[root_a, root_b])
        assert str(path_a) in str(err.value)
        assert str(path_b) in str(err.value)

    def test_missing_root_is_empty_not_fatal(self, tmp_path):
        assert load_registry(roots=[tmp_path / "absent"]) == {}


class TestLookup:
    def test_get_scenario(self, tmp_path):
        write_pack(tmp_path)
        pack = get_scenario("tiny-pack", roots=[tmp_path])
        assert pack.family == "test"
        assert pack.solver_config().dt == 0.002

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(ConfigurationError) as err:
            get_scenario("atwood-lo")
        message = str(err.value)
        assert "did you mean" in message
        assert "atwood-low" in message

    def test_filters(self, tmp_path):
        write_pack(tmp_path, name="tagged-one", tags=["alpha"])
        write_pack(tmp_path, name="tagged-two", family="other",
                   tags=["alpha", "beta"])
        roots = [tmp_path]
        assert [s.name for s in iter_scenarios(tag="alpha", roots=roots)] == [
            "tagged-two", "tagged-one"
        ] or [s.name for s in iter_scenarios(tag="alpha", roots=roots)] == [
            "tagged-one", "tagged-two"
        ]
        assert [s.name for s in iter_scenarios(family="other", roots=roots)] == [
            "tagged-two"
        ]
        assert scenario_families(roots=roots) == ["other", "test"]


class TestMalformedPacks:
    def test_unknown_config_field(self, tmp_path):
        path = write_pack(tmp_path, config={"num_nodes": [8, 8],
                                            "atwod": 0.5})
        with pytest.raises(ScenarioPackError) as err:
            load_pack(path)
        assert err.value.field == "config.atwod"
        assert err.value.pack == str(path)

    def test_machine_field_backend_forbidden(self, tmp_path):
        path = write_pack(tmp_path, config={"num_nodes": [8, 8],
                                            "backend": "numpy"})
        with pytest.raises(ScenarioPackError, match="machine-specific"):
            load_pack(path)

    def test_unknown_ic_field(self, tmp_path):
        path = write_pack(tmp_path, ic={"kind": "flat", "wavelength": 2})
        with pytest.raises(ScenarioPackError) as err:
            load_pack(path)
        assert err.value.field == "ic.wavelength"

    def test_constructor_rejections_surface_as_pack_errors(self, tmp_path):
        # The typed constructors run at load: bad values never survive
        # to first use.
        path = write_pack(
            tmp_path, ic={"kind": "single_mode", "magnitude": -1.0}
        )
        with pytest.raises(ScenarioPackError, match="magnitude"):
            load_pack(path)

    def test_missing_provenance(self, tmp_path):
        data = {k: v for k, v in VALID.items() if k != "provenance"}
        path = tmp_path / "tiny-pack.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioPackError) as err:
            load_pack(path)
        assert err.value.field == "provenance"

    def test_provenance_without_citation(self, tmp_path):
        path = write_pack(
            tmp_path, provenance={"source": "conf_sc_StewartB24"}
        )
        with pytest.raises(ScenarioPackError, match="cite where"):
            load_pack(path)

    def test_provenance_without_source(self, tmp_path):
        path = write_pack(tmp_path, provenance={"section": "§1"})
        with pytest.raises(ScenarioPackError) as err:
            load_pack(path)
        assert err.value.field == "provenance.source"

    def test_unknown_top_level_key(self, tmp_path):
        path = write_pack(tmp_path, color="blue")
        with pytest.raises(ScenarioPackError, match="unknown keys"):
            load_pack(path)

    def test_name_must_match_file_stem(self, tmp_path):
        path = tmp_path / "other-name.json"
        path.write_text(json.dumps(VALID))
        with pytest.raises(ScenarioPackError, match="file stem"):
            load_pack(path)

    def test_bad_name_characters(self, tmp_path):
        data = {**VALID, "name": "Bad Name"}
        path = tmp_path / "Bad Name.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioPackError) as err:
            load_pack(path)
        assert err.value.field == "name"

    def test_json_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioPackError, match="parse error"):
            load_pack(path)

    def test_toml_parse_error(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("name = [unclosed")
        with pytest.raises(ScenarioPackError, match="parse error"):
            load_pack(path)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "pack.yaml"
        path.write_text("name: nope")
        with pytest.raises(ScenarioPackError, match="unsupported pack type"):
            load_pack(path)

    def test_non_positive_run_steps(self, tmp_path):
        path = write_pack(tmp_path, run={"steps": 0})
        with pytest.raises(ScenarioPackError) as err:
            load_pack(path)
        assert err.value.field == "run.steps"

    def test_unknown_run_key(self, tmp_path):
        path = write_pack(tmp_path, run={"steps": 2, "budget": 100})
        with pytest.raises(ScenarioPackError) as err:
            load_pack(path)
        assert err.value.field == "run.budget"

    def test_bad_tags(self, tmp_path):
        path = write_pack(tmp_path, tags=["ok", 3])
        with pytest.raises(ScenarioPackError) as err:
            load_pack(path)
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
        with pytest.raises(ScenarioPackError, match="duplicate scenario"):
            load_registry(roots=[tmp_path])
