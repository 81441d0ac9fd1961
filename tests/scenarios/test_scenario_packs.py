"""Every shipped scenario pack: loads, validates, cites the paper."""

from pathlib import Path

from repro.batch import fleet_key
from repro.campaign import RunSpec
from repro.scenarios import BUILTIN_ROOT, get_scenario, load_registry
from repro.scenarios.gallery import build_gallery, default_gallery_path

REPO_ROOT = Path(__file__).resolve().parents[2]
PACK_DIR = REPO_ROOT / "scenarios"


def pack_fleet_key(pack):
    """Fleet eligibility of the pack's one run."""
    return fleet_key(pack.expand()[0].config)


class TestShippedPacks:
    def test_builtin_root_is_repo_scenarios_dir(self):
        assert PACK_DIR.resolve() == BUILTIN_ROOT.resolve()

    def test_registry_loads_every_shipped_pack(self):
        registry = load_registry()
        files = [
            p for p in PACK_DIR.iterdir()
            if p.suffix.lower() in (".json", ".toml")
        ]
        assert len(registry) == len(files) >= 12

    def test_both_formats_ship(self):
        suffixes = {Path(s.path).suffix for s in load_registry().values()}
        assert {".json", ".toml"} <= suffixes

    def test_names_match_file_stems(self):
        for scenario in load_registry().values():
            assert Path(scenario.path).stem == scenario.name

    def test_every_pack_cites_the_paper(self):
        for scenario in load_registry().values():
            assert scenario.provenance["source"] == "conf_sc_StewartB24"
            # citation() renders source + at least one locator.
            assert scenario.citation().startswith("conf_sc_StewartB24, ")

    def test_required_families_ship(self):
        families = {s.family for s in load_registry().values()}
        assert {"single_mode", "multi_mode", "convergence",
                "atwood", "cfl"} <= families

    def test_every_pack_materializes(self):
        for scenario in load_registry().values():
            config, ic = scenario.expand()[0].config, scenario.expand()[0].ic
            assert config.num_nodes[0] > 0
            assert ic.magnitude > 0
            spec = RunSpec(config=config, ic=ic, ranks=scenario.ranks,
                           steps=scenario.steps)
            assert len(spec.run_hash()) == 16

    def test_packs_never_name_an_engine(self):
        for scenario in load_registry().values():
            assert "backend" not in scenario.base


class TestFamilies:
    def test_filtering_by_family_and_tag(self):
        packs = load_registry().values()
        atwood = [s.name for s in packs if s.family == "atwood"]
        assert atwood == ["atwood-high", "atwood-low", "atwood-mid"]
        fleet = [s.name for s in packs if "fleet" in s.tags]
        assert set(atwood) <= set(fleet)

    def test_sweep_families_share_one_fleet_key(self):
        """The atwood-* and cfl-* packs are authored as fleet families:
        every member of a family must ride one ScenarioFleet."""
        for family in ("atwood", "cfl"):
            keys = {
                pack_fleet_key(s)
                for s in load_registry().values() if s.family == family
            }
            assert len(keys) == 1
            assert None not in keys

    def test_rollup_pack_is_solo_only(self):
        # The cutoff solver is approximate: fleet batching would change
        # results, so fleet_key refuses it.
        pack = get_scenario("singlemode-rollup")
        assert pack.base["br_solver"] == "cutoff"
        assert pack_fleet_key(pack) is None


class TestGallery:
    def test_gallery_page_in_sync_with_packs(self):
        committed = default_gallery_path().read_text(encoding="utf-8")
        assert committed == build_gallery()

    def test_gallery_names_every_pack(self):
        gallery = build_gallery()
        for name in [s.name for s in load_registry().values()]:
            assert f"`{name}`" in gallery
        assert "conf_sc_StewartB24" in gallery
