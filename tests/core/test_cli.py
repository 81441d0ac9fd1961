"""The rocketrig command-line driver."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import rocketrig
from repro.cli.rocketrig import build_parser, main, run_from_args
from repro.core import InitialCondition, SolverConfig
from repro.fft import FftConfig


@pytest.fixture
def built(monkeypatch):
    """Run ``run_from_args`` against a stand-in solver that records the
    config, IC, steps and rank count it is given, and steps nothing."""
    seen = {}

    class Recorder:
        br_solver = None

        def __init__(self, comm, config, ic):
            seen.update(config=config, ic=ic, ranks=comm.size)

        def run(self, steps, **kwargs):
            seen["steps"] = steps

        def diagnostics(self):
            return {}

    monkeypatch.setattr(rocketrig, "Solver", Recorder)
    return seen


class TestParser:
    def test_pack_settable_flags_parse_to_none_when_absent(self):
        args = build_parser().parse_args([])
        assert args.nodes is None and args.order is None
        assert args.ranks is None and args.free_boundaries is None

    def test_flagless_run_builds_the_stock_config(self, built):
        run_from_args(build_parser().parse_args([]))
        assert built["config"] == SolverConfig(
            num_nodes=(64, 64), low=(-np.pi, -np.pi), high=(np.pi, np.pi),
            periodic=(True, True), order="low", br_solver="exact",
            cutoff=0.5, theta=0.5, leaf_size=32,
            atwood=0.5, gravity=10.0, mu=0.0, eps=None, dt=None,
            br_images=False, fft_config=FftConfig.from_index(7),
        )
        assert built["ic"] == InitialCondition(
            kind="multi_mode", magnitude=0.05, period=4.0, seed=12345,
        )
        assert (built["steps"], built["ranks"]) == (10, 1)

    def test_paper_style_invocation(self):
        args = build_parser().parse_args(
            ["--nodes", "32", "--order", "high", "--br-solver", "cutoff",
             "--cutoff", "0.8", "--free-boundaries", "--ic", "single_mode",
             "--magnitude", "0.12", "--steps", "30", "--ranks", "4"]
        )
        assert args.free_boundaries
        assert args.br_solver == "cutoff"
        assert args.cutoff == 0.8

    def test_fft_config_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--fft-config", "9"])

    def test_invalid_order_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--order", "ultra"])

    def test_tree_solver_flags(self):
        args = build_parser().parse_args(
            ["--br-solver", "tree", "--theta", "0.4", "--leaf-size", "16"]
        )
        assert args.br_solver == "tree"
        assert args.theta == 0.4
        assert args.leaf_size == 16

    def test_epilog_examples_parse(self):
        """Every example command in --help must be parser-valid, and the
        epilog's choice lists must match the registries."""
        import shlex

        from repro.core import available_br_solvers

        parser = build_parser()
        epilog = parser.epilog
        for solver in available_br_solvers():
            assert solver in epilog
        commands = []
        pending = None
        for raw in epilog.splitlines():
            line = raw.strip()
            if pending is not None:
                pending += " " + line.rstrip("\\").strip()
                if not line.endswith("\\"):
                    commands.append(pending)
                    pending = None
            elif line.startswith("rocketrig"):
                if line.endswith("\\"):
                    pending = line.rstrip("\\").strip()
                else:
                    commands.append(line)
        assert len(commands) >= 3
        for command in commands:
            parser.parse_args(shlex.split(command)[1:])

    def test_list_flags(self, capsys):
        assert main(["--list-solvers"]) == 0
        assert "tree" in capsys.readouterr().out

    def test_br_solver_registry_single_source_of_truth(self, capsys):
        """--list-solvers, the --br-solver choices, config construction
        and deck-axis expansion must all answer from one registry —
        adding a solver in one place and not another is a drift bug."""
        from repro.campaign import CampaignDeck
        from repro.core import SolverConfig, available_br_solvers
        from repro.util.errors import ConfigurationError

        registry = tuple(available_br_solvers())
        assert registry and len(set(registry)) == len(registry)

        # CLI listing prints exactly the registry entries.
        assert main(["--list-solvers"]) == 0
        listed = capsys.readouterr().out
        for solver in registry:
            assert solver in listed

        # Parser choices are the registry, verbatim.
        action = next(
            a for a in build_parser()._actions
            if "--br-solver" in (a.option_strings or ())
        )
        assert tuple(action.choices) == registry

        # Config construction accepts every registry entry...
        for solver in registry:
            assert SolverConfig(br_solver=solver).br_solver == solver

        # ...and deck-axis expansion rejects a non-registry name with an
        # error that names the registry (same validation path).
        deck = CampaignDeck.from_dict({
            "name": "drift", "mode": "functional", "steps": 1,
            "base": {"order": "high", "num_nodes": [8, 8], "dt": 0.002},
            "grid": {"br_solver": ["exact", "not_a_solver"]},
        })
        with pytest.raises(ConfigurationError) as err:
            deck.expand()
        for solver in registry:
            assert solver in str(err.value)


class TestRun:
    def test_low_order_run(self, capsys):
        args = build_parser().parse_args(
            ["--nodes", "16", "--steps", "2", "--ranks", "2", "--trace"]
        )
        diag = run_from_args(args)
        assert diag["steps"] == 2
        assert np.isfinite(diag["amplitude"])
        out = capsys.readouterr().out
        assert "modeled total" in out

    def test_high_order_cutoff_run(self, tmp_path):
        args = build_parser().parse_args(
            ["--nodes", "12", "--order", "high", "--br-solver", "cutoff",
             "--cutoff", "1.0", "--free-boundaries", "--ic", "single_mode",
             "--steps", "1", "--ranks", "2", "--dt", "0.005",
             "--outdir", str(tmp_path)]
        )
        diag = run_from_args(args)
        assert diag["steps"] == 1
        assert list(tmp_path.glob("*.vtk"))

    def test_flat_ic_stays_flat(self):
        args = build_parser().parse_args(
            ["--nodes", "12", "--ic", "flat", "--steps", "2"]
        )
        diag = run_from_args(args)
        assert diag["amplitude"] == 0.0


class TestCampaignSubcommand:
    DECK = {
        "name": "cli_deck",
        "mode": "functional",
        "steps": 2,
        "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
        "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
        "grid": {"fft_config": [0, 7], "ranks": [1, 2]},
    }

    def _deck_path(self, tmp_path):
        path = tmp_path / "deck.json"
        path.write_text(json.dumps(self.DECK))
        return str(path)

    def test_parse(self, tmp_path):
        args = build_parser().parse_args(
            ["campaign", self._deck_path(tmp_path), "--workers", "2",
             "--checkpoint-freq", "5"]
        )
        assert args.command == "campaign"
        assert args.workers == 2
        assert args.checkpoint_freq == 5

    def test_worker_type_flag_is_gone(self, capsys):
        # --workers 1 is the in-process drain.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "d.json", "--worker-type", "serial"])
        assert "--worker-type" in capsys.readouterr().err

    def test_plain_invocations_unaffected(self):
        args = build_parser().parse_args(["--nodes", "32"])
        assert getattr(args, "command", None) is None

    def test_runs_and_dedups(self, tmp_path, capsys):
        deck = self._deck_path(tmp_path)
        results = str(tmp_path / "results")
        assert main(["campaign", deck, "--workers", "2",
                     "--results-dir", results,
                     "--report", "config.fft_config", "ranks",
                     "result.diagnostics.amplitude"]) == 0
        out = capsys.readouterr().out
        assert "4 ran, 0 store hits, 0 failed" in out
        assert "config.fft_config" in out

        # Second invocation: every run is a store hit.  Per-run progress
        # lines go through the repro.campaign logger (stderr), not stdout.
        assert main(["campaign", deck, "--workers", "2",
                     "--results-dir", results]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("store hit — skipped") == 4
        assert "0 ran, 4 store hits, 0 failed" in captured.out

    def test_store_audit_line(self, tmp_path, capsys):
        """One ``store audit:`` line names each non-zero count; a clean
        store prints none."""
        path = tmp_path / "deck.json"
        path.write_text(json.dumps(dict(self.DECK, mode="model")))
        results = tmp_path / "results"
        argv = ["campaign", str(path), "--results-dir", str(results)]
        assert main(argv) == 0
        assert "store audit" not in capsys.readouterr().out
        index = results / "campaigns" / "cli_deck" / "index.jsonl"
        with open(index, "a", encoding="utf-8") as fh:
            fh.write('{"torn\n')
        assert main(argv) == 0
        assert "store audit: 1 torn\n" in capsys.readouterr().out

    def test_bad_deck_exits_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="bad deck"):
            main(["campaign", str(tmp_path / "missing.json")])
        typo = tmp_path / "typo.json"
        typo.write_text('{"mode": "functional", "base": {"num_node": [16, 16]}}')
        with pytest.raises(SystemExit, match="unknown base config"):
            main(["campaign", str(typo)])

    @pytest.mark.parametrize("engine", ["numpy", "auto", "cupy"])
    def test_an_engine_but_blocked_is_a_bad_deck(self, engine, tmp_path):
        """Rejected at expansion: no store directory, no failed records."""
        deck = dict(self.DECK, base=dict(self.DECK["base"], backend=engine))
        path = tmp_path / "deck.json"
        path.write_text(json.dumps(deck))
        results = tmp_path / "results"
        with pytest.raises(SystemExit, match="bad deck.*'backend'"):
            main(["campaign", str(path), "--results-dir", str(results)])
        assert not results.exists()

    def test_stale_failures_do_not_poison_exit_code(self, tmp_path, capsys):
        """A failed record from an earlier deck version must not force
        exit 1 once the deck no longer contains that point."""
        results = str(tmp_path / "results")
        bad = dict(self.DECK)
        bad["grid"] = {"ranks": [1]}
        bad["zip"] = {"periodic": [[True, True], [False, False]],
                      "ranks": [1, 4]}
        del bad["grid"]
        deck_bad = tmp_path / "bad.json"
        deck_bad.write_text(json.dumps(bad))
        assert main(["campaign", str(deck_bad), "--results-dir", results]) == 1

        good = dict(self.DECK)
        good["grid"] = {"ranks": [1]}
        deck_good = tmp_path / "good.json"
        deck_good.write_text(json.dumps(good))
        assert main(["campaign", str(deck_good), "--results-dir", results]) == 0
        capsys.readouterr()

    def test_serve_passes_run_settings_to_the_coordinator(
        self, tmp_path, monkeypatch
    ):
        """--serve used to parse --checkpoint-freq and drop it, so
        service runs never checkpointed."""
        import repro.campaign

        seen = {}

        class FakeCoordinator:
            def __init__(self, store, specs, endpoint, **kwargs):
                seen.update(kwargs)
                endpoint.close()

            def serve(self):
                return {"completed": 0, "skipped": 0, "failed": 0,
                        "requeued": 0, "workers": []}

        monkeypatch.setattr(repro.campaign, "Coordinator", FakeCoordinator)
        assert main(["campaign", self._deck_path(tmp_path), "--serve",
                     "--results-dir", str(tmp_path / "results"),
                     "--checkpoint-freq", "5", "--timeout", "90"]) == 0
        assert seen["checkpoint_freq"] == 5
        assert seen["run_timeout"] == 90.0


class TestScenarioFlags:
    def test_scenario_flag_parses(self):
        args = build_parser().parse_args(["--scenario", "singlemode-rollup"])
        assert args.scenario == "singlemode-rollup"
        assert build_parser().parse_args([]).scenario is None

    def test_list_scenarios(self, capsys):
        from repro.scenarios import load_registry

        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for scenario in load_registry().values():
            assert scenario.name in out
        assert "conf_sc_StewartB24" in out

    def test_list_scenarios_matches_golden(self, capsys, monkeypatch):
        """The table matches ``tests/golden/list_scenarios.txt`` byte
        for byte."""
        monkeypatch.delenv("REPRO_SCENARIO_PATH", raising=False)
        golden = Path(__file__).parents[1] / "golden" / "list_scenarios.txt"
        assert main(["--list-scenarios"]) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_epilog_advertises_scenarios(self):
        epilog = build_parser().epilog
        assert "--scenario" in epilog
        assert "scenario_sweep.json" in epilog

    def test_scenario_run(self, capsys):
        args = build_parser().parse_args(
            ["--scenario", "atwood-low", "--steps", "2"]
        )
        diag = run_from_args(args)
        assert diag["steps"] == 2
        out = capsys.readouterr().out
        assert "scenario 'atwood-low'" in out
        assert "32x32 mesh, 2 steps" in out

    def test_passed_flags_override_the_pack_even_at_their_default(
        self, built,
    ):
        """Every flag here equals its parser default, and every one
        differs from the pack: each must win."""
        run_from_args(build_parser().parse_args(
            ["--scenario", "singlemode-rollup", "--nodes", "64", "--ranks",
             "1", "--order", "low", "--steps", "10"]
        ))
        config = built["config"]
        assert config.num_nodes == (64, 64) and config.order == "low"
        assert (built["steps"], built["ranks"]) == (10, 1)
        # Fields no flag names stay the pack's.
        assert config.br_solver == "cutoff"
        assert config.periodic == (False, False)

    @pytest.mark.parametrize("argv,field,expected", [
        (["--nodes", "64"], "config.num_nodes", (64, 64)),
        (["--extent", repr(2 * np.pi)], "config.low", (-np.pi, -np.pi)),
        (["--free-boundaries"], "config.periodic", (False, False)),
        (["--order", "low"], "config.order", "low"),
        (["--br-solver", "exact"], "config.br_solver", "exact"),
        (["--cutoff", "0.5"], "config.cutoff", 0.5),
        (["--theta", "0.5"], "config.theta", 0.5),
        (["--leaf-size", "32"], "config.leaf_size", 32),
        (["--atwood", "0.5"], "config.atwood", 0.5),
        (["--gravity", "10"], "config.gravity", 10.0),
        (["--mu", "0"], "config.mu", 0.0),
        (["--epsilon", "0.05"], "config.eps", 0.05),
        (["--dt", "0.002"], "config.dt", 0.002),
        (["--br-images"], "config.br_images", True),
        (["--fft-config", "7"], "config.fft_config.index", 7),
        (["--ic", "multi_mode"], "ic.kind", "multi_mode"),
        (["--magnitude", "0.05"], "ic.magnitude", 0.05),
        (["--period", "4"], "ic.period", 4.0),
        (["--seed", "12345"], "ic.seed", 12345),
        (["--steps", "10"], "steps", 10),
        (["--ranks", "1"], "ranks", 1),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_each_flag_at_its_default_overrides_the_pack(
        self, argv, field, expected,
    ):
        from repro.cli.rocketrig import _run_params

        config, ic, steps, ranks = _run_params(build_parser().parse_args(
            ["--scenario", "singlemode-rollup", *argv]
        ))
        value = {"config": config, "ic": ic, "steps": steps, "ranks": ranks}
        head, *rest = field.split(".")
        value = value[head]
        for name in rest:
            value = getattr(value, name)
        assert value == expected

    def test_unknown_scenario_exits_with_suggestions(self):
        args = build_parser().parse_args(["--scenario", "atwood-lo"])
        with pytest.raises(SystemExit, match="did you mean"):
            run_from_args(args)
