"""``rocketrig inspect <campaign> [<hash-prefix>]``: a run's lineage and
a campaign's overview, read from the index alone, writing nothing."""

import json
import os
import pathlib

import pytest

from repro.campaign import CampaignDeck, CampaignExecutor, CampaignStore
from repro.cli.rocketrig import main
from repro.core.solver import NUMERICS_VERSION

#: Four low-order 16² runs, 2 steps each.
DECK = {
    "name": "inspect", "mode": "functional", "steps": 2,
    "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
    "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
    "grid": {"fft_config": [3, 7], "ranks": [1, 2]},
}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A fresh store holding the deck's runs, the first one claimed by
    two workers that died before it ran."""
    root = tmp_path_factory.mktemp("inspect") / "results"
    store = CampaignStore("inspect", root=str(root))
    specs = CampaignDeck.from_dict(DECK).expand()
    store.record_running(specs[0], owner="gone-1", lease_expires=1.0)
    store.record_running(specs[0], owner="gone-2", lease_expires=2.0)
    outcomes = CampaignExecutor(store, max_workers=1).submit(specs)
    assert [o.status for o in outcomes] == ["completed"] * 4
    return store


def inspect(store, *run):
    return main(["inspect", "inspect", *run, "--results-dir", store.base_root])


def snapshot(store):
    root = pathlib.Path(store.root)
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


def test_lineage_of_one_run(store, capsys):
    with open(store.index_path) as fh:
        first = json.loads(fh.readline())
    run_hash = first["run_hash"]
    assert run_hash == CampaignDeck.from_dict(DECK).expand()[0].run_hash()
    assert inspect(store, run_hash[:6]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"run {run_hash}"
    assert lines[1].startswith("  scenario: kind=multi_mode, magnitude=0.02")
    assert lines[2].startswith(f"  spec: functional, {first['spec']['ranks']} "
                               f"ranks, 2 steps; ")
    assert "num_nodes=[16, 16]" in lines[2]
    assert lines[3].startswith("  attempt 1: claimed by gone-1, lease until ")
    assert lines[4].startswith("  attempt 2: claimed by gone-2, lease until ")
    assert lines[5].startswith("  completed in ")
    assert lines[5].endswith(" s, resumed from step 0")
    assert lines[6].startswith("  phases: ") and " fft " in lines[6]
    record = store.latest_records()[run_hash]
    assert lines[7] == (f"  numerics {NUMERICS_VERSION}, digest "
                        f"{record.digest}, host {record.host}")


def test_campaign_view(store, capsys):
    assert inspect(store) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"store audit: 4 runs in {store.root}: 4 completed, "
                        "0 failed, 0 interrupted, 0 torn, 0 no result, 0 stale")
    assert lines[1] == "slowest 4 completed runs:"
    elapsed = [float(line.split()[1]) for line in lines[2:6]]
    assert elapsed == sorted(elapsed, reverse=True)
    claimed = CampaignDeck.from_dict(DECK).expand()[0].run_hash()
    assert lines[6] == f"claimed more than once: {claimed} (2x)"
    assert lines[7].startswith("phase totals: ") and " fft " in lines[7]


@pytest.mark.parametrize("prefix, what", [("zz", "unknown"),
                                          ("", "ambiguous (4 runs)")])
def test_unknown_or_ambiguous_prefix_exits_1(store, capsys, prefix, what):
    assert inspect(store, prefix) == 1
    err = capsys.readouterr().err
    assert f"{what} run {prefix!r} in campaign 'inspect'" in err


def test_unknown_campaign_exits_1_and_creates_nothing(tmp_path, capsys):
    assert main(["inspect", "nosuch", "--results-dir", str(tmp_path)]) == 1
    assert "no campaign index" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_inspect_writes_nothing(store, capsys):
    before = snapshot(store)
    run_hash = next(iter(store.latest_records()))
    for args in ((), (run_hash,), ("zz",)):
        inspect(store, *args)
    capsys.readouterr()
    assert snapshot(store) == before
