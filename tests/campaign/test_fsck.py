"""``rocketrig campaign <deck> --fsck [K]``: a store audit that runs
nothing and writes nothing, and a replay of K completed runs whose
state digests must match their records bit for bit."""

import json
import shutil

import pytest

from repro.campaign import CampaignDeck, CampaignExecutor, CampaignStore, report
from repro.cli.rocketrig import main
from repro.core.solver import NUMERICS_VERSION
from tests.campaign.test_numerics_stamp import unstamped_line

#: 16 low-order 16² runs, 3 steps each.
DECK = {
    "name": "fsck", "mode": "functional", "steps": 3,
    "base": {"order": "low", "num_nodes": [16, 16], "dt": 0.002},
    "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
    "grid": {"fft_config": [0, 3, 5, 7], "ranks": [1, 2], "ic.seed": [1, 2]},
}


@pytest.fixture(scope="module")
def fresh_store(tmp_path_factory):
    """A campaign store holding the deck's 16 completed runs."""
    root = tmp_path_factory.mktemp("fsck")
    deck = CampaignDeck.from_dict(DECK)
    outcomes = CampaignExecutor(
        CampaignStore(deck.name, root=str(root / "results")), max_workers=1
    ).submit(deck.expand())
    assert [o.status for o in outcomes] == ["completed"] * 16
    return root


@pytest.fixture
def store_dir(fresh_store, tmp_path):
    """A private copy of the fresh store and the deck file naming it."""
    shutil.copytree(fresh_store / "results", tmp_path / "results")
    (tmp_path / "deck.json").write_text(json.dumps(DECK))
    return tmp_path


def fsck(store_dir, *k):
    return main(["campaign", str(store_dir / "deck.json"), "--results-dir",
                 str(store_dir / "results"), "--fsck", *map(str, k)])


def snapshot(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def index_path(store_dir):
    return store_dir / "results" / "campaigns" / "fsck" / "index.jsonl"


def test_replay_of_a_fresh_store_is_identical_and_writes_nothing(
    store_dir, capsys
):
    before = snapshot(store_dir)
    assert fsck(store_dir, 8) == 0
    out = capsys.readouterr().out
    assert "16 runs" in out and "16 completed, 0 failed" in out
    assert "0 stale" in out
    assert "replay: 8/8 identical\n" in out
    assert snapshot(store_dir) == before


def test_audit_alone_plans_and_runs_nothing(store_dir, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("--fsck without K runs nothing")

    monkeypatch.setattr(CampaignExecutor, "submit", no_run)
    monkeypatch.setattr(report, "_final_digest", no_run)
    before = snapshot(store_dir)
    assert fsck(store_dir) == 0
    out = capsys.readouterr().out
    assert "store audit: 16 runs" in out and "replay" not in out
    assert snapshot(store_dir) == before


def test_an_unknown_store_is_audited_without_being_created(tmp_path, capsys):
    (tmp_path / "deck.json").write_text(json.dumps(DECK))
    assert fsck(tmp_path, 4) == 0
    out = capsys.readouterr().out
    assert "store audit: 0 runs" in out and "replay: 0/0 identical" in out
    assert not (tmp_path / "results").exists()


def rewrite_first_completed(store_dir, **fields):
    """Overwrite ``fields`` of the first completed record; its hash."""
    lines = index_path(store_dir).read_text().splitlines()
    at = next(i for i, line in enumerate(lines)
              if json.loads(line)["status"] == "completed")
    record = {**json.loads(lines[at]), **fields}
    lines[at] = json.dumps(record, sort_keys=True)
    index_path(store_dir).write_text("\n".join(lines) + "\n")
    return record["run_hash"]


def test_a_tampered_digest_fails_and_names_its_hash(store_dir, capsys):
    run_hash = rewrite_first_completed(store_dir, digest="0" * 16)
    assert fsck(store_dir, 16) == 1
    out = capsys.readouterr().out
    assert f"replay: MISMATCH {run_hash}: stored digest 0000000000000000" in out
    assert "replay: 15/16 identical" in out
    # The draw has a fixed seed: the same report twice.
    assert fsck(store_dir, 16) == 1
    assert capsys.readouterr().out == out


def test_a_stale_record_is_counted_and_never_replayed(
    store_dir, capsys, monkeypatch
):
    old = CampaignDeck.from_dict(dict(DECK, grid={"ic.seed": [3]})).expand()[0]
    with open(index_path(store_dir), "a", encoding="utf-8") as fh:
        fh.write(unstamped_line(
            old, {"kind": "functional", "diagnostics": {"amplitude": 0.02}}
        ) + "\n")
    replayed = []
    digest = report._final_digest
    monkeypatch.setattr(
        report, "_final_digest",
        lambda spec: replayed.append(spec.run_hash()) or digest(spec),
    )
    assert fsck(store_dir, 17) == 0
    out = capsys.readouterr().out
    assert "17 runs" in out and "1 stale" in out
    assert f"replay: skipped 1 (numerics 0 ≠ {NUMERICS_VERSION})" in out
    assert "replay: 16/16 identical (17 asked, 16 eligible)" in out
    assert len(replayed) == 16 and old.run_hash() not in replayed


def test_a_record_from_another_host_is_skipped(store_dir, capsys):
    rewrite_first_completed(store_dir, host="feedfacecafebeef")
    assert fsck(store_dir, 16) == 0
    out = capsys.readouterr().out
    assert "replay: skipped 1 (host feedfacecafebeef ≠ " in out
    assert "replay: 15/15 identical (16 asked, 15 eligible)" in out


def test_fsck_takes_no_service_mode(store_dir):
    with pytest.raises(SystemExit, match="--fsck audits"):
        main(["campaign", str(store_dir / "deck.json"), "--serve", "--fsck"])


def test_k_must_not_be_negative(store_dir):
    with pytest.raises(SystemExit, match="--fsck K must be >= 0"):
        fsck(store_dir, -1)


def test_torn_lines_are_counted_and_the_rest_replays(store_dir, capsys):
    with open(index_path(store_dir), "a", encoding="utf-8") as fh:
        fh.write('{"torn\n')
    assert fsck(store_dir, 4) == 0
    out = capsys.readouterr().out
    assert "16 completed, 0 failed, 0 interrupted, 1 torn" in out
    assert "replay: 4/4 identical\n" in out


def test_model_mode_records_are_neither_replayed_nor_skipped(tmp_path, capsys):
    deck = dict(DECK, mode="model")
    (tmp_path / "deck.json").write_text(json.dumps(deck))
    store = CampaignStore("fsck", root=str(tmp_path / "results"))
    CampaignExecutor(store, max_workers=1).submit(
        CampaignDeck.from_dict(deck).expand()
    )
    assert fsck(tmp_path, 4) == 0
    out = capsys.readouterr().out
    assert "16 completed" in out
    assert "skipped" not in out
    assert "replay: 0/0 identical (4 asked, 0 eligible)" in out
