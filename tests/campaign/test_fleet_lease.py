"""Fleets are leases: one ``new-job`` carries a same-shape group, one
worker steps it as a ``ScenarioFleet`` and reports every member.

Pinned here: the grant (one message, one claim marker per member with a
shared owner and deadline, records equal to solo runs), dissolving a
lease whose worker is SIGKILLed (each member requeued once as a solo
run), a diverging member failing alone, how many local workers a plan
starts, and one payload conversion per spec per coordinator.
"""

import collections
import threading

import pytest

import repro.campaign.service as service
from repro.campaign import (
    CampaignDeck,
    CampaignExecutor,
    CampaignStore,
    Coordinator,
    RunSpec,
    SocketEndpoint,
    SocketWorkerChannel,
    Worker,
)
from repro.campaign.executor import KILL_FUSE_ENV
from repro.campaign.store import COMPLETED, FAILED, RUNNING

BASE = {"order": "low", "num_nodes": [16, 16], "dt": 0.002}


def deck(grid=None, **base):
    return CampaignDeck.from_dict({
        "name": "fl", "mode": "functional", "steps": 2,
        "base": dict(BASE, **base),
        "ic": {"kind": "multi_mode", "magnitude": 0.02, "period": 3},
        "grid": grid or {},
    }).expand()


def fleet_and_solos():
    """Six one-rank runs sharing a fleet key plus three two-rank runs."""
    return (
        deck(grid={"atwood": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]})
        + deck(grid={"atwood": [0.7, 0.8, 0.9], "ranks": [2]})
    )


def serve(store, specs, n_workers=2, **kwargs):
    """Coordinator + ``n_workers`` in-process workers over local TCP."""
    endpoint = SocketEndpoint()
    coordinator = Coordinator(
        store, specs, endpoint, lease_timeout=60.0, drain_grace=3.0,
        journal=True, telemetry=False, **kwargs,
    )
    threads = [
        threading.Thread(target=Worker(
            SocketWorkerChannel(*endpoint.address), worker_id=f"w{i}",
            idle_timeout=30.0, telemetry=False,
        ).run)
        for i in range(n_workers)
    ]
    for thread in threads:
        thread.start()
    summary = coordinator.serve()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    return coordinator, summary


def history(store, run_hash):
    return [r.status for r in store.iter_records() if r.run_hash == run_hash]


class TestFleetLease:
    def test_one_grant_per_fleet(self, tmp_path):
        specs = fleet_and_solos()
        members = {s.run_hash() for s in specs[:6]}
        store = CampaignStore("fl", root=str(tmp_path / "svc"))
        coordinator, summary = serve(store, specs)
        assert summary["completed"] == 9 and summary["failed"] == 0

        jobs = [m for d, _, m in coordinator.journal
                if d == "send" and m.TYPE == "new-job"]
        assert sorted(len(job.members) for job in jobs) == [0, 0, 0, 6]
        (fleet_job,) = [job for job in jobs if job.members]
        assert fleet_job.payload == {}
        assert {RunSpec.from_payload(p).run_hash()
                for p in fleet_job.members} == members

        claims = [r for r in store.iter_records()
                  if r.status == RUNNING and r.run_hash in members]
        assert len(claims) == 6
        assert len({(r.owner, r.lease_expires) for r in claims}) == 1

        # Six terminal records equal to the same runs executed solo.
        solo = CampaignStore("fl", root=str(tmp_path / "solo"))
        executor = CampaignExecutor(
            solo, max_workers=1, telemetry=False,
        )
        for spec in specs:
            executor.submit([spec])
        leased, alone = store.latest_records(), solo.latest_records()
        for run_hash in members:
            assert leased[run_hash].status == COMPLETED
            assert leased[run_hash].result == alone[run_hash].result
            assert history(store, run_hash) == [RUNNING, COMPLETED]

        metrics = coordinator.metrics.snapshot()
        assert metrics["campaign.batch_absorbed"] == 6
        assert metrics["campaign.service.jobs_leased"] == 4

    def test_groups_under_the_fleet_minimum_lease_every_run(self, tmp_path):
        store = CampaignStore("fl", root=str(tmp_path))
        specs = fleet_and_solos()[3:]       # three one-rank, three two-rank
        coordinator, summary = serve(store, specs)
        assert summary["completed"] == 6
        metrics = coordinator.metrics.snapshot()
        assert metrics["campaign.service.jobs_leased"] == 6
        assert "campaign.batch_absorbed" not in metrics

    def test_diverging_member_fails_alone(self, tmp_path):
        specs = deck(grid={"atwood": [0.1, 0.3, 0.5]}) + deck(dt=5.0)[:1]
        bad = specs[-1].run_hash()
        store = CampaignStore("fl", root=str(tmp_path))
        coordinator, summary = serve(store, specs, n_workers=1)
        assert summary["completed"] == 3 and summary["failed"] == 1
        latest = store.latest_records()
        assert latest[bad].status == FAILED
        assert "RunDivergedError" in latest[bad].error
        for spec in specs[:-1]:
            assert latest[spec.run_hash()].status == COMPLETED
        assert coordinator.metrics.snapshot()["campaign.batch_absorbed"] == 3


def record_children(monkeypatch):
    started = []
    real_fork = service._fork_worker

    def recording_fork(*args, **kwargs):
        started.append(real_fork(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(service, "_fork_worker", recording_fork)
    return started


def reap(children):
    for proc in children:
        proc.join(timeout=30)
        outlived = proc.exitcode is None
        if outlived:
            proc.kill()
            proc.join()
        assert not outlived, f"worker {proc.pid} outlived submit()"


class TestLocalWorkers:
    @pytest.mark.parametrize("specs,spawned", [
        (fleet_and_solos, 4),
        (lambda: fleet_and_solos()[:7], 2),
        (lambda: fleet_and_solos()[:6], 0),
    ], ids=["fleet+3", "fleet+1", "fleet-only"])
    def test_one_worker_per_lease_item(self, tmp_path, monkeypatch,
                                       specs, spawned):
        """``min(max_workers, lease items)`` children; a plan of one item
        (here one fleet) runs inline."""
        children = record_children(monkeypatch)
        store = CampaignStore("fl", root=str(tmp_path))
        executor = CampaignExecutor(store, max_workers=8, telemetry=False)
        outcomes = executor.submit(specs())
        assert all(o.status == "completed" for o in outcomes)
        assert executor.metrics.snapshot()["campaign.batch_absorbed"] == 6
        reap(children)
        assert len(children) == spawned

    def test_sigkilled_fleet_dissolves_into_solo_runs(
        self, tmp_path, monkeypatch
    ):
        """The kill fuse trips on a member: the fleet's worker dies, its
        lease lapses and dissolves, and each member completes once as a
        solo lease on a replacement."""
        specs = fleet_and_solos()[:7]
        members = [s.run_hash() for s in specs[:6]]
        fuse = tmp_path / "fuse"
        fuse.write_text(f"{members[3]} 1")
        monkeypatch.setenv(KILL_FUSE_ENV, str(fuse))
        children = record_children(monkeypatch)
        store = CampaignStore("fl", root=str(tmp_path))
        executor = CampaignExecutor(store, max_workers=2, telemetry=False)
        outcomes = executor.submit(specs)
        reap(children)
        assert all(o.status == "completed" for o in outcomes)
        assert not fuse.exists()
        for run_hash in members:
            assert history(store, run_hash) == [RUNNING, RUNNING, COMPLETED]
        metrics = executor.metrics.snapshot()
        assert metrics["campaign.requeues"] == len(members)
        assert metrics["campaign.service.leases_expired"] == 1
        assert "campaign.batch_absorbed" not in metrics
        assert len(children) == 3


def test_a_grant_converts_each_spec_once(tmp_path, monkeypatch):
    """Hash, claim marker and ``new-job`` share one payload per spec."""
    cached = RunSpec.__dict__["_payload"]
    real = cached.func
    calls = collections.Counter()

    def counted(spec):
        calls[id(spec)] += 1
        return real(spec)

    monkeypatch.setattr(cached, "func", counted)
    specs = fleet_and_solos()
    store = CampaignStore("fl", root=str(tmp_path))
    _, summary = serve(store, specs)
    assert summary["completed"] == len(specs)
    assert [calls[id(spec)] for spec in specs] == [1] * len(specs)
